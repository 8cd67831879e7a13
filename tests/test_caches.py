"""The package keeps no cache, and nothing it allocates outlives a call.

The ladder data of each mu is read once and handed down, so no cache is
needed.  A new ``functools`` cache in the ``spechtmod`` modules must be put
on the allow-list below and carry a comment, directly above its decorator,
naming a workload of ``perfbench/workloads.json`` that hits it.  A cache
added without a reason, or one left after its traffic is gone, fails here.
A cache keyed by tableaux or vectors would grow with the work done, not with
the sizes asked for, so none may hold such keys over a long session.
"""

import gc
import importlib
import inspect
import json
import pathlib
import tracemalloc

from spechtmod import verify
from spechtmod.fock import FockVector
from spechtmod.seminormal import SeminormalVector
from spechtmod.verify import conjecture_check, m_matrix

MODULES = ("partitions", "tableaux", "fock", "seminormal", "ranks", "verify",
           "cli")

KEPT = set()

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.json"


def package_caches():
    """name -> cached function, for caches defined in the package modules."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"spechtmod.{name}")
        for attr, obj in vars(module).items():
            if (callable(getattr(obj, "cache_info", None))
                    and obj.__module__ == module.__name__):
                out[f"{name}.{attr}"] = obj
    return out


def comment_above(fn) -> str:
    """The block of comment lines directly above the first decorator."""
    lines, _ = inspect.findsource(fn.__wrapped__)
    k = fn.__wrapped__.__code__.co_firstlineno - 2
    block = []
    while k >= 0 and lines[k].startswith("#"):
        block.insert(0, lines[k])
        k -= 1
    return "".join(block)


def test_caches_are_exactly_the_allow_list():
    assert set(package_caches()) == KEPT


def test_no_package_allocation_outlives_a_check():
    # every byte allocated by spechtmod code during the check is freed
    # once its report is dropped
    gc.collect()
    tracemalloc.start()
    try:
        assert conjecture_check(16, 5).overall
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, "*/spechtmod/*")])
    assert sum(stat.size for stat in held.statistics("filename")) == 0


def test_m_matrix_streams_its_ladder_data(monkeypatch):
    # each mu's ladder data is built when its column runs, not all first:
    # at most two are alive between a creation and the end of a column
    decomposition = verify.ladder_decomposition
    dims = verify._weight_space_dims
    created, finished, peak = [], [], []

    def creating(lam, p):
        created.append(lam)
        peak.append(len(created) - len(finished))
        return decomposition(lam, p)

    def ranking(*args):
        out = dims(*args)
        finished.append(1)
        return out

    monkeypatch.setattr(verify, "ladder_decomposition", creating)
    monkeypatch.setattr(verify, "_weight_space_dims", ranking)
    table = verify.llt_canonical(16, 5)
    m_matrix(16, 5, {mu: {tau: verify.evaluate_at_one(c)
                          for tau, c in a.terms.items()}
                     for mu, a in table.A.items()})
    assert len(created) == len(finished) == 164
    assert max(peak) <= 2


def test_every_cache_names_a_workload_that_hits_it():
    workloads = json.loads(WORKLOADS.read_text())
    for name, fn in package_caches().items():
        comment = comment_above(fn)
        assert comment.startswith("# cached: "), name
        assert any(w in comment for w in workloads), (name, comment)


def cache_entries(fn) -> dict:
    """The key -> result dict of a ``functools`` cache (CPython's C cache
    holds it as the one referent dict besides the wrapper's __dict__)."""
    found = [d for d in gc.get_referents(fn)
             if type(d) is dict and d is not fn.__dict__]
    assert len(found) == 1
    return found[0]


def leaves(key):
    """The items of a cache key, with nested tuples flattened."""
    if type(key) is tuple:
        for item in key:
            yield from leaves(item)
    else:
        yield key


def test_caches_hold_no_tableau_or_vector_keys_over_two_grid_points():
    for fn in package_caches().values():
        fn.cache_clear()
    assert conjecture_check(7, 3).overall
    assert conjecture_check(8, 3).overall
    for name, fn in package_caches().items():
        entries = cache_entries(fn)
        assert len(entries) == fn.cache_info().currsize > 0, name
        for key, value in entries.items():
            assert all(type(x) is int for x in leaves(key)), (name, key)
            assert not isinstance(value, (FockVector, SeminormalVector)), \
                (name, key)
