"""The package keeps only caches that the benchmark workloads hit.

Every ``functools`` cache in the ``spechtmod`` modules must be on the
allow-list below and carry a comment, directly above its decorator, naming
a workload of ``perfbench/workloads.json`` that hits it.  A cache added
without a reason, or one left after its traffic is gone, fails here.
"""

import importlib
import inspect
import json
import pathlib

from spechtmod.fock import first_approximation
from spechtmod.partitions import restricted_partitions
from spechtmod.verify import conjecture_check

MODULES = ("partitions", "tableaux", "fock", "seminormal", "ranks", "verify",
           "cli")

KEPT = {
    "fock.first_approximation",
    "partitions.all_partitions",
    "partitions.ladder_decomposition",
    "partitions.restricted_partitions",
    "seminormal.gamma",
    "tableaux.row_reading_tableau",
}

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


def test_every_cache_names_a_workload_that_hits_it():
    workloads = json.loads(WORKLOADS.read_text())
    for name, fn in package_caches().items():
        comment = comment_above(fn)
        assert comment.startswith("# cached: "), name
        assert any(w in comment for w in workloads), (name, comment)


def test_first_approximation_holds_one_entry_per_mu_over_two_grid_points():
    first_approximation.cache_clear()
    assert conjecture_check(7, 3).overall
    assert conjecture_check(8, 3).overall
    mus = restricted_partitions(7, 3) + restricted_partitions(8, 3)
    info = first_approximation.cache_info()
    assert info.currsize == len(mus)
    assert info.misses == len(mus)
