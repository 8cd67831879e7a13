"""The fault suite: each row patches one fault into the package and checks
that the guard named for it fails at the (n, p) named for it.

Rows so far, all at p = 3, n = 8:

- a rank of 1 read as 0: the identity m . n^-1 = I fails;
- one orbit representative dropped from a p-restricted shape: the
  weight-space count check raises and names mu and tau;
- every bar-symmetric correction of the LLT elimination doubled: the
  elimination's iteration cap raises.  This also pins that the elimination
  takes every correction from the one rule ``fock._bar_symmetric_correction``.

Dropping a representative of a shape that is not p-restricted changes
nothing: such a shape is never ranked, so that fault has no row.
"""

import pytest

from spechtmod import fock, ranks
from spechtmod.partitions import is_p_restricted
from spechtmod.verify import conjecture_check


def test_rank_of_one_read_as_zero_fails_the_identity(monkeypatch):
    rank, patched = ranks._rank, []

    def faulty(vectors, norms, p):
        r = rank(vectors, norms, p)
        if r == 1 and not patched:
            patched.append(r)
            return 0
        return r

    monkeypatch.setattr(ranks, "_rank", faulty)
    report = conjecture_check(8, 3)
    assert patched
    assert not report.overall
    assert sum(rec["pass"] is False for rec in report.checks.values()) == 2


def test_dropped_representative_fails_the_weight_space_count(monkeypatch):
    # the first restricted shape other than mu itself, in the order listed,
    # of the first mu whose class has one
    positions, patched = ranks._orbit_positions, []

    def faulty(ld, target=None):
        out = positions(ld, target)
        for shape in out:
            if not patched and shape != ld.partition \
                    and is_p_restricted(shape, ld.p):
                patched.append(shape)
                out[shape] = out[shape][1:]
        return out

    monkeypatch.setattr(ranks, "_orbit_positions", faulty)
    with pytest.raises(AssertionError,
                       match=r"mu=\(3, 3, 1, 1\), tau=\(4, 3, 1\)"):
        conjecture_check(8, 3)


def test_doubled_correction_stops_the_elimination(monkeypatch):
    correction, calls = fock._bar_symmetric_correction, []

    def faulty(c):
        calls.append(1)
        return {e: 2 * x for e, x in correction(c).items()}

    monkeypatch.setattr(fock, "_bar_symmetric_correction", faulty)
    with pytest.raises(AssertionError,
                       match="canonical-basis elimination did not stabilize"):
        conjecture_check(8, 3)
    assert calls
