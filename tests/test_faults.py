"""The fault suite: each row patches one fault into the package and checks
that the guard named for it fails at the (n, p) named for it.

Rows so far:

- a rank of 1 read as 0, at p = 3, n = 8: the identity m . n^-1 = I fails;
- one orbit representative of a p-restricted shape dropped, or listed
  twice, at p = 3, n = 8: the weight-space count check raises and names mu
  and tau before any chain of that pair is walked;
- every bar-symmetric correction of the LLT elimination doubled, at p = 3,
  n = 8: the elimination's iteration cap raises.  This also pins that the
  elimination takes every correction from the one rule
  ``fock._bar_symmetric_correction``;
- the largest key of a folded chain dropped, at p = 3, n = 8: the
  unitriangularity check of the chain basis raises and names mu, tau and
  the representative;
- a rank above 1 read one lower, at p = 5, n = 19, the first size with a
  rank above 1: the identity fails;
- a wrong singular factor d(h) = (h+1)/h where p divides h: the identity
  fails at p = 3, n = 11, and the Gram entries stop being p-integral at
  p = 5, n = 21.  At p = 5 the fault goes unseen for every n <= 20;
- the residue of the first or of the last ladder shifted by one in the
  ladder data the Gram side walks, at p = 3, n = 8: the weight-space count
  check raises at the first mu.

Where a row names the first (mu, tau) to fail, the mu are visited in sorted
order of their ladder steps, as ``m_matrix`` visits them.

Dropping a representative of a shape that is not p-restricted changes
nothing: such a shape is never ranked, so that fault has no row.  A
representative listed twice is caught because the count check runs before
the chains: an elimination on the chains would drop the copy, and the
counts would then agree.
"""

import pytest

from spechtmod import fock, ranks, verify
from spechtmod.partitions import LadderData, is_p_restricted
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
    # the first pair ranked with rank 1 is the diagonal one of the first mu
    # in ladder-step order
    mu = (2, 2, 1, 1, 1, 1)
    assert [key for key, rec in report.checks.items()
            if rec["pass"] is False] == [(mu, mu)]


def _fault_first_restricted_shape(monkeypatch, edit):
    """Apply ``edit`` to the orbit representatives of the first restricted
    shape other than mu itself, in the order listed, of the first mu whose
    class has one once some chain has been walked, where the path stack
    hands mu its frontier, and record the start positions of every chain
    walked.  Returns (patched, walked); patched gets (shape, number of
    chains walked before the fault), and every chain walked after it
    belongs to that mu."""
    dims, patched = verify._weight_space_dims, []
    walk, walked = ranks._walk, []

    def faulty(ld, representatives, *args):
        for shape in representatives:
            if walked and not patched and shape != ld.partition \
                    and is_p_restricted(shape, ld.p):
                patched.append((shape, len(walked)))
                representatives = {**representatives,
                                   shape: edit(representatives[shape])}
        return dims(ld, representatives, *args)

    def walking(word, start, rules):
        walked.append(start[0])
        return walk(word, start, rules)

    monkeypatch.setattr(verify, "_weight_space_dims", faulty)
    monkeypatch.setattr(ranks, "_walk", walking)
    return patched, walked


def _raises_before_walking_the_pair(monkeypatch, edit, size):
    # the count check runs before any chain of the pair is walked
    patched, walked = _fault_first_restricted_shape(monkeypatch, edit)
    with pytest.raises(AssertionError,
                       match=r"mu=\(2, 2, 2, 2\), tau=\(4, 3, 1\) has size "
                             rf"{size}, weight-space count expects 1"):
        conjecture_check(8, 3)
    (shape, mark), = patched
    assert shape == (4, 3, 1) and walked
    assert ranks._row_reading(shape)[0] not in walked[mark:]


def test_dropped_representative_fails_the_weight_space_count(monkeypatch):
    _raises_before_walking_the_pair(monkeypatch, lambda reps: reps[1:], 0)


def test_repeated_representative_fails_the_weight_space_count(monkeypatch):
    # no elimination on the chains can drop the copy and hide the fault
    _raises_before_walking_the_pair(monkeypatch,
                                    lambda reps: reps + reps[:1], 2)


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


def test_dropped_leading_key_fails_the_unitriangularity_check(monkeypatch):
    # the largest key of the first folded chain with more than one term
    fold, patched = ranks._fold, []

    def faulty(ends, slices, norms):
        nums, den = fold(ends, slices, norms)
        if len(nums) > 1 and not patched:
            patched.append(max(nums))
            del nums[max(nums)]
        return nums, den

    monkeypatch.setattr(ranks, "_fold", faulty)
    with pytest.raises(AssertionError,
                       match=r"folded chain for mu=\(2, 2, 2, 1, 1\), "
                             r"tau=\(3, 2, 2, 1\) is not "
                             r"unitriangular") as info:
        conjecture_check(8, 3)
    # the key dropped is the representative s itself, which the error names
    assert patched and str(info.value).endswith(f"s={patched[0]}")


def test_rank_above_one_read_one_lower_fails_the_identity(monkeypatch):
    rank, patched = ranks._rank, []

    def faulty(vectors, norms, p):
        r = rank(vectors, norms, p)
        if r > 1 and not patched:
            patched.append(r)
            return r - 1
        return r

    monkeypatch.setattr(ranks, "_rank", faulty)
    report = conjecture_check(19, 5)
    assert patched
    assert not report.overall
    assert sum(rec["pass"] is False for rec in report.checks.values()) == 1


def test_wrong_singular_factor_fails_the_identity_and_p_integrality(
        monkeypatch):
    factors = ranks.step_factors

    def faulty(h, p=None):
        diagonal, swap, ratio = factors(h, p)
        if p is not None and h % p == 0:
            diagonal = (h + 1, h) if h > 0 else (-h - 1, -h)
        return diagonal, swap, ratio

    monkeypatch.setattr(ranks, "step_factors", faulty)
    report = conjecture_check(11, 3)
    assert not report.overall
    assert sum(rec["pass"] is False for rec in report.checks.values()) == 1
    with pytest.raises(ArithmeticError,
                       match=r"mu=\(9, 6, 2, 1, 1, 1, 1\), "
                             r"tau=\(10, 6, 2, 1, 1, 1\): entry .* is not "
                             r"5-integral"):
        conjecture_check(21, 5)


@pytest.mark.parametrize("ladder", [0, -1], ids=["first", "last"])
def test_off_by_one_ladder_residue_fails_the_weight_space_count(
        monkeypatch, ladder):
    decomposition = verify.ladder_decomposition

    def faulty(lam, p):
        ld = decomposition(lam, p)
        residues = list(ld.residues)
        residues[ladder] = (residues[ladder] + 1) % p
        return LadderData(ld.partition, ld.p, ld.ladders, ld.sizes,
                          tuple(residues), ld.limits,
                          ld.ladder_group_intervals)

    monkeypatch.setattr(verify, "ladder_decomposition", faulty)
    with pytest.raises(AssertionError,
                       match=r"mu=\(2, 2, 1, 1, 1, 1\), tau=\(3, 3, 1, 1\) "
                             r"has size 0, weight-space count expects 1"):
        conjecture_check(8, 3)
