import math
import pickle
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from spechtmod.partitions import (
    LadderData,
    Partition,
    addable_nodes,
    all_addable_nodes,
    all_partitions,
    check_partition,
    conjugate,
    dominates,
    hook_lengths,
    is_p_restricted,
    ladder_decomposition,
    restricted_partitions,
    standard_tableau_count,
    total_order_key,
    validate_ladder_lengths,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    remaining = n
    bound = n
    while remaining:
        a = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(a)
        bound = a
        remaining -= a
    return tuple(parts)


@pytest.mark.parametrize("parts, expected", [
    ((3, 2, 0, 0), (3, 2)),
    ((), ()),
    ([0, 0], ()),
    ((3, 1, 1), (3, 1, 1)),
    ((2.0, 1), (2, 1)),
    ((2, -1), "partition parts must be positive: (2, -1)"),
    ([2, 0, 3], "partition parts must be positive: (2, 0, 3)"),
    ((1, 2), "partition parts must be weakly decreasing: (1, 2)"),
])
def test_check_partition(parts, expected):
    # tuples and messages as the generator-expression version gave them
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            check_partition(parts)
        assert str(info.value) == expected
    else:
        result = check_partition(parts)
        assert result == expected and type(result) is tuple
        assert all(type(a) is int for a in result)


def test_check_partition_strips_trailing_zeros_in_one_pass():
    # dropping them one slice at a time took 3.1 s at 40,000 zeros
    start = time.perf_counter()
    assert check_partition([1] + [0] * 100_000) == (1,)
    assert time.perf_counter() - start < 1


def test_all_partitions_counts():
    # p(0..10) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
    counts = [len(all_partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_all_partitions_matches_bruteforce():
    for n in range(9):
        assert set(all_partitions(n)) == set(oracles.partitions_of(n))


def test_all_partitions_sorted_most_dominant_first():
    for n in range(9):
        seq = all_partitions(n)
        assert list(seq) == sorted(seq, key=total_order_key)
        # (n) leads, (1^n) trails
        if n:
            assert seq[0] == (n,)
            assert seq[-1] == (1,) * n


def test_restricted_partitions_against_bruteforce():
    for p in (3, 5):
        for n in range(10):
            assert set(restricted_partitions(n, p)) == \
                set(oracles.restricted_of(n, p))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_restricted_partitions_are_the_filtered_listing(p):
    # generated directly, in the order of all_partitions
    for n in range(25):
        assert restricted_partitions(n, p) == tuple(
            lam for lam in all_partitions(n) if is_p_restricted(lam, p))
    with pytest.raises(ValueError, match="n must be >= 0"):
        restricted_partitions(-1, p)


def test_restricted_counts_p3():
    counts = [len(restricted_partitions(n, 3)) for n in range(1, 11)]
    assert counts == [1, 2, 2, 4, 5, 7, 9, 13, 16, 22]


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


@given(partition_strategy())
def test_conjugate_matches_bruteforce(lam):
    assert conjugate(lam) == oracles.conjugate(lam)


@given(partition_strategy(max_n=10), partition_strategy(max_n=10))
def test_dominance_matches_bruteforce(a, b):
    if sum(a) != sum(b):
        return
    assert dominates(b, a) == oracles.dominates_leq(a, b)


def test_dominates_exhaustive():
    """Every ordered pair of partitions of each n <= 10 (3,583 pairs)."""
    pairs = 0
    for n in range(11):
        pars = all_partitions(n)
        for a in pars:
            for b in pars:
                assert dominates(a, b) == oracles.dominates_leq(b, a), (a, b)
                assert (dominates(a, b) and dominates(b, a)) == (a == b)
                pairs += 1
    assert pairs == 3583
    with pytest.raises(ValueError) as excinfo:
        dominates((2, 1), (2, 2))
    assert str(excinfo.value) == \
        "dominance needs equal sizes: (2, 1) vs (2, 2)"


@given(partition_strategy())
def test_dominance_reverses_under_conjugation(a):
    n = sum(a)
    for b in all_partitions(n):
        if dominates(a, b):
            assert dominates(conjugate(b), conjugate(a))


def test_hook_lengths_331():
    hooks = hook_lengths((3, 3, 1))
    assert hooks == {(1, 1): 5, (1, 2): 3, (1, 3): 2,
                     (2, 1): 4, (2, 2): 2, (2, 3): 1,
                     (3, 1): 1}


@given(partition_strategy(max_n=10))
def test_standard_count_matches_enumeration(lam):
    assert standard_tableau_count(lam) == len(oracles.standard_fillings(lam))


@given(partition_strategy(max_n=10))
def test_standard_count_hook_formula_consistency(lam):
    n = sum(lam)
    hooks = hook_lengths(lam)
    prod = math.prod(hooks.values())
    assert standard_tableau_count(lam) * prod == math.factorial(n)


def test_sum_of_squares_of_standard_counts():
    for n in range(1, 9):
        assert sum(standard_tableau_count(lam) ** 2
                   for lam in all_partitions(n)) == math.factorial(n)


@given(partition_strategy(max_n=10), st.sampled_from([3, 5, 7]))
def test_addable_nodes(lam, p):
    for res in range(p):
        for node in addable_nodes(lam, res, p):
            i, j = node
            assert (j - i) % p == res
            bigger = list(lam) + [0] * (i - len(lam))
            bigger[i - 1] += 1
            assert tuple(a for a in bigger if a) in all_partitions(sum(lam) + 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_nodes_are_the_filtered_node_lists(p):
    # the one-pass residue test gives the filtered list, order included;
    # residues outside 0..p-1 are read mod p; all_addable_nodes, which skips
    # along runs of equal parts, gives the unfiltered list
    for n in range(13):
        for lam in all_partitions(n):
            adds = tuple(oracles.addable_nodes_of(lam))
            assert all_addable_nodes(lam) == adds
            for res in range(-p, 2 * p):
                assert addable_nodes(lam, res, p) == tuple(
                    (i, j) for i, j in adds if (j - i - res) % p == 0)


def test_ladder_index_slope():
    # nodes on a common ladder for p = 3: (i, j) and (i + 1, j - 2); the
    # first ladder is the single node (1, 1), of residue 0
    ld = ladder_decomposition((5, 3, 1), 3)
    assert ld.ladders[:3] == (((1, 1),), ((1, 2),), ((1, 3), (2, 1)))
    assert ((1, 5), (2, 3), (3, 1)) in ld.ladders
    assert ld.residues[0] == 0


def test_ladder_decomposition_rejects_non_restricted():
    with pytest.raises(ValueError):
        ladder_decomposition((4, 1), 3)


@given(st.sampled_from([3, 5]), partition_strategy(max_n=10))
@settings(max_examples=60)
def test_ladder_decomposition_structure(p, lam):
    padded = lam + (0,)
    if any(padded[i] - padded[i + 1] >= p for i in range(len(lam))):
        return
    ld = ladder_decomposition(lam, p)
    # sizes sum to n and match the independent grouping
    assert sum(ld.sizes) == sum(lam)
    assert ld.sizes == oracles.ladder_sizes(lam, p)
    # each ladder has constant residue matching the independent word
    assert ld.ladder_residue_sequence.values == oracles.ladder_residues(lam, p)
    # limits are the running sums of sizes
    total = 0
    for size, limit in zip(ld.sizes, ld.limits[1:]):
        total += size
        assert limit == total


def test_ladder_decomposition_matches_the_definition():
    # each row's nodes appended to their ladders in row order: the ladders,
    # their residues and limits as the definition groups and sorts them
    for p in (3, 5, 7):
        for n in range(15):
            for mu in oracles.restricted_of(n, p):
                ld = ladder_decomposition(mu, p)
                assert (ld.ladders, ld.sizes, ld.residues, ld.limits,
                        ld.ladder_group_intervals) == \
                    oracles.ladder_data_reference(mu, p), (p, mu)


def test_ladder_data_is_a_read_only_record():
    ld = ladder_decomposition((3, 1), 3)
    fields = dict(partition=ld.partition, p=ld.p, ladders=ld.ladders,
                  sizes=ld.sizes, residues=ld.residues, limits=ld.limits,
                  ladder_group_intervals=ld.ladder_group_intervals)
    same = LadderData(**fields)
    assert same == ld and hash(same) == hash(ld)
    assert LadderData(*fields.values()) == ld
    assert repr(ld) == "LadderData(" + ", ".join(
        f"{key}={value!r}" for key, value in fields.items()) + ")"
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ld, protocol)) == ld
    assert ld != ladder_decomposition((2, 2), 3) and ld != fields
    assert weakref.ref(ld)() is ld
    with pytest.raises(AttributeError):
        ld.p = 5
    with pytest.raises(AttributeError):
        ld.extra = 1
    with pytest.raises(TypeError, match="missing the field 'limits'"):
        LadderData(*list(fields.values())[:5])
    with pytest.raises(TypeError, match="'p'"):
        LadderData(*fields.values(), p=3)
    with pytest.raises(TypeError):
        LadderData(*fields.values(), 0)


def test_ladder_group_intervals_n5_p3():
    # the five restricted shapes of n = 5 have ladder groups of orders 2 or 1
    orders = {mu: ladder_decomposition(mu, 3).ladder_group_order()
              for mu in restricted_partitions(5, 3)}
    assert orders == {(3, 2): 2, (3, 1, 1): 2, (2, 2, 1): 1,
                      (2, 1, 1, 1): 1, (1, 1, 1, 1, 1): 1}


def test_validate_ladder_lengths_region():
    # inside n < p^2 every restricted shape passes (the ladder-length lemma)
    for p in (3, 5):
        for n in range(p * p):
            for mu in restricted_partitions(n, p):
                assert validate_ladder_lengths(mu, p)


def test_validate_ladder_lengths_exhaustive_p3_and_p5():
    for n in range(9):
        assert all(validate_ladder_lengths(mu, 3)
                   for mu in restricted_partitions(n, 3))
    for n in range(25):
        assert all(validate_ladder_lengths(mu, 5)
                   for mu in restricted_partitions(n, 5))


def test_ladders_below_p_is_the_ladder_length_rule():
    # one rule for every caller; the empty partition has no ladder
    for p in (3, 5):
        for n in range(13):
            for mu in restricted_partitions(n, p):
                ld = ladder_decomposition(mu, p)
                assert ld.ladders_below_p() == all(m < p for m in ld.sizes)
                assert validate_ladder_lengths(mu, p) == ld.ladders_below_p()
    assert ladder_decomposition((), 3).ladders_below_p()


def test_ladder_length_violation_outside_region():
    # for p = 3, n = 9 the shape (5,3,1) has a ladder of length 3
    assert not validate_ladder_lengths((5, 3, 1), 3)
    assert not validate_ladder_lengths((5, 3, 2), 3)
    assert not validate_ladder_lengths((5, 3, 1, 1), 3)
