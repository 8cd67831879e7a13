import pickle

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from spechtmod.partitions import (all_partitions, ladder_decomposition,
                                  restricted_partitions)
from spechtmod.tableaux import (
    StandardTableau,
    canonical_word,
    d_permutation,
    d_reduced_word,
    from_rows,
    is_standard_rows,
    ladder_class_of_shape,
    ladder_orbit_positions,
    reduced_word,
    residue_sequence,
    row_reading_tableau,
    standard_tableaux,
)


@st.composite
def shape_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    choices = all_partitions(n)
    return draw(st.sampled_from(choices))


@st.composite
def permutation_strategy(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


def test_standard_tableau_accessors():
    t = StandardTableau(((1, 3, 5), (2, 4)))
    assert t.shape == (3, 2)
    assert t.n == 5
    assert t.position_of(4) == (2, 2)
    assert t.entry_at((1, 3)) == 5
    assert t.content(2) == -1
    assert t.content(5) == 2


def test_standard_tableau_pickle_round_trip():
    for t in standard_tableaux((3, 2, 1)):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            u = pickle.loads(pickle.dumps(t, protocol))
            assert u == t and hash(u) == hash(t)
            assert u.rows == t.rows
            assert all(u.position_of(k) == t.position_of(k)
                       for k in range(1, t.n + 1))


def test_from_rows_rejects_bad_fillings():
    with pytest.raises(ValueError):
        from_rows(((1, 2), (4, 3)))
    with pytest.raises(ValueError):
        from_rows(((2, 3), (1,)))
    with pytest.raises(ValueError):
        from_rows(((1, 3), (2, 2)))
    with pytest.raises(ValueError):
        from_rows(((1,), (2, 3)))


def test_row_reading_tableau():
    assert row_reading_tableau((3, 2)).rows == ((1, 2, 3), (4, 5))
    assert row_reading_tableau((2, 2, 1)).rows == ((1, 2), (3, 4), (5,))


@given(shape_strategy())
def test_enumeration_matches_bruteforce(lam):
    ours = [t.rows for t in standard_tableaux(lam)]
    assert ours == sorted(oracles.standard_fillings(lam),
                          key=oracles._positions)


def test_residue_sequence_example():
    # the two worked-example tableaux at p = 3
    t = StandardTableau(((1, 2), (3, 5), (4,)))
    assert residue_sequence(t, 3).values == (0, 1, 2, 1, 0)
    s = StandardTableau(((1, 3, 5), (2, 4)))
    assert residue_sequence(s, 3).values == (0, 2, 1, 0, 2)


@given(shape_strategy(max_n=7), st.sampled_from([3, 5]))
def test_tableau_class_is_residue_fiber(lam, p):
    tabs = standard_tableaux(lam)
    by_rs = {}
    for t in tabs:
        by_rs.setdefault(residue_sequence(t, p).values, set()).add(t)
    for rs_values, members in by_rs.items():
        # the class spans all shapes; the target keeps its shape-lam members
        assert set(oracles.tableau_class_recursive(rs_values, p, lam)) == \
            {t.sort_key() for t in members}


def test_ladder_class_worked_example():
    # single-tableau classes from the n = 5 verification
    cls = ladder_class_of_shape((2, 1, 1, 1), (2, 2, 1), 3)
    assert [t.rows for t in cls] == [((1, 2), (3, 5), (4,))]
    cls = ladder_class_of_shape((1, 1, 1, 1, 1), (3, 2), 3)
    assert [t.rows for t in cls] == [((1, 3, 5), (2, 4))]


def test_ladder_class_diagonal_is_ladder_tableau():
    for p in (3, 5):
        for n in range(1, 8):
            for mu in restricted_partitions(n, p):
                cls = ladder_class_of_shape(mu, mu, p)
                assert len(cls) >= 1
                from spechtmod.partitions import ladder_decomposition
                assert ladder_decomposition(mu, p).ladder_tableau in cls


def test_ladder_orbit_representatives_tile_the_class():
    """Each representative's orbit has ladder_group_order() members, all
    in the class, so the representatives account for the whole class."""
    from spechtmod.partitions import ladder_decomposition
    for p, n in ((3, 6), (5, 8)):
        for mu in restricted_partitions(n, p):
            ld = ladder_decomposition(mu, p)
            by_shape = ladder_orbit_positions(mu, p)
            assert sum(len(v) for v in by_shape.values()) \
                * ld.ladder_group_order() \
                == len(oracles.tableau_class_recursive(
                    ld.ladder_residue_sequence.values, p))
            for shape, reps in by_shape.items():
                assert set(reps) <= {t.sort_key() for t in
                                     ladder_class_of_shape(mu, shape, p)}
                assert ladder_orbit_positions(mu, p, shape) == \
                    {shape: reps}


def test_ladder_orbit_representatives_match_class_filter_reference():
    """The subset enumerator gives exactly the former full class filtered to
    one member per orbit, shape by shape and in sort_key order."""
    classes = 0
    for p, top in ((3, 9), (5, 14), (7, 12)):
        for n in range(top + 1):
            for mu in restricted_partitions(n, p):
                got = {shape: [StandardTableau.from_positions(s).rows
                               for s in reps] for shape, reps
                       in ladder_orbit_positions(mu, p).items()}
                assert got == oracles.ladder_class_representatives(mu, p)
                classes += 1
    assert classes == 712


def test_forward_orbit_walk_matches_recursive_reference():
    """The forward walk over the ladder intervals gives exactly the position
    tuples of the former recursive enumerator, shape by shape and in order,
    with and without a target shape."""
    classes = 0
    for p, top in ((3, 9), (5, 12), (7, 12)):
        for n in range(top + 1):
            for mu in restricted_partitions(n, p):
                want = oracles.ladder_orbit_positions_recursive(mu, p)
                assert ladder_orbit_positions(mu, p) == want
                for shape, positions in want.items():
                    assert ladder_orbit_positions(mu, p, shape) == \
                        {shape: positions} == \
                        oracles.ladder_orbit_positions_recursive(mu, p, shape)
                classes += 1
    assert classes == 536


def test_classes_come_out_in_sort_key_order():
    """The walk's classes, shape by shape, are the members the memoized
    recursion over entries lists, in the same sort_key order (476 classes)."""
    classes = 0
    for p, top in ((3, 9), (5, 11), (7, 12)):
        for n in range(top + 1):
            for mu in restricted_partitions(n, p):
                rs = ladder_decomposition(mu, p).ladder_residue_sequence
                members = oracles.tableau_class_recursive(rs.values, p)
                for shape in {StandardTableau.from_positions(s).shape
                              for s in members}:
                    of_shape = ladder_class_of_shape(mu, shape, p)
                    assert tuple(t.sort_key() for t in of_shape) == (
                        oracles.tableau_class_recursive(rs.values, p, shape))
                classes += 1
    assert classes == 476


@given(permutation_strategy())
def test_reduced_word_lengths_and_product(w):
    for strategy in ("canonical", "reverse"):
        word = reduced_word(w, strategy)
        assert len(word) == oracles.inversions(w)
        assert oracles.permutation_of_word(word, len(w)) == w


@given(permutation_strategy(max_n=6))
def test_reduced_word_letters_in_range(w):
    for strategy in ("canonical", "reverse"):
        for i in reduced_word(w, strategy):
            assert 2 <= i <= len(w)


@pytest.mark.parametrize("one_line", [(1, 1, 2), (0, 1), (2, 3)])
def test_reduced_word_rejects_non_permutations(one_line):
    for strategy in ("canonical", "reverse"):
        with pytest.raises(ValueError, match="not a permutation"):
            reduced_word(one_line, strategy)


@given(shape_strategy(max_n=7))
@settings(max_examples=40)
def test_d_permutation_sends_row_reading_to_t(lam):
    tlam = row_reading_tableau(lam)
    for t in standard_tableaux(lam):
        w = d_permutation(t)
        # relabeling the row-reading filling through w yields t
        relabeled = tuple(tuple(w[e - 1] for e in row) for row in tlam.rows)
        assert relabeled == t.rows


@given(shape_strategy(max_n=7))
@settings(max_examples=40)
def test_act_tableau_by_d_permutation(lam):
    for t in standard_tableaux(lam):
        pw = d_reduced_word(t)
        assert pw.one_line == d_permutation(t)
        assert oracles.permutation_of_word(pw.word, t.n) == pw.one_line


def test_d_reduced_word_length_is_the_inversion_count():
    # every standard tableau with n <= 7, both word strategies
    for n in range(1, 8):
        for lam in all_partitions(n):
            for t in standard_tableaux(lam):
                one_line = d_permutation(t)
                for strategy in ("canonical", "reverse"):
                    pw = d_reduced_word(t, strategy)
                    assert pw.one_line == one_line
                    assert len(pw.word) == oracles.inversions(one_line)


def test_canonical_word_read_from_positions_n_le_8():
    """The word read off the entry positions is the bubble-sort word of
    d(t), for every standard tableau with n <= 8."""
    tableaux = 0
    for n in range(1, 9):
        for lam in all_partitions(n):
            for t in standard_tableaux(lam):
                assert canonical_word(t.sort_key()) == \
                    reduced_word(d_permutation(t)), t
                tableaux += 1
    assert tableaux == 1115


def test_d_word_worked_examples():
    t = StandardTableau(((1, 2), (3, 5), (4,)))
    assert d_reduced_word(t).word == (5,)
    s = StandardTableau(((1, 3, 5), (2, 4)))
    # d(s) = sigma_3 sigma_5 sigma_4 in product order
    assert d_reduced_word(s).word == (3, 5, 4)


def test_swap_entries_standardness():
    rows = ((1, 2), (3, 4))
    assert oracles.swap_entries(rows, 3) == ((1, 3), (2, 4))
    # swapping 2,1 in the same row never yields a standard tableau
    assert oracles.swap_entries(rows, 2) is None


def test_swap_entries_involution():
    # every standard tableau with n <= 8: the two-position test agrees with
    # the full standardness check, and a standard swap undoes itself
    for n in range(1, 9):
        for lam in all_partitions(n):
            for t in standard_tableaux(lam):
                for i in range(2, n + 1):
                    rows = tuple(tuple(i - 1 if e == i else i if e == i - 1
                                       else e for e in row) for row in t.rows)
                    s = oracles.swap_entries(t.rows, i)
                    assert s == (rows if is_standard_rows(rows) else None)
                    if s is not None:
                        assert oracles.swap_entries(s, i) == t.rows


def test_class_cap_guard():
    # class enumeration at large n needs the explicit override flag
    mu = (2,) + (1,) * 39
    with pytest.raises(ValueError):
        ladder_class_of_shape(mu, mu, 3)
    with pytest.raises(ValueError):
        ladder_orbit_positions(mu, 3)
    assert ladder_orbit_positions(mu, 3, mu, allow_large=True)[mu] \
        == [ladder_decomposition(mu, 3).ladder_tableau.sort_key()]
