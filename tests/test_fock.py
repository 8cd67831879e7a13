import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from spechtmod import fock
from spechtmod.fock import (
    CanonicalBasisTable,
    FockVector,
    LaurentPoly,
    SparseRows,
    _assert_table_invariants,
    divided_f,
    evaluate_at_one,
    first_approximation,
    first_approximations,
    gaussian,
    gaussian_factorial,
    invert_unitriangular,
    llt_canonical,
    nmat_at_one,
)
from spechtmod.partitions import (ladder_decomposition, restricted_partitions,
                                  total_order_key)
from spechtmod.tableaux import StandardTableau


@st.composite
def laurent_strategy(draw, max_terms=5, max_exp=6, max_coeff=9):
    terms = draw(st.dictionaries(
        st.integers(min_value=-max_exp, max_value=max_exp),
        st.integers(min_value=-max_coeff, max_value=max_coeff),
        max_size=max_terms))
    return LaurentPoly(terms)


def test_laurent_basics():
    q = LaurentPoly({1: 1})
    one = LaurentPoly.one()
    f = q + q * q - one
    assert f.coefficient(2) == 1
    assert f.coefficient(1) == 1
    assert f.coefficient(0) == -1
    assert f.coefficient(5) == 0
    assert evaluate_at_one(f) == 1
    assert not f - f


@given(laurent_strategy(), laurent_strategy())
def test_laurent_ring_axioms(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == LaurentPoly.zero()


@given(laurent_strategy(), laurent_strategy(), laurent_strategy())
@settings(max_examples=50)
def test_laurent_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(laurent_strategy(), laurent_strategy())
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


def test_gaussian_frozen_values():
    assert not gaussian(0)
    assert gaussian(1) == LaurentPoly.one()
    assert gaussian(2) == LaurentPoly({1: 1, -1: 1})
    assert gaussian(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert gaussian_factorial(0) == LaurentPoly.one()
    assert gaussian_factorial(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})


@given(st.integers(min_value=0, max_value=8))
def test_gaussian_evaluates_to_factorial(k):
    import math
    assert evaluate_at_one(gaussian(k)) == k
    assert evaluate_at_one(gaussian_factorial(k)) == math.factorial(k)


def test_f_action_goldens():
    # f_i is the reference divided power with k = 1
    def f(i, vec):
        return oracles.divided_power_reference(i, 1, vec, 3)

    assert f(0, {(): {0: 1}}) == {(1,): {0: 1}}
    # two successive 2-additions on (2) at p = 3 land on (3,1) with [2]_q
    assert f(2, f(2, {(2,): {0: 1}})) == {(3, 1): {1: 1, -1: 1}}


def test_divided_f_goldens():
    assert divided_f(2, 2, FockVector.basis((2,)), 3).terms == \
        {(3, 1): LaurentPoly.one()}
    assert divided_f(0, 1, FockVector.vacuum(), 3).terms == \
        {(1,): LaurentPoly.one()}
    assert divided_f(2, 2, FockVector.basis((1,)), 3).terms == {}


def test_divided_power_times_factorial_is_power():
    # exhaustive: the vacuum and every partition of n <= 8, every residue;
    # f_i is the reference divided power with k = 1, not divided_f
    from spechtmod.partitions import all_partitions
    for p in (3, 5, 7):
        for n in range(9):
            for lam in all_partitions(n):
                v = FockVector(n, {lam: 1})
                for i in range(p):
                    powered = {lam: {0: 1}}
                    for k in range(1, 5):
                        powered = oracles.divided_power_reference(
                            i, 1, powered, p)
                        divided = divided_f(i, k, v, p)
                        fact = gaussian_factorial(k)
                        assert {mu: (c * fact).coeffs for mu, c
                                in divided.terms.items()} \
                            == powered, (p, lam, i, k)


def test_divided_f_matches_reference():
    # exhaustive: every partition of n <= 8, every residue, k <= 3
    from spechtmod.partitions import all_partitions
    for p in (3, 5, 7):
        for n in range(9):
            for lam in all_partitions(n):
                for i in range(p):
                    for k in range(1, 4):
                        got = divided_f(i, k, FockVector(n, {lam: 1}), p)
                        want = oracles.divided_power_reference(
                            i, k, {lam: {0: 1}}, p)
                        assert {mu: dict(c.coeffs) for mu, c
                                in got.terms.items()} == want, (p, lam, i, k)


def test_first_approximation_golden_table():
    golden = {
        (3, 2): {(3, 2): {0: 1}, (4, 1): {1: 1}},
        (3, 1, 1): {(3, 1, 1): {0: 1}},
        (2, 2, 1): {(2, 2, 1): {0: 1}, (5,): {1: 1}},
        (2, 1, 1, 1): {(2, 1, 1, 1): {0: 1}, (2, 2, 1): {1: 1}},
        (1, 1, 1, 1, 1): {(1, 1, 1, 1, 1): {0: 1}, (3, 2): {1: 1}},
    }
    for mu, want in golden.items():
        a = first_approximation(mu, 3)
        assert {lam: dict(c.coeffs) for lam, c in a.terms.items()} == want



@pytest.mark.parametrize("p, top", [(3, 9), (5, 12), (7, 12)])
def test_first_approximations_match_vacuum_products(p, top):
    for n in range(top + 1):
        order = restricted_partitions(n, p)
        batch = first_approximations(order, p)
        assert list(batch) == list(order)
        for mu in order:
            want = oracles.first_approximation_reference(mu, p)
            assert {lam: c.coeffs for lam, c in batch[mu].terms.items()} \
                == want, (p, mu)


def test_first_approximations_keep_input_order():
    order = restricted_partitions(8, 3)
    forward = first_approximations(order, 3)
    backward = first_approximations(order[::-1], 3)
    assert list(backward) == list(order[::-1])
    assert backward == forward
    assert list(first_approximations([[2, 1, 0], (1, 1, 1)], 3)) == \
        [(2, 1), (1, 1, 1)]


@pytest.mark.parametrize("p, n, prefixes", [(5, 14, 398), (7, 22, 3756)])
def test_first_approximations_one_divided_power_per_prefix(monkeypatch, p, n,
                                                          prefixes):
    # one call of the divided-power kernel per distinct non-empty
    # (residue, size) prefix, whatever order the partitions come in
    order = restricted_partitions(n, p)
    distinct = set()
    for mu in order:
        steps = oracles.ladder_steps(mu, p)
        distinct.update(steps[:d] for d in range(1, len(steps) + 1))
    assert len(distinct) == prefixes
    calls = []
    real = fock._divided
    monkeypatch.setattr(fock, "_divided",
                        lambda *args: calls.append(1) or real(*args))
    shuffled = random.Random(0).sample(order, len(order))
    for listing in (order, order[::-1], shuffled):
        calls.clear()
        first_approximations(listing, p)
        assert len(calls) == prefixes


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ladder_steps_read_from_the_shape(p):
    for n in range(15):
        for mu in restricted_partitions(n, p):
            ld = ladder_decomposition(mu, p)
            assert fock._steps_of(mu, p) == oracles.ladder_steps(mu, p) \
                == tuple(zip(ld.residues, ld.sizes)), (p, mu)


def test_fock_side_builds_no_ladder_tableau(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Fock side read a ladder tableau")

    assert not hasattr(fock, "ladder_decomposition")
    monkeypatch.setattr("spechtmod.partitions.ladder_decomposition", refuse)
    monkeypatch.setattr(StandardTableau, "__init__", refuse)
    monkeypatch.setattr(StandardTableau, "from_positions",
                        classmethod(refuse))
    table = llt_canonical(12, 5)
    assert len(table.order) == len(restricted_partitions(12, 5))


def test_first_approximations_reject_non_restricted():
    with pytest.raises(ValueError, match="not 3-restricted"):
        first_approximations(((2, 1), (4,)), 3)
    with pytest.raises(ValueError, match="not 3-restricted"):
        first_approximation((4,), 3)


def test_f_action_coefficients_are_monomials():
    # every coefficient of f_i (the reference divided power with k = 1) on a
    # basis vector is 0 or a single power of q with coefficient 1
    from spechtmod.partitions import all_partitions
    for p in (3, 5):
        for i in range(p):
            for lam in all_partitions(4):
                fv = oracles.divided_power_reference(i, 1, {lam: {0: 1}}, p)
                for fc in fv.values():
                    assert list(fc.values()) == [1]


def test_llt_n5_table_is_identity():
    table = llt_canonical(5, 3)
    assert table.order == tuple(sorted(restricted_partitions(5, 3),
                                       key=total_order_key))
    for mu in table.order:
        assert table.A[mu].terms == table.G[mu].terms
    n1 = nmat_at_one(table)
    size = len(table.order)
    assert n1.rows == tuple({i: 1} for i in range(size))
    assert tuple(n1) == tuple(tuple(1 if i == j else 0 for j in range(size))
                              for i in range(size))


def test_nmat_at_one_stores_no_zero_at_q_equals_one():
    # q^2 - 2 + q^-2 is bar-symmetric and nonzero, but 0 at q = 1
    table = llt_canonical(5, 3)
    lam, mu = table.order[0], table.order[3]
    vanishing = LaurentPoly({2: 1, 0: -2, -2: 1})
    nmat = {**table.nmat, (lam, mu): vanishing,
            (lam, table.order[4]): gaussian(3)}
    n1 = nmat_at_one(CanonicalBasisTable(table.p, table.n, table.order,
                                         table.A, table.G, nmat))
    assert n1.rows[0] == {0: 1, 4: 3}
    assert n1[0] == (1, 0, 0, 0, 3) and n1[0][3] == 0


@pytest.mark.parametrize("p, n", [(3, n) for n in range(10)]
                         + [(5, n) for n in range(5, 12)]
                         + [(7, n) for n in range(7, 11)])
def test_llt_matches_linear_algebra_solve(p, n):
    # G and nmat equal those of the global linear solve, which starts from
    # the reference first approximations and has no correction loop; solved
    # in a second linear extension of dominance, it gives them too, so the
    # basis does not depend on the order it is built in
    table = llt_canonical(n, p)
    a_map = {mu: oracles.first_approximation_reference(mu, p)
             for mu in table.order}
    g_map = {mu: {lam: c.coeffs for lam, c in table.G[mu].terms.items()}
             for mu in table.order}
    nmat = {key: c.coeffs for key, c in table.nmat.items()}
    for order in (table.order, oracles.alt_total_order(n, p)):
        assert oracles.llt_solve(a_map, order) == (g_map, nmat), order


@pytest.mark.parametrize("p, n", [(3, n) for n in range(14)]
                         + [(5, n) for n in range(17)])
def test_llt_makes_one_correction_per_transition_entry(monkeypatch, p, n):
    # least dominant first, a correction never dirties a partition already
    # corrected, so each nmat entry is one correction
    correction, calls = fock._bar_symmetric_correction, []

    def counted(c):
        calls.append(c)
        return correction(c)

    monkeypatch.setattr(fock, "_bar_symmetric_correction", counted)
    table = llt_canonical(n, p)
    assert len(calls) == len(table.nmat)


def test_bar_invariance_of_expansion_n_le_9():
    """Every A(mu) is a bar-symmetric combination of canonical basis vectors.

    Bar-invariance of A(mu) holds for the Fock-space involution, which is not
    the termwise q -> q^-1 map on standard-basis coefficients; its computable
    shadow is that every expansion coefficient of A(mu) over the G basis --
    every nmat entry -- is bar-symmetric.
    """
    for n in range(10):
        table = llt_canonical(n, 3)
        for mu in table.order:
            for lam in table.order:
                assert table.nmat_entry(lam, mu).is_bar_symmetric()


def test_standard_basis_coefficients_are_not_termwise_bar_symmetric():
    # pinned counterexample: the golden table itself contains lone powers of
    # q (e.g. the coefficient of (3,) in A((2,1)) at p = 3), so termwise
    # bar-symmetry of standard-basis coefficients is not a real invariant
    a = first_approximation((2, 1), 3)
    assert a.coefficient((3,)) == LaurentPoly({1: 1})
    assert not a.coefficient((3,)).is_bar_symmetric()


def test_llt_triangularity_and_reconstruction():
    for n in range(8):
        table = llt_canonical(n, 3)
        idx = {mu: k for k, mu in enumerate(table.order)}
        for mu in table.order:
            # reconstruction with independent dict arithmetic
            acc = {}
            for lam in table.order:
                poly = dict(table.nmat_entry(lam, mu).coeffs)
                if not poly:
                    continue
                assert idx[lam] <= idx[mu]
                for nu, c in table.G[lam].terms.items():
                    acc[nu] = oracles.l_add(
                        acc.get(nu, {}), oracles.l_mul(poly, dict(c.coeffs)))
            acc = {nu: c for nu, c in acc.items() if c}
            assert acc == {nu: dict(c.coeffs)
                           for nu, c in table.A[mu].terms.items()}


def test_llt_congruence_property():
    for n in range(9):
        table = llt_canonical(n, 3)
        for mu in table.order:
            for lam, coeff in table.G[mu].terms.items():
                if lam == mu:
                    assert coeff == LaurentPoly.one()
                else:
                    assert coeff.min_degree() > 0


def test_weightspace_count_identity():
    # evaluate_at_one(A(mu)_tau) * |ladder group| = |T_{mu,tau}|
    from spechtmod.partitions import all_partitions
    from spechtmod.tableaux import ladder_class_of_shape
    for n in range(1, 9):
        for mu in restricted_partitions(n, 3):
            a = first_approximation(mu, 3)
            group = ladder_decomposition(mu, 3).ladder_group_order()
            for tau in all_partitions(n):
                count = evaluate_at_one(a.coefficient(tau))
                assert count * group == \
                    len(ladder_class_of_shape(mu, tau, 3))


def test_invert_unitriangular():
    m = [[1, 2, 3], [0, 1, 4], [0, 0, 1]]
    inv = invert_unitriangular(SparseRows.from_rows(m))
    prod = [[sum(m[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert inv.rows == ({0: 1, 1: -2, 2: 5}, {1: 1, 2: -4}, {2: 1})
    identity = SparseRows.from_rows([[1, 0], [0, 1]])
    assert tuple(invert_unitriangular(identity)) == ((1, 0), (0, 1))
    assert tuple(invert_unitriangular(SparseRows((), 0))) == ()


@pytest.mark.parametrize("m, message", [
    ([[1, 2], [0, 2]], "matrix is not unitriangular (diagonal != 1)"),
    ([[1, 0, 0], [0, 1, 0], [0, 3, 1]], "matrix is not upper triangular"),
])
def test_invert_unitriangular_rejects(m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        invert_unitriangular(SparseRows.from_rows(m))


def test_invert_unitriangular_checks_rows_in_order():
    # row 1 fails both checks: its diagonal is reported; row 2 is never read
    m = SparseRows.from_rows([[1, 0, 0], [5, 0, 0], [0, 0, 2]])
    with pytest.raises(ValueError, match=re.escape("diagonal != 1")):
        invert_unitriangular(m)
    m = SparseRows.from_rows([[1, 0, 0], [5, 1, 0], [0, 0, 2]])
    with pytest.raises(ValueError, match="not upper triangular"):
        invert_unitriangular(m)


def test_invert_unitriangular_stays_sparse():
    # a dense row or table anywhere would take gigabytes at this size
    size = 50_000
    rows = [{i: 1} for i in range(size)]
    rows[0] = {0: 1, size - 1: -7}
    inv = invert_unitriangular(SparseRows(rows, size))
    assert sum(map(len, inv.rows)) <= size + 1
    assert inv.rows[0] == {0: 1, size - 1: 7} and inv.rows[1] == {1: 1}


@st.composite
def unitriangular_strategy(draw, max_size=12):
    size = draw(st.integers(min_value=0, max_value=max_size))
    cells = [(i, j) for i in range(size) for j in range(i + 1, size)]
    entries = draw(st.dictionaries(
        st.sampled_from(cells), st.integers(min_value=-9, max_value=9),
        max_size=2 * size)) if cells else {}
    return [[1 if i == j else entries.get((i, j), 0) for j in range(size)]
            for i in range(size)]


@given(unitriangular_strategy())
@settings(max_examples=200)
def test_invert_unitriangular_matches_dense_formula(m):
    inv = invert_unitriangular(SparseRows.from_rows(m))
    assert tuple(inv) == tuple(map(tuple,
                                   oracles.dense_unitriangular_inverse(m)))
    assert all(0 not in row.values() and list(row) == sorted(row)
               for row in inv.rows)


def test_inverse_of_nmat_at_one_for_every_small_table():
    for p in (3, 5, 7):
        for n in range(13):
            sparse = nmat_at_one(llt_canonical(n, p))
            n1, inv = tuple(sparse), tuple(invert_unitriangular(sparse))
            size = len(n1)
            assert [[sum(n1[i][k] * inv[k][j] for k in range(size))
                     for j in range(size)] for i in range(size)] == \
                [[1 if i == j else 0 for j in range(size)]
                 for i in range(size)]


@pytest.mark.parametrize("corrupt, message", [
    (lambda nmat, lam, mu: {**nmat, (lam, mu): LaurentPoly({1: 1})},
     "nmat({lam},{mu}) is not bar-invariant: q"),
    (lambda nmat, lam, mu: {**nmat, (mu, mu): LaurentPoly.one()},
     "nmat({mu},{mu}) breaks unitriangularity"),
    (lambda nmat, lam, mu: {**nmat, (mu, lam): nmat[(lam, mu)]},
     "nmat({mu},{lam}) breaks unitriangularity"),
    (lambda nmat, lam, mu: {**nmat, (lam, mu): nmat[(lam, mu)] + 1},
     "A({mu}) != sum nmat . G reconstruction"),
], ids=["not-bar-symmetric", "diagonal-key", "non-dominating-key",
        "entry-plus-one"])
def test_table_invariants_reject_corrupted_tables(corrupt, message):
    table = llt_canonical(8, 3)
    lam, mu = next(iter(table.nmat))
    bad = CanonicalBasisTable(table.p, table.n, table.order, table.A, table.G,
                              corrupt(table.nmat, lam, mu))
    with pytest.raises(AssertionError,
                       match=re.escape(message.format(lam=lam, mu=mu))):
        _assert_table_invariants(bad)


def test_nmat_frozen_small_p3():
    # the first nontrivial correction for p = 3 appears at n = 7
    for n in range(7):
        table = llt_canonical(n, 3)
        for mu in table.order:
            for lam in table.order:
                if lam != mu:
                    assert not table.nmat_entry(lam, mu)
    nontrivial = {}
    table = llt_canonical(8, 3)
    for mu in table.order:
        for lam in table.order:
            if lam != mu and table.nmat_entry(lam, mu):
                nontrivial[(lam, mu)] = dict(table.nmat_entry(lam, mu).coeffs)
    assert nontrivial == NMAT_OFFDIAG_83
    assert {(lam, mu): dict(llt_canonical(7, 3).nmat_entry(lam, mu).coeffs)
            for (lam, mu) in [((4, 2, 1), (3, 2, 1, 1))]} == \
        {((4, 2, 1), (3, 2, 1, 1)): {0: 1}}


# frozen from the independent straight-line solver (llt_solve), which the
# package output was checked against entry by entry
NMAT_OFFDIAG_83 = {
    ((2, 2, 2, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)): {0: 1},
    ((3, 2, 2, 1), (2, 2, 2, 1, 1)): {0: 1},
    ((4, 2, 2), (3, 2, 1, 1, 1)): {0: 1},
    ((4, 3, 1), (2, 2, 2, 2)): {0: 1},
}
