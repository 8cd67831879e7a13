import math
import random
from fractions import Fraction

import pytest

import oracles
from spechtmod.partitions import all_partitions
from spechtmod.seminormal import (
    SeminormalVector,
    class_project,
    gamma,
    inner_product,
    jm_action,
    norm,
    phi_action,
    seminormal_step,
    sigma_action,
    step_factors,
)
from spechtmod.tableaux import (
    StandardTableau,
    from_rows,
    is_standard_rows,
    residue_sequence,
    row_reading_tableau,
    standard_tableaux,
)


def unit(rows):
    return SeminormalVector.unit(StandardTableau(rows))


def random_vector(lam, rng):
    coeffs = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for t in standard_tableaux(lam)}
    v = SeminormalVector(lam, {})
    for t, c in coeffs.items():
        v = v + SeminormalVector.unit(t).scale(c)
    return v


# ----------------------------------------------------------------- gamma

def test_gamma_goldens():
    assert gamma(StandardTableau(((1,), (2,), (3,)))) == 1
    assert gamma(StandardTableau(((1, 2), (3, 5), (4,)))) == 3
    assert gamma(row_reading_tableau((3,))) == 6


def test_gamma_top_is_product_of_factorials():
    for n in range(1, 7):
        for lam in all_partitions(n):
            expected = math.prod(math.factorial(a) for a in lam)
            assert gamma(row_reading_tableau(lam)) == expected


def test_gamma_matches_tabloid_model_oracle():
    for n in range(1, 6):
        for lam in all_partitions(n):
            norms = oracles.seminormal_norms_oracle(lam)
            for t in standard_tableaux(lam):
                assert gamma(t) == norms[t.rows]


def test_gamma_matches_truncation_reference_n_le_10():
    for lam in shapes_up_to(10):
        for t in standard_tableaux(lam):
            assert gamma(t) == oracles.gamma_by_truncations(t.rows)


def test_gamma_worked_example_second_norm_is_six():
    """The 1x1 Gram entry for the second n = 5 verification step.

    The source display says "3 = 0 mod 3" here, but its own hook-quotient
    norm formula gives 1 * 3/2 * 2 * 2 = 6 for this tableau; the recursion
    and the independent tabloid-model oracle both confirm 6.  The mod-3
    conclusion (rank 0) is unaffected since 6 = 0 mod 3 as well.
    Acceptance criterion 2 (tests/test_acceptance.py) asserts the same value.
    """
    s = StandardTableau(((1, 3, 5), (2, 4)))
    assert gamma(s) == 6
    assert oracles.seminormal_norms_oracle((3, 2))[s.rows] == 6


# ---------------------------------------------------------------- actions

def test_sigma_goldens():
    assert sigma_action(2, unit(((1, 2),))).coeffs == \
        {StandardTableau(((1, 2),)): Fraction(1)}
    assert sigma_action(2, unit(((1,), (2,)))).coeffs == \
        {StandardTableau(((1,), (2,))): Fraction(-1)}
    v = sigma_action(3, unit(((1, 2), (3,))))
    assert v.coeffs == {StandardTableau(((1, 2), (3,))): Fraction(-1, 2),
                        StandardTableau(((1, 3), (2,))): Fraction(1)}


def test_jm_goldens():
    assert jm_action(1, unit(((1, 2), (3,)))).coeffs == {}
    assert jm_action(2, unit(((1, 2),))).coeffs == \
        {StandardTableau(((1, 2),)): Fraction(1)}
    assert jm_action(3, unit(((1, 2), (3,)))).coeffs == \
        {StandardTableau(((1, 2), (3,))): Fraction(-1)}


def test_phi_goldens():
    assert phi_action(2, unit(((1, 2),)), 3).coeffs == {}
    assert phi_action(2, unit(((1,), (2,))), 3).coeffs == {}
    assert phi_action(3, unit(((1, 2), (3,))), 5).coeffs == \
        {StandardTableau(((1, 3), (2,))): Fraction(1)}
    v = phi_action(4, unit(((1, 2, 3), (4,))), 3)
    assert v.coeffs == {StandardTableau(((1, 2, 3), (4,))): Fraction(2, 3),
                        StandardTableau(((1, 2, 4), (3,))): Fraction(1)}


def test_inner_product_goldens():
    assert inner_product(unit(((1, 2),)), unit(((1, 2),))) == 2
    s = unit(((1, 3), (2,)))
    t = unit(((1, 2), (3,)))
    assert inner_product(s, t) == 0
    with pytest.raises(ValueError):
        inner_product(unit(((1, 2),)), unit(((1,), (2,))))


def test_class_project_goldens():
    t = unit(((1, 2), (3,)))
    rs = residue_sequence(StandardTableau(((1, 2), (3,))), 3)
    assert class_project(rs, t).coeffs == t.coeffs
    other = residue_sequence(StandardTableau(((1, 3), (2,))), 5)
    assert class_project(other, t).coeffs == {}


def test_class_projections_partition_identity():
    rng = random.Random(7)
    v = random_vector((3, 2), rng)
    total = SeminormalVector((3, 2), {})
    seqs = {residue_sequence(t, 3) for t in standard_tableaux((3, 2))}
    for rs in seqs:
        total = total + class_project(rs, v)
    assert total.coeffs == v.coeffs


# ------------------------------------------------------------- invariants

def shapes_up_to(max_n):
    for n in range(1, max_n + 1):
        yield from all_partitions(n)


def test_integer_form_is_canonical_n_le_6():
    """nums over den is reduced with den > 0, zero is ({}, 1), the rational
    view round-trips, and + - scale agree with Fraction arithmetic on the
    views."""
    rng = random.Random(20261019)
    zero = SeminormalVector((2, 1), {})
    assert (zero.nums, zero.den) == ({}, 1)
    assert (SeminormalVector((2, 1)) - zero).nums == {}
    for lam in shapes_up_to(6):
        tabs = standard_tableaux(lam)
        for _ in range(4):
            u, v = (SeminormalVector(lam, {
                t: Fraction(rng.randint(-6, 6), rng.randint(1, 12))
                for t in rng.sample(tabs, rng.randint(0, len(tabs)))})
                for _ in range(2))
            for w in (u, v, u + v, u - v, u - u, v.scale(Fraction(-3, 2))):
                assert w.den > 0
                assert math.gcd(w.den, *w.nums.values()) == 1
                assert 0 not in w.nums.values()
                assert SeminormalVector(w.shape, w.coeffs) == w
                if not w:
                    assert (w.nums, w.den) == ({}, 1)
            assert (u == v) == (u.coeffs == v.coeffs)
            assert u - u == SeminormalVector(lam)
            for got, op in ((u + v, lambda a, b: a + b),
                            (u - v, lambda a, b: a - b)):
                want = {t: op(u.coefficient(t), v.coefficient(t))
                        for t in tabs}
                assert got.coeffs == {t: c for t, c in want.items() if c}
            assert v.scale(Fraction(-3, 2)).coeffs == {
                t: c * Fraction(-3, 2) for t, c in v.coeffs.items()}


def test_coxeter_relations_n_le_6():
    for lam in shapes_up_to(6):
        n = sum(lam)
        basis = [SeminormalVector.unit(t) for t in standard_tableaux(lam)]
        for v in basis:
            for i in range(2, n + 1):
                assert sigma_action(i, sigma_action(i, v)).coeffs == v.coeffs
            for i in range(2, n):
                lhs = sigma_action(
                    i, sigma_action(i + 1, sigma_action(i, v)))
                rhs = sigma_action(
                    i + 1, sigma_action(i, sigma_action(i + 1, v)))
                assert lhs.coeffs == rhs.coeffs
            for i in range(2, n + 1):
                for j in range(i + 2, n + 1):
                    lhs = sigma_action(i, sigma_action(j, v))
                    rhs = sigma_action(j, sigma_action(i, v))
                    assert lhs.coeffs == rhs.coeffs


def test_form_invariance_100_random_pairs_per_shape():
    rng = random.Random(20260822)
    for lam in shapes_up_to(6):
        n = sum(lam)
        for _ in range(100):
            u = random_vector(lam, rng)
            v = random_vector(lam, rng)
            base = inner_product(u, v)
            for i in range(2, n + 1):
                assert inner_product(sigma_action(i, u),
                                     sigma_action(i, v)) == base


def test_jm_compatibility_n_le_6():
    for lam in shapes_up_to(6):
        n = sum(lam)
        basis = [SeminormalVector.unit(t) for t in standard_tableaux(lam)]
        for v in basis:
            for i in range(2, n + 1):
                for k in range(1, n + 1):
                    if k in (i - 1, i):
                        continue
                    assert sigma_action(i, jm_action(k, v)).coeffs == \
                        jm_action(k, sigma_action(i, v)).coeffs
                both = jm_action(i - 1, v) + jm_action(i, v)
                assert sigma_action(i, both).coeffs == \
                    (jm_action(i - 1, sigma_action(i, v))
                     + jm_action(i, sigma_action(i, v))).coeffs


def test_jm_eigenvalues_are_contents():
    for lam in shapes_up_to(6):
        for t in standard_tableaux(lam):
            v = SeminormalVector.unit(t)
            for k in range(1, t.n + 1):
                img = jm_action(k, v)
                want = {t: Fraction(t.content(k))} if t.content(k) else {}
                assert img.coeffs == want


def test_intertwining_p3_n_le_6():
    rng = random.Random(5)
    for lam in shapes_up_to(6):
        n = sum(lam)
        v = random_vector(lam, rng)
        seqs = {residue_sequence(t, 3) for t in standard_tableaux(lam)}
        for rs in seqs:
            proj = class_project(rs, v)
            for i in range(2, n + 1):
                lhs = phi_action(i, proj, 3)
                rhs = class_project(rs.swap(i), phi_action(i, v, 3))
                assert lhs.coeffs == rhs.coeffs


def test_phi_is_sigma_plus_diagonal_n_le_7():
    # phi_i = sigma_i + 1/h on regular terms; a singular term (p | h) keeps
    # (h-1)/h = -1/h + 1 of xi_s instead
    for p in (3, 5, 7):
        for lam in shapes_up_to(7):
            for s in standard_tableaux(lam):
                v = SeminormalVector.unit(s)
                for i in range(2, s.n + 1):
                    h = s.content(i - 1) - s.content(i)
                    d = 1 if h % p == 0 else Fraction(1, h)
                    assert phi_action(i, v, p) == \
                        sigma_action(i, v) + v.scale(d)


def test_phi_kills_exactly_h_pm1():
    for lam in shapes_up_to(5):
        for t in standard_tableaux(lam):
            for i in range(2, t.n + 1):
                h = t.content(i - 1) - t.content(i)
                img = phi_action(i, SeminormalVector.unit(t), 3)
                assert (img.coeffs == {}) == (abs(h) == 1)


def test_sigma_matches_tabloid_model():
    # cross-check the four-case action against the sign-twisted conjugate
    # tabloid model via the Gram-matrix transport of structure
    for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]:
        m, gram_model, basis, model = oracles.gram_scale_pair(lam)
        scale = Fraction(math.prod(math.factorial(a) for a in lam)) / m
        fillings = oracles.standard_fillings(lam)
        # package-side x-basis through word chains of sigma_action
        from spechtmod.tableaux import d_reduced_word
        xs = []
        for rows in fillings:
            v = SeminormalVector.unit(row_reading_tableau(lam))
            for letter in reversed(d_reduced_word(
                    StandardTableau(rows)).word):
                v = sigma_action(letter, v)
            xs.append(v)
        for a, u in enumerate(xs):
            for b, w in enumerate(xs):
                assert inner_product(u, w) == scale * gram_model[a][b]


def test_integer_step_matches_fraction_reference_n_le_7():
    """sigma_action and phi_action (integer numerators over a common
    denominator) agree exactly with the former Fraction step on random
    vectors of every shape, singular (p | h) and h < -1 steps included."""
    rng = random.Random(20261018)
    seen = {"singular": 0, "h < -1": 0}
    for p in (3, 5):
        for lam in shapes_up_to(7):
            tabs = standard_tableaux(lam)
            for _ in range(3):
                support = rng.sample(tabs, rng.randint(1, len(tabs)))
                v = SeminormalVector(lam, {
                    t: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for t in support})
                rows_of = {t.rows: c for t, c in v.coeffs.items()}
                for i in range(2, sum(lam) + 1):
                    for t in v.coeffs:
                        h = t.content(i - 1) - t.content(i)
                        seen["singular"] += h % p == 0
                        seen["h < -1"] += h < -1
                    for got, ref in (
                            (sigma_action(i, v),
                             oracles.seminormal_step_reference(i, rows_of)),
                            (phi_action(i, v, p),
                             oracles.seminormal_step_reference(i, rows_of,
                                                               p))):
                        assert got.shape == lam
                        assert {t.rows: c for t, c in got.coeffs.items()} \
                            == ref
    assert all(seen.values())


def test_step_swaps_to_exactly_the_standard_fillings_n_le_8():
    """The step's off-diagonal term goes to sigma_i s exactly when swapping
    i-1 and i in s leaves a standard filling, which it then is; e.g. in
    ((1, 2), (3, 4)) entries 2, 3 swap and entries 1, 2 do not."""
    t = StandardTableau(((1, 2), (3, 4)))
    out, _ = seminormal_step(3, {t.sort_key(): 1})
    assert [StandardTableau.from_positions(s).rows for s in out] == \
        [((1, 2), (3, 4)), ((1, 3), (2, 4))]
    assert list(seminormal_step(2, {t.sort_key(): 1})[0]) == [t.sort_key()]
    for lam in shapes_up_to(8):
        for t in standard_tableaux(lam):
            for i in range(2, t.n + 1):
                rows = tuple(tuple(i - 1 if e == i else i if e == i - 1
                                   else e for e in row) for row in t.rows)
                out, _ = seminormal_step(i, {t.sort_key(): 1})
                moved = [StandardTableau.from_positions(s)
                         for s in out if s != t.sort_key()]
                assert moved == ([from_rows(rows)] if is_standard_rows(rows)
                                 else [])


def test_step_carries_norms_n_le_7():
    """The norm ratio of ``step_factors`` carries the norm of s to that of
    every sigma_i s a step reaches, equal to ``norm`` computed afresh, for
    sigma_i and for phi_i."""
    carried = 0
    for p in (None, 3, 5):
        for lam in shapes_up_to(7):
            for t in standard_tableaux(lam):
                s = t.sort_key()
                for i in range(2, t.n + 1):
                    out, _ = seminormal_step(i, {s: 1}, p)
                    ratio = step_factors(s[i - 2][1] - s[i - 2][0]
                                         - s[i - 1][1] + s[i - 1][0], p)[2]
                    for u in out.keys() - {s}:
                        assert Fraction(*norm(u)) == \
                            Fraction(*norm(s)) * Fraction(*ratio)
                        carried += 1
    assert carried == 3 * 936     # the standard swaps sigma_i s, n <= 7


def test_step_factors_follow_the_rule():
    """d(h), e(h) and the norm ratio of one step, as the module docstring
    states them, each over a positive denominator, for sigma_i and phi_i."""
    def value(pair):
        assert pair is None or pair[1] > 0
        return Fraction(*pair) if pair else 0
    for p in (None, 2, 3, 5):
        for h in range(-12, 13):
            if h == 0:
                continue
            diagonal, swap, ratio = map(value, step_factors(h, p))
            if p is None:
                assert diagonal == Fraction(-1, h)
            else:
                assert diagonal == (Fraction(h - 1, h) if h % p == 0 else 0)
            hh = h * h
            assert swap == (0 if abs(h) == 1 else 1 if h > 1
                            else Fraction(hh - 1, hh))
            assert ratio == (0 if abs(h) == 1 else Fraction(hh - 1, hh)
                             if h > 1 else Fraction(hh, hh - 1))
