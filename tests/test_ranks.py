import itertools
import math
import re
from fractions import Fraction

import pytest

import oracles
from spechtmod import ranks, tableaux
from spechtmod.fock import evaluate_at_one, first_approximation
from spechtmod.partitions import (all_partitions, is_p_restricted,
                                  ladder_decomposition, restricted_partitions,
                                  validate_ladder_lengths)
from spechtmod.ranks import (
    GramReport,
    gram_matrix,
    gram_report,
    independent_subset,
    ladder_symmetrize,
    modp_rank,
    phi_chain_basis,
    weight_space_dims,
)
from spechtmod.seminormal import (SeminormalVector, act_by_word,
                                  inner_product, norm)
from spechtmod.tableaux import (StandardTableau, canonical_word,
                                d_reduced_word,
                                ladder_class_of_shape, ladder_orbit_positions,
                                reduced_word,
                                row_reading_tableau)


def q_rank(mat):
    """Rank over Q by fraction-exact elimination."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_worked_example_reports():
    rep = gram_report((2, 1, 1, 1), (2, 2, 1), 3)
    assert rep.basis_size_before_symmetrization == 1
    assert rep.basis_size == 1
    assert rep.gram == ((Fraction(3),),)
    assert rep.gram_mod_p == ((0,),)
    assert rep.rank == 0
    rep = gram_report((1, 1, 1, 1, 1), (3, 2), 3)
    assert rep.gram == ((Fraction(6),),)
    assert rep.rank == 0


def test_empty_class_yields_empty_report():
    # T_{mu,tau} empty: no tableau of shape (1^5) in the ladder class of (3,2)
    rep = gram_report((3, 2), (1, 1, 1, 1, 1), 3)
    assert rep.basis_size == 0
    assert rep.gram == ()
    assert rep.rank == 0


def test_rejects_invalid_mu():
    with pytest.raises(ValueError):
        gram_report((4, 1), (3, 2), 3)       # not 3-restricted
    with pytest.raises(ValueError):
        gram_report((5, 3, 1), (5, 3, 1), 3)  # ladder of length >= 3
    with pytest.raises(ValueError):
        gram_report((3, 2), (4, 1, 1), 3)     # size mismatch


def test_dimension_match_p3_n_le_8():
    for n in range(1, 9):
        for mu in restricted_partitions(n, 3):
            a = first_approximation(mu, 3)
            for tau in all_partitions(n):
                rep = gram_report(mu, tau, 3)
                assert rep.basis_size == evaluate_at_one(a.coefficient(tau))


def test_pre_symmetrization_basis_p3_n_le_7():
    for n in range(1, 8):
        for mu in restricted_partitions(n, 3):
            for tau in all_partitions(n):
                members = ladder_class_of_shape(mu, tau, 3)
                basis = phi_chain_basis(mu, tau, 3)
                assert len(basis) == len(members)
                if basis:
                    gram = gram_matrix(basis)
                    assert q_rank(gram) == len(basis)


def test_gram_matrix_is_pairwise_inner_products_n_le_7():
    for p in (3, 5):
        for n in range(1, 8):
            for mu in restricted_partitions(n, p):
                for tau in all_partitions(n):
                    basis = gram_report(mu, tau, p).basis
                    assert gram_matrix(basis) == tuple(
                        tuple(inner_product(u, v) for v in basis)
                        for u in basis)


def test_p_integrality_n_le_8():
    for p in (3, 5):
        for n in range(1, 9):
            for mu in restricted_partitions(n, p):
                for tau in all_partitions(n):
                    rep = gram_report(mu, tau, p)
                    for row in rep.gram:
                        for entry in row:
                            assert entry.denominator % p != 0


def test_reduced_word_invariance_p3_n_le_7():
    for n in range(1, 8):
        for mu in restricted_partitions(n, 3):
            for tau in all_partitions(n):
                default = gram_report(mu, tau, 3)
                reverse = gram_report(mu, tau, 3, word_strategy="reverse")
                assert default.rank == reverse.rank
                assert default.basis_size == reverse.basis_size


def test_diagonal_dim_is_one_p3_n_le_8():
    for n in range(1, 9):
        for mu in restricted_partitions(n, 3):
            assert gram_report(mu, mu, 3).rank == 1


def test_fitting_oracle_agreement_p3_n_le_6():
    """Full-pipeline cross-check against the independent Fitting oracle.

    The oracle computes dim of the mu-residue generalized eigenspace of the
    Jucys-Murphy family on the mod-p Specht module minus its radical part,
    entirely inside the tabloid model -- no seminormal data, no phi-chains,
    no ladder symmetrization.
    """
    for n in range(1, 7):
        for tau in restricted_partitions(n, 3):
            for mu in restricted_partitions(n, 3):
                assert gram_report(mu, tau, 3).rank == \
                    oracles.dim_e_tilde_D_oracle(mu, tau, 3)


def test_gram_report_internal_consistency():
    for mu in restricted_partitions(6, 3):
        for tau in all_partitions(6):
            rep = gram_report(mu, tau, 3)
            size = rep.basis_size
            assert len(rep.gram) == size
            assert all(len(row) == size for row in rep.gram)
            # symmetry and mod-p reduction
            for a in range(size):
                for b in range(size):
                    assert rep.gram[a][b] == rep.gram[b][a]
                    den = rep.gram[a][b].denominator
                    num = rep.gram[a][b].numerator
                    assert rep.gram_mod_p[a][b] == \
                        num * pow(den, -1, 3) % 3
            assert 0 <= rep.rank <= size


def test_modp_rank_rejects_bad_denominator():
    with pytest.raises(ArithmeticError):
        modp_rank(((Fraction(1, 3),),), 3)


def test_modp_rank_small_cases():
    gram = ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2)))
    reduced, rank = modp_rank(gram, 3)
    assert reduced == ((2, 2), (2, 2))
    assert rank == 1
    assert modp_rank(((Fraction(3),),), 3)[1] == 0
    assert modp_rank((), 3) == ((), 0)


def test_symmetrization_shrinks_to_report_size():
    # mu with a nontrivial ladder group: symmetrized family drops rank
    for mu, tau in [((3, 2), (4, 1)), ((3, 1, 1), (4, 1))]:
        basis = phi_chain_basis(mu, tau, 3)
        sym = ladder_symmetrize(mu, basis, 3)
        a = first_approximation(mu, 3)
        assert len(sym) == evaluate_at_one(a.coefficient(tau))
        assert len(sym) <= len(basis)


def reference_symmetrize(v, intervals, n):
    """The ladder-group average as a sum over all m! words per interval."""
    for a, b in intervals:
        acc = SeminormalVector(v.shape)
        for perm in itertools.permutations(range(a, b + 1)):
            one_line = tuple(range(1, a)) + perm + tuple(range(b + 1, n + 1))
            acc = acc + act_by_word(reduced_word(one_line), v)
        v = acc.scale(Fraction(1, math.factorial(b - a + 1)))
    return v


def orbit_representative(s, intervals):
    """The member of the ladder-group orbit of s whose interval entries go
    down the rows in increasing order."""
    rows = [list(row) for row in s.rows]
    for a, b in intervals:
        nodes = sorted(s.position_of(k) for k in range(a, b + 1))
        for k, (i, j) in zip(range(a, b + 1), nodes):
            rows[i - 1][j - 1] = k
    return StandardTableau(rows)


def test_orbit_chains_match_full_family_reference():
    """One chain per orbit with coset-sum symmetrization gives exactly the
    basis that a chain per member, the m!-word average and an independent
    subset give; every member's image is a nonzero multiple of its orbit
    representative's."""
    for p, top in ((3, 8), (5, 10)):
        for n in range(1, top + 1):
            for mu in restricted_partitions(n, p):
                ld = ladder_decomposition(mu, p)
                intervals = ld.ladder_group_intervals
                for tau in all_partitions(n):
                    members = ladder_class_of_shape(mu, tau, p)
                    full = [reference_symmetrize(v, intervals, n)
                            for v in phi_chain_basis(mu, tau, p)]
                    rep = gram_report(mu, tau, p)
                    assert rep.basis == independent_subset(full)
                    assert rep.basis_size * ld.ladder_group_order() \
                        == len(members)
                    representatives = ladder_orbit_positions(
                        mu, p, tau).get(tau, ())
                    assert len(representatives) * ld.ladder_group_order() \
                        == len(members)
                    image = dict(zip(members, full))
                    for s in members:
                        u = image[s]
                        v = image[orbit_representative(s, intervals)]
                        t = v.support()[0]
                        ratio = u.coefficient(t) / v.coefficient(t)
                        assert ratio != 0 and u == v.scale(ratio)


def test_chains_match_act_by_word_reference():
    """Walking each term of a chain on its own position list gives the
    vector that ``act_by_word`` gives for the word of d(t), for every member
    t of every T_{mu,tau} and both word strategies: a step with |h| = 1
    ends a walk at 0, and walks that meet are summed."""
    chains = branched = 0
    for p, top in ((3, 8), (5, 10)):
        for n in range(1, top + 1):
            for mu in restricted_partitions(n, p):
                for tau in ladder_orbit_positions(mu, p):
                    members = ladder_class_of_shape(mu, tau, p)
                    start = SeminormalVector.unit(row_reading_tableau(tau))
                    for strategy in ("canonical", "reverse"):
                        want = tuple(act_by_word(
                            d_reduced_word(t, strategy).word, start, p)
                            for t in members)
                        assert phi_chain_basis(mu, tau, p, strategy) == want
                        chains += len(want)
                        branched += sum(len(v.nums) > 1 for v in want)
    assert (chains, branched) == (1032, 357)


def symmetrized_unit(s, intervals):
    """e xi_s by ``reference_symmetrize``, for the position tuple s."""
    return reference_symmetrize(
        SeminormalVector.unit(StandardTableau.from_positions(s)), intervals,
        len(s))


def orbit_norm(r, intervals):
    """<e xi_r, e xi_r> by ``inner_product``, as a lowest-terms pair."""
    v = symmetrized_unit(r, intervals)
    value = inner_product(v, v)
    return value.numerator, value.denominator


def test_carried_norms_equal_norm():
    """Every orbit norm the folds put in ``norms``, carried along the chains
    and onto the orbit representative r, equals <e xi_r, e xi_r> computed
    afresh from the m!-word average, as a lowest-terms pair."""
    positions = 0
    for p, top in ((3, 8), (5, 10)):
        for n in range(1, top + 1):
            rules = ranks._step_rules(n, p)
            for mu in restricted_partitions(n, p):
                ld = ladder_decomposition(mu, p)
                intervals = ld.ladder_group_intervals
                a = first_approximation(mu, p)
                for tau, reps in ladder_orbit_positions(mu, p).items():
                    norms = {}
                    ranks._basis(ld, tau, ranks._row_reading(tau), rules,
                                 reps, evaluate_at_one(a.coefficient(tau)),
                                 norms)
                    for s, value in norms.items():
                        assert value == orbit_norm(s, intervals), (mu, tau, s)
                    positions += len(norms)
    assert positions == 342


def test_folded_chains_are_unitriangular():
    """Every folded chain of an orbit representative s, for every shape and
    both word strategies, has s as its largest key: the chain basis is
    unitriangular in sort_key order, which ``_basis`` checks instead of
    eliminating."""
    folds = 0
    for p, top in ((3, 8), (5, 12)):
        for n in range(1, top + 1):
            rules = ranks._step_rules(n, p)
            for mu in restricted_partitions(n, p):
                slices = [(a - 1, b) for a, b in ladder_decomposition(
                    mu, p).ladder_group_intervals if b > a]
                for tau, reps in ladder_orbit_positions(mu, p).items():
                    start = ranks._row_reading(tau)
                    for strategy in ("canonical", "reverse"):
                        word = ranks._word_of(strategy)
                        for s in reps:
                            nums, _ = ranks._fold(
                                ranks._walk(word(s), start, rules), slices,
                                {})
                            assert max(nums) == s, (mu, tau, s, strategy)
                            folds += 1
    assert folds == 1246


def fold_cases():
    """(p, mu): every valid mu at p=3 n<=8, p=5 n<=10 and p=7 n<=10, where
    ladder intervals have at most 2 entries, and (9,5,1) at p=5, the
    smallest mu with an interval of 3 there."""
    for p, top in ((3, 8), (5, 10), (7, 10)):
        for n in range(1, top + 1):
            for mu in restricted_partitions(n, p):
                if validate_ladder_lengths(mu, p):
                    yield p, mu
    yield 5, (9, 5, 1)


def test_fold_onto_orbit_representatives():
    """For every end s of every chain the kernel walks, and for every member
    s of every T_{mu,tau}, the fold gives e xi_s = c(s) e xi_r for its orbit
    representative r, checked against the m!-word average, and the orbit
    norm <e xi_r, e xi_r> (by ``inner_product``), starting from the norm of
    s.  Chain ends are seldom off their representative (none here; 3 of
    14,796 over all mu at p=5 n=22), so the members test c(s) != 1."""
    ends, moved, longest = 0, 0, set()
    for p, mu in fold_cases():
        ld = ladder_decomposition(mu, p)
        intervals = ld.ladder_group_intervals
        slices = [(a - 1, b) for a, b in intervals if b > a]
        rules = ranks._step_rules(sum(mu), p)
        images = {}
        for tau, reps in ladder_orbit_positions(mu, p).items():
            start = ranks._row_reading(tau)
            reached = [tuple(pos) for rep in reps for pos, *_ in
                       ranks._walk(canonical_word(rep), start, rules)]
            members = [t.sort_key() for t in ladder_class_of_shape(mu, tau, p)]
            for s in reached + members:
                norms = {}
                nums, den = ranks._fold([(list(s), 1, 1, *norm(s))], slices,
                                        norms)
                (r, c), = nums.items()
                assert r in reps and norms == {r: orbit_norm(r, intervals)}, \
                    (mu, s)
                for u in (r, s):
                    if u not in images:
                        images[u] = symmetrized_unit(u, intervals)
                assert images[s] == images[r].scale(Fraction(c, den)), (mu, s)
                moved += s != r
            ends += len(reached)
            longest.add(max(ld.sizes))
    assert longest == {1, 2, 3}
    assert (ends, moved) == (521, 281)


@pytest.mark.parametrize("mu, tau, size, entry", [
    ((3, 2), (3, 2), 1, "4/9"),
    ((3, 2, 1, 1), (4, 2, 1), 2, "5/6"),
])
def test_non_p_integral_entry_raises(monkeypatch, mu, tau, size, entry):
    """A basis bug that puts p in the denominator of a Gram entry raises
    ArithmeticError, whether the first shape visited has one vector or
    more.  Here every symmetrized vector is divided by p."""
    p = 3
    counts = counts_at_one(mu, p)
    assert tau == max(t for t, c in counts.items()
                      if c and is_p_restricted(t, p))
    assert counts[tau] == size
    fold = ranks._fold

    def fold_over_p(ends, slices, norms):
        nums, den = fold(ends, slices, norms)
        return nums, den * p
    monkeypatch.setattr(ranks, "_fold", fold_over_p)
    # the error names the pair, ahead of the entry
    for run in (lambda: weight_space_dims(mu, p, counts),
                lambda: gram_report(mu, tau, p)):
        with pytest.raises(ArithmeticError,
                           match=f"entry {entry} is not 3-integral") as err:
            run()
        assert f"mu={mu}" in str(err.value)
        assert f"tau={tau}" in str(err.value)


def test_weight_space_dims_checks_the_cap_before_any_ladder_data(
        monkeypatch):
    def no_ladders(lam, p):
        raise AssertionError("ladder data built before the class cap")

    for module in ("partitions", "ranks", "tableaux"):
        monkeypatch.setattr(f"spechtmod.{module}.ladder_decomposition",
                            no_ladders)
    with pytest.raises(ValueError, match=re.escape(
            "class enumeration with n=41 > 40 needs allow_large=True "
            "(--allow-large)")):
        weight_space_dims((1,) * 41, 3, {})


def counts_at_one(mu, p):
    """tau -> the coefficient of tau in A(mu) at q = 1."""
    return {tau: evaluate_at_one(c)
            for tau, c in first_approximation(mu, p).terms.items()}


def test_weight_space_dims_match_per_pair_ranks():
    """One class enumeration per mu gives the nonzero per-pair ranks, in
    order."""
    for p, top in ((3, 9), (5, 11)):
        for n in range(1, top + 1):
            taus = restricted_partitions(n, p)
            for mu in taus:
                if not validate_ladder_lengths(mu, p):
                    continue
                dims = weight_space_dims(mu, p, counts_at_one(mu, p))
                ranks = {tau: gram_report(mu, tau, p).rank for tau in taus}
                want = {tau: dim for tau, dim in ranks.items() if dim}
                assert dims == want and list(dims) == list(want)


def test_weight_space_dims_checks_empty_shapes():
    """A shape with no class members still gets the weight-space count
    cross-check: a nonzero Fock-side count there is an error naming it."""
    mu, tau, p = (3, 2), (1, 1, 1, 1, 1), 3
    assert tau not in ladder_orbit_positions(mu, p)
    counts = counts_at_one(mu, p)
    assert tau not in counts
    with pytest.raises(AssertionError) as excinfo:
        weight_space_dims(mu, p, {**counts, tau: 1})
    message = str(excinfo.value)
    assert f"mu={mu}" in message and f"tau={tau}" in message
    assert "size 0" in message and "expects 1" in message


@pytest.mark.parametrize("mismatch, empty, first", [
    ((2, 2, 1), (1, 1, 1, 1, 1), (2, 2, 1)),
    ((2, 1, 1, 1), (3, 1, 1), (3, 1, 1)),
])
def test_weight_space_dims_names_the_first_offending_shape(mismatch, empty,
                                                           first):
    """Of two offending shapes, a representative-shape count mismatch and a
    nonzero count on a shape without representatives, the error names the
    one first in restricted_partitions order; a nonzero count on a shape
    that is not restricted is not checked."""
    mu, p = (2, 1, 1, 1), 3
    representatives = ladder_orbit_positions(mu, p)
    assert representatives.get(mismatch) and empty not in representatives
    counts = counts_at_one(mu, p)
    bad = {**counts, mismatch: counts.get(mismatch, 0) + 1, empty: 1,
           (5,): 1}
    assert weight_space_dims(mu, p, {**counts, (5,): 1}) == \
        weight_space_dims(mu, p, counts)
    with pytest.raises(AssertionError) as excinfo:
        weight_space_dims(mu, p, bad)
    assert f"mu={mu}, tau={first} has" in str(excinfo.value)


def test_weight_space_dims_reads_only_restricted_shapes(monkeypatch):
    """The representatives of a shape that is not p-restricted are listed by
    the walk but never read, not even to be sorted."""
    fill, read = tableaux._fill, []

    class Watched(list):
        def __iter__(self):
            read.append(self.shape)
            return super().__iter__()

        def sort(self, *args, **kwargs):
            read.append(self.shape)
            super().sort(*args, **kwargs)

    def watched(*args):
        out = fill(*args)
        for shape, seqs in out.items():
            out[shape] = Watched(seqs)
            out[shape].shape = shape
        return out

    monkeypatch.setattr(tableaux, "_fill", watched)
    for p, n in ((3, 8), (5, 10)):
        for mu in restricted_partitions(n, p):
            read.clear()
            dims = weight_space_dims(mu, p, counts_at_one(mu, p))
            assert all(is_p_restricted(tau, p) for tau in read), mu
            assert set(dims) <= set(read), mu


def test_weight_space_dims_rejects_bad_input():
    with pytest.raises(ValueError):
        weight_space_dims((4, 1), 3, {})    # not 3-restricted


def test_phi_chain_basis_reads_the_ladders_once(monkeypatch):
    # mu is checked and its class walked from one ladder read
    mu, tau = (3, 2, 1, 1), (4, 2, 1)
    want = phi_chain_basis(mu, tau, 3)
    read = []

    def reading(lam, p):
        read.append(lam)
        return ladder_decomposition(lam, p)

    for module in ("partitions", "tableaux", "ranks"):
        monkeypatch.setattr(f"spechtmod.{module}.ladder_decomposition",
                            reading)
    assert phi_chain_basis(mu, tau, 3) == want and want
    assert read == [mu]


@pytest.mark.parametrize("mu, tau, message", [
    ((4, 1), (3, 2), "(4, 1) is not 3-restricted"),
    ((5, 3, 1), (5, 3, 1), "(5, 3, 1) has a ladder of length >= 3"),
    ((3, 2), (4, 1, 1), "size mismatch: (3, 2) vs (4, 1, 1)"),
    ((4, 1), (4, 1, 1), "(4, 1) is not 3-restricted"),
])
def test_phi_chain_basis_rejects_bad_input(mu, tau, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        phi_chain_basis(mu, tau, 3)
