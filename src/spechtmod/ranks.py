r"""Eigenspace bases of Specht modules and mod-p Gram ranks.

For a p-restricted mu (all ladder lengths < p) and any tau of the same size,
the pipeline runs:

1. enumerate one member per ladder-group orbit of T_{mu,tau}, the standard
   tableaux of shape tau whose residue sequence equals that of the ladder
   tableau of mu: the member whose entries in each ladder interval go down
   the rows.  Entries of one interval share a residue and number fewer than
   p, so they lie in distinct rows and columns and the ladder group acts
   freely on T_{mu,tau}.  ``weight_space_dims`` enumerates every shape at
   once; a shape with no representative has rank 0.  Its weight-space count
   must be 0 too, which is checked on the key sets: every restricted shape
   the Fock side counts must have representatives;
2. factor d(s) into a reduced word for each representative s;
3. apply the chain phi_{i_k} ... phi_{i_1} of d(s) to the seminormal vector
   of the row-reading tableau of tau (rightmost letter first), with
   ``act_by_word``: integer numerators over one common denominator, reduced
   by one gcd per chain;
4. symmetrize over the ladder group: on each interval a..b of m entries,
   average over its symmetric group as a product of coset sums, m(m-1)/2
   generator applications on the numerators, reduced by one gcd per coset
   sum; a maximal independent subset is kept, by elimination on the
   numerators;
5. form the Gram matrix of the invariant form from the numerators weighted
   by the norms over one common denominator, one ``Fraction`` per entry;
   the entries must be p-integral;
6. reduce mod p and take the rank.

The resulting rank is the dimension of the mu-weight space of the simple
module indexed by tau (dim of the image of the class projector composed with
ladder symmetrization on D(tau)).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .fock import evaluate_at_one, first_approximation
from .partitions import (Partition, check_partition, is_p_restricted,
                         ladder_decomposition, validate_ladder_lengths)
from .seminormal import (SeminormalVector, act_by_word, norm,
                         seminormal_step)
from .tableaux import (d_reduced_word, ladder_class_of_shape,
                       ladder_orbit_representatives, row_reading_tableau)


@dataclass(frozen=True)
class GramReport:
    """Outcome of the six-step rank computation for one pair (mu, tau)."""
    mu: Partition
    tau: Partition
    p: int
    basis_size_before_symmetrization: int
    basis_size: int
    basis: tuple           # the symmetrized vectors the Gram matrix is of
    gram: tuple            # basis_size x basis_size, Fractions
    gram_mod_p: tuple      # same shape over Z/p
    rank: int


def _require_valid_mu(mu: Partition, p: int) -> Partition:
    mu = check_partition(mu)
    if not is_p_restricted(mu, p):
        raise ValueError(f"{mu} is not {p}-restricted")
    if not validate_ladder_lengths(mu, p):
        raise ValueError(f"{mu} has a ladder of length >= {p}")
    return mu


def _phi_chains(members, tau: Partition, p: int, word_strategy: str) -> list:
    """One intertwiner-chain vector per given member of T_{mu,tau}."""
    start = SeminormalVector.unit(row_reading_tableau(tau))
    return [act_by_word(d_reduced_word(s, word_strategy).word, start, p)
            for s in members]


def phi_chain_basis(mu: Partition, tau: Partition, p: int,
                    word_strategy: str = "canonical",
                    allow_large: bool = False) -> tuple:
    """The intertwiner-chain vectors, one per member of T_{mu,tau}."""
    mu, tau = _require_valid_mu(mu, p), check_partition(tau)
    members = ladder_class_of_shape(mu, tau, p, allow_large=allow_large)
    return tuple(_phi_chains(members, tau, p, word_strategy))


def _symmetrize(v: SeminormalVector, intervals) -> SeminormalVector:
    """The ladder-group average of v: on each interval a..b, the average over
    its symmetric group as the product of coset sums D_b ... D_{a+1}, D_j =
    1 + s_j + s_{j-1} s_j + ... + s_{a+1} ... s_j summing the j - a + 1
    cosets of Sym(a..j-1) in Sym(a..j), each divided by that count."""
    for a, b in intervals:
        for j in range(a + 1, b + 1):
            term, acc, den = v.nums, dict(v.nums), v.den
            for i in range(j, a, -1):
                term, scale = seminormal_step(i, term)
                if scale != 1:
                    acc = {s: c * scale for s, c in acc.items()}
                    den *= scale
                for s, c in term.items():
                    acc[s] = acc.get(s, 0) + c
            v = SeminormalVector.from_numerators(v.shape, acc,
                                                 den * (j - a + 1))
    return v


def independent_subset(vectors) -> tuple:
    """Maximal Q-linearly independent subset, greedily in input order.

    Fraction-free Gaussian elimination on the numerators, pivoting on the
    least position tuple (``sort_key`` order); every stored pivot row is
    supported on its pivot position and later ones, so each elimination step
    strictly advances the leading position and terminates.
    """
    pivots = {}   # leading position -> numerators of the row led there
    kept = []
    for v in vectors:
        work = v.nums
        while work:
            s = min(work)
            row = pivots.get(s)
            if row is None:
                pivots[s] = work
                kept.append(v)
                break
            f, lead = work[s], row[s]
            out = {u: c * lead for u, c in work.items()}
            for u, c in row.items():
                out[u] = out.get(u, 0) - f * c
            work = {u: c for u, c in out.items() if c}
    return tuple(kept)


def ladder_symmetrize(mu: Partition, basis, p: int) -> tuple:
    """Average each vector over the ladder group of mu, then keep a maximal
    independent subset.  The images of the chains of one orbit are nonzero
    multiples of each other (not equal), so at most one per orbit is kept."""
    mu = _require_valid_mu(mu, p)
    intervals = ladder_decomposition(mu, p).ladder_group_intervals
    return independent_subset([_symmetrize(v, intervals) for v in basis])


def gram_matrix(basis) -> tuple:
    """Matrix of the invariant form on the given vectors (exact, symmetric):
    the numerators are weighted by the norms over one common denominator,
    each position's norm computed once per call, and each entry is one
    ``Fraction``."""
    norms = {s: norm(s) for s in {s for v in basis for s in v.nums}}
    common = math.lcm(*(d for _, d in norms.values()))
    weighted = [{s: c * norms[s][0] * (common // norms[s][1])
                 for s, c in v.nums.items()} for v in basis]
    k = len(basis)
    g = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            small, big = sorted((basis[a].nums, weighted[b]), key=len)
            g[a][b] = g[b][a] = Fraction(
                sum(c * big[s] for s, c in small.items() if s in big),
                basis[a].den * basis[b].den * common)
    return tuple(tuple(row) for row in g)


def modp_rank(gram, p: int):
    """Reduce a p-integral rational matrix mod p and return (matrix, rank)."""
    k = len(gram)
    reduced = []
    for row in gram:
        r = []
        for entry in row:
            entry = Fraction(entry)
            if entry.denominator % p == 0:
                raise ArithmeticError(
                    f"entry {entry} is not {p}-integral; upstream basis bug")
            r.append(entry.numerator * pow(entry.denominator, -1, p) % p)
        reduced.append(r)
    mat = [row[:] for row in reduced]
    rank, lead = 0, 0
    for col in range(k):
        piv = next((r for r in range(lead, k) if mat[r][col] % p != 0), None)
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        inv = pow(mat[lead][col], -1, p)
        mat[lead] = [x * inv % p for x in mat[lead]]
        for r in range(k):
            if r != lead and mat[r][col] % p != 0:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[lead])]
        rank += 1
        lead += 1
        if lead == k:
            break
    return tuple(tuple(row) for row in reduced), rank


def _check_weight_space_count(mu: Partition, tau: Partition, expected: int,
                              size: int) -> None:
    """Cross-check a basis size against the Fock-side weight-space count,
    the coefficient of tau in the first approximation A(mu) at q = 1."""
    if size != expected:
        raise AssertionError(
            f"symmetrized basis for mu={mu}, tau={tau} has size {size}, "
            f"weight-space count expects {expected}")


def _gram_report(mu: Partition, tau: Partition, p: int, representatives,
                 word_strategy: str, count: int) -> GramReport:
    """Steps 2-6 for the orbit representatives of T_{mu,tau}, in sort_key
    order."""
    ld = ladder_decomposition(mu, p)
    sym = independent_subset([
        _symmetrize(v, ld.ladder_group_intervals)
        for v in _phi_chains(representatives, tau, p, word_strategy)])
    _check_weight_space_count(mu, tau, count, len(sym))
    gram = gram_matrix(sym)
    gram_p, rank = modp_rank(gram, p)
    return GramReport(mu=mu, tau=tau, p=p,
                      basis_size_before_symmetrization=(
                          len(representatives) * ld.ladder_group_order()),
                      basis_size=len(sym), basis=sym, gram=gram,
                      gram_mod_p=gram_p, rank=rank)


def gram_report(mu: Partition, tau: Partition, p: int,
                word_strategy: str = "canonical",
                allow_large: bool = False) -> GramReport:
    """Run steps 1-6 and package the result."""
    mu, tau = _require_valid_mu(mu, p), check_partition(tau)
    representatives = ladder_orbit_representatives(
        mu, p, tau, allow_large=allow_large).get(tau, ())
    count = evaluate_at_one(first_approximation(mu, p).coefficient(tau))
    return _gram_report(mu, tau, p, representatives, word_strategy, count)


def weight_space_dims(mu: Partition, p: int, counts) -> dict:
    """{tau: dim_e_tilde_D(mu, tau, p)} over the taus of
    restricted_partitions(|mu|, p) whose dim is not 0, enumerating the orbit
    representatives of every shape once; a shape without any gets rank 0.
    ``counts`` maps tau to the coefficient of tau in A(mu) at q = 1, as the
    Fock side computed it (absent means 0).  It is read only by the
    weight-space count cross-check and decides nothing computed here: every
    shape is enumerated and every orbit representative chained.  Only the
    restricted shapes with representatives or a nonzero count are visited,
    in restricted_partitions order (descending lexicographic); on every
    other shape both sides are 0."""
    mu = _require_valid_mu(mu, p)
    representatives = ladder_orbit_representatives(mu, p)
    shapes = {tau for tau, reps in representatives.items() if reps}
    shapes.update(tau for tau, count in counts.items() if count)
    dims = {}
    for tau in sorted(shapes, reverse=True):
        if not is_p_restricted(tau, p):
            continue
        reps = representatives.get(tau)
        if reps:
            rank = _gram_report(mu, tau, p, reps, "canonical",
                                counts.get(tau, 0)).rank
            if rank:
                dims[tau] = rank
        else:
            _check_weight_space_count(mu, tau, counts[tau], 0)
    return dims


def dim_e_tilde_D(mu: Partition, tau: Partition, p: int,
                  word_strategy: str = "canonical",
                  allow_large: bool = False) -> int:
    """dim of the mu-weight space of the simple module of tau: steps 1-6."""
    return gram_report(mu, tau, p, word_strategy, allow_large).rank
