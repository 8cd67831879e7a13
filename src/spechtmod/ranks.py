r"""Eigenspace bases of Specht modules and mod-p Gram ranks.

For a p-restricted mu (all ladder lengths < p) and any tau of the same size,
the pipeline runs on entry-position tuples (``StandardTableau.sort_key``) and
integer numerators over one denominator, building no tableau or vector
object until a caller asks for one:

1. enumerate one member per ladder-group orbit of T_{mu,tau}, the standard
   tableaux of shape tau whose residue sequence equals that of the ladder
   tableau of mu: the member whose entries in each ladder interval go down
   the rows (``ladder_orbit_positions``).  Entries of one interval share a
   residue and number fewer than p, so they lie in distinct rows and columns
   and the ladder group acts freely on T_{mu,tau}.  ``weight_space_dims``
   enumerates every shape at once; a shape with no representative has rank
   0.  ``_basis`` checks the number of representatives of a shape against
   its weight-space count, the Fock side's, before it walks any chain, and
   every restricted shape the Fock side counts is handed to it, so a shape
   counted there must have representatives.  ``verify.m_matrix`` hands
   ``_weight_space_dims`` the representatives of each mu from one
   ``partitions._prefix_walk`` of ``_extend`` steps, so mu with a common
   prefix of ladder steps share the walk along it;
2. read the canonical reduced word of d(s) off the positions of each
   representative s (``canonical_word``);
3. apply the chain phi_{i_k} ... phi_{i_1} of that word to the seminormal
   vector of the row-reading tableau of tau (rightmost letter first), whose
   positions and norm a caller ranking many mu builds once per tau.  Each
   term is walked on its own position list: a regular step (p not dividing
   h) swaps two entries and scales the coefficient by e(h), a step with
   |h| = 1 ends the walk at 0, and a singular step (p | h) also starts a
   second walk, scaled by d(h), at the unswapped positions; walks ending at
   the same positions are summed;
4. symmetrize over the ladder group by folding each chain end onto its orbit
   representative.  Inside an interval every sigma_i has h a nonzero
   multiple of p, so the span of an orbit is a regular representation of
   the ladder group and its invariant line is spanned by f_O = e xi_r, e the
   ladder average and r the representative.  From e sigma_i = e,
   e xi_{sigma_i s} = (h+1)/h e xi_s when sigma_i moves the larger of the
   two entries into the upper box, h = content(upper) - content(lower) > 0.
   So e xi_s = c(s) f_O with c(s) the product of (h+1)/h over the pairs of
   interval boxes whose entries s puts in the wrong order, and the average
   of a chain is read off in the coordinates f_O with no step applied
   (``_fold``).  The chain of a representative s is xi_s plus terms at
   tableaux before s in sort_key order (Murphy; Mathas, Ch. 3), so its
   fold is f_O(s) plus terms at representatives before s: the basis is
   unitriangular, hence independent, and each fold is checked to have s
   as its largest key instead of being eliminated;
5. form the Gram matrix of the invariant form from the numerators weighted
   by the orbit norms over one common denominator, one ``Fraction`` per
   entry (for one vector, its lowest terms only); the entries must be
   p-integral.  The f_O of distinct orbits are orthogonal, and
   <f_O, f_O> = gamma(r) prod_k [prod over the box pairs of interval k of
   (h-1)/h] / m_k!, m_k the interval's length.  No norm is computed from
   scratch: the norm of the row-reading tableau is the product of its row
   factorials, every step carries it on by gamma(sigma_i s) / gamma(s) =
   (h^2-1)/h^2 when h > 1 and h^2/(h^2-1) when h < -1, and gamma(r) is
   gamma(s) times h^2/(h^2-1) over the pairs that s puts in the wrong order;
6. reduce mod p and take the rank.

The resulting rank is the dimension of the mu-weight space of the simple
module indexed by tau (dim of the image of the class projector composed with
ladder symmetrization on D(tau)).
"""

import math
from fractions import Fraction

from .fock import evaluate_at_one, first_approximation
from .partitions import (LadderData, Partition, _Record, check_partition,
                         ladder_decomposition, restricted_partitions)
from .seminormal import (SeminormalVector, norm, reduce_numerators,
                         seminormal_step, step_factors)
from .tableaux import (StandardTableau, _class_of_shape, _orbit_positions,
                       canonical_word, check_class_cap, d_reduced_word)


class GramReport(_Record):
    """Outcome of the six-step rank computation for one pair (mu, tau):
    ``basis`` holds the symmetrized vectors the Gram matrix is of, ``gram``
    is that basis_size x basis_size matrix of Fractions and ``gram_mod_p``
    the same over Z/p."""

    __slots__ = ("mu", "tau", "p", "basis_size_before_symmetrization",
                 "basis_size", "basis", "gram", "gram_mod_p", "rank")


def _require_valid_mu(mu: Partition, p: int) -> LadderData:
    """The ladder data of mu, read once; mu must be p-restricted with every
    ladder shorter than p."""
    ld = ladder_decomposition(mu, p)
    if not ld.ladders_below_p():
        raise ValueError(f"{ld.partition} has a ladder of length >= {p}")
    return ld


def _word_of(strategy: str):
    """The reduced word of d(s) in product order, as a function of the
    positions s of a standard tableau."""
    if strategy == "canonical":
        return canonical_word
    return lambda s: d_reduced_word(StandardTableau.from_positions(s),
                                    strategy).word


def _row_reading(tau: Partition, nodes=None) -> tuple:
    """The positions of the row-reading tableau of tau and its norm, the
    product of the row factorials, as a pair.  Callers that keep many such
    pairs pass them all one dict ``nodes``, through which they share each
    node (r, c) instead of holding a copy of it."""
    positions = tuple((r, c) for r, part in enumerate(tau, start=1)
                      for c in range(1, part + 1))
    if nodes is not None:
        positions = tuple(nodes.setdefault(node, node) for node in positions)
    return positions, (math.prod(map(math.factorial, tau)), 1)


def _step_rules(n: int, p: int) -> list:
    """``step_factors(h, p)`` at index h (a negative h counts from the end)
    for every h that a step on n entries meets, 0 < |h| < n: the walks read
    a step's factors from this list instead of calling for them."""
    return [step_factors(h, p) if h else None for h in range(n)] + \
        [step_factors(h, p) for h in range(-n, 0)]


def _walk(word, start, rules) -> list:
    """The ends of the chain of phi_i over ``word`` (rightmost letter first)
    applied to the seminormal vector at ``start``, a (positions, norm) pair,
    as (positions, numerator, denominator, norm numerator, norm denominator)
    tuples; ends at the same positions are not summed yet.  Each term is
    walked on its own position list with its coefficient and norm, each step
    by its ``step_factors`` read from ``rules`` (``_step_rules``), as in
    step 3.  Walks seldom meet before their end, so this does the work of
    ``seminormal_step`` on a numerator dict with no dict or tuple built per
    step."""
    letters = word[::-1]
    ends = []
    walks = [(0, list(start[0]), 1, 1, *start[1])]
    while walks:
        k, pos, num, den, gn, gd = walks.pop()
        for k in range(k, len(letters)):
            i = letters[k]
            (a, b), (c, d) = pos[i - 2], pos[i - 1]
            diagonal, swap, ratio = rules[b - a - d + c]
            if diagonal:
                walks.append((k + 1, pos[:], num * diagonal[0],
                              den * diagonal[1], gn, gd))
            if swap is None:
                break
            pos[i - 2], pos[i - 1] = pos[i - 1], pos[i - 2]
            num, den = num * swap[0], den * swap[1]
            gn, gd = gn * ratio[0], gd * ratio[1]
        else:
            ends.append((pos, num, den, gn, gd))
    return ends


def _sum(terms) -> tuple:
    """The reduced (numerators, denominator) of a sum of (key, numerator,
    denominator) terms."""
    common = math.lcm(*(den for _, _, den in terms))
    nums = {}
    for s, num, den in terms:
        nums[s] = nums.get(s, 0) + num * (common // den)
    return reduce_numerators(nums, common)


def _phi_chain(word, start, rules) -> tuple:
    """The chain vector of ``_walk`` as reduced (numerators, denominator)."""
    return _sum([(tuple(pos), num, den)
                 for pos, num, den, _, _ in _walk(word, start, rules)])


def _fold(ends, slices, norms: dict) -> tuple:
    """The ladder-group average e of the chain with the given ``_walk``
    ends, in orbit coordinates, as reduced (numerators, denominator) keyed
    by orbit representatives: e xi_s = c(s) e xi_r (step 4).  ``slices``
    are the nontrivial ladder intervals as slices of a position list.  The
    norm <e xi_r, e xi_r> of each representative r reached is put in
    ``norms``, from the norm of the first end of its orbit (step 5)."""
    terms = []
    for pos, num, den, gn, gd in ends:
        for lo, hi in slices:
            boxes = pos[lo:hi]
            down = sorted(boxes)    # the boxes down the rows
            if boxes == down:
                continue
            for x, (a, b) in enumerate(boxes):
                for u, v in boxes[x + 1:]:
                    if a > u:       # the larger entry is in the upper box
                        h = v - u - b + a
                        num, den = num * (h + 1), den * h
                        gn, gd = gn * h * h, gd * (h * h - 1)
            pos[lo:hi] = down
        r = tuple(pos)
        if r not in norms:
            for lo, hi in slices:
                boxes = pos[lo:hi]
                for x, (a, b) in enumerate(boxes):
                    for u, v in boxes[x + 1:]:
                        h = b - a - v + u
                        gn, gd = gn * (h - 1), gd * h
                gd *= math.factorial(hi - lo)
            g = math.gcd(gn, gd)
            norms[r] = gn // g, gd // g
        terms.append((r, num, den))
    return _sum(terms)


def phi_chain_basis(mu: Partition, tau: Partition, p: int,
                    word_strategy: str = "canonical",
                    allow_large: bool = False) -> tuple:
    """The intertwiner-chain vectors, one per member of T_{mu,tau}."""
    mu, tau = check_partition(mu), check_partition(tau)
    check_class_cap(sum(mu), allow_large)
    ld = _require_valid_mu(mu, p)     # builds ladder data: after the cap
    if sum(tau) != sum(mu):
        raise ValueError(f"size mismatch: {mu} vs {tau}")
    members = _class_of_shape(ld, tau)
    word, start = _word_of(word_strategy), _row_reading(tau)
    rules = _step_rules(sum(tau), p)
    return tuple(SeminormalVector.from_numerators(
        tau, *_phi_chain(word(t.sort_key()), start, rules)) for t in members)


def _symmetrize(nums: dict, den: int, intervals) -> tuple:
    """The ladder-group average of the vector ``nums / den`` in tableau
    coordinates, as reduced (numerators, denominator): on each interval
    a..b, the average over its symmetric group as the product of coset sums
    D_b ... D_{a+1}, D_j = 1 + s_j + s_{j-1} s_j + ... + s_{a+1} ... s_j
    summing the j - a + 1 cosets of Sym(a..j-1) in Sym(a..j), each divided
    by that count.  Only the vectors that are shown (``ladder_symmetrize``,
    ``GramReport.basis``) are built this way; the ranks read the same
    average in orbit coordinates from ``_fold``."""
    for a, b in intervals:
        for j in range(a + 1, b + 1):
            term, acc = nums, dict(nums)
            for i in range(j, a, -1):
                term, scale = seminormal_step(i, term)
                if scale != 1:
                    acc = {s: c * scale for s, c in acc.items()}
                    den *= scale
                for s, c in term.items():
                    acc[s] = acc.get(s, 0) + c
            nums, den = reduce_numerators(acc, den * (j - a + 1))
    return nums, den


def independent_subset(vectors) -> tuple:
    """Maximal Q-linearly independent subset of seminormal vectors, greedily
    in input order.

    Fraction-free Gaussian elimination on the numerators, pivoting on the
    least position tuple (``sort_key`` order); every stored pivot row is
    supported on its pivot position and later ones, so each elimination
    step strictly advances the leading position and terminates.
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
    intervals = _require_valid_mu(mu, p).ladder_group_intervals
    return independent_subset(
        SeminormalVector.from_numerators(
            v.shape, *_symmetrize(v.nums, v.den, intervals))
        for v in basis)


def _gram(vectors, norms: dict) -> tuple:
    """Matrix of the invariant form on (numerators, denominator) pairs whose
    keys are orthogonal, with the norm of each key s read from ``norms[s]``
    (a tableau's, or an orbit's in orbit coordinates): the numerators are
    weighted by the norms over one common denominator, and each entry is
    one ``Fraction``."""
    common = math.lcm(*(norms[s][1] for nums, _ in vectors for s in nums))
    weighted = [{s: c * norms[s][0] * (common // norms[s][1])
                 for s, c in nums.items()} for nums, _ in vectors]
    k = len(vectors)
    g = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            small, big = sorted((vectors[a][0], weighted[b]), key=len)
            g[a][b] = g[b][a] = Fraction(
                sum(c * big[s] for s, c in small.items() if s in big),
                vectors[a][1] * vectors[b][1] * common)
    return tuple(tuple(row) for row in g)


def gram_matrix(basis) -> tuple:
    """Matrix of the invariant form on the given vectors (exact, symmetric),
    each position's norm computed by ``norm``, once per call."""
    norms = {s: norm(s) for s in {s for v in basis for s in v.nums}}
    return _gram([(v.nums, v.den) for v in basis], norms)


def _mod_p(entry, p: int) -> int:
    """A p-integral rational reduced mod p."""
    entry = Fraction(entry)
    if entry.denominator % p == 0:
        raise ArithmeticError(
            f"entry {entry} is not {p}-integral; upstream basis bug")
    return entry.numerator * pow(entry.denominator, -1, p) % p


def modp_rank(gram, p: int):
    """Reduce a p-integral rational matrix mod p and return (matrix, rank)."""
    k = len(gram)
    reduced = [[_mod_p(entry, p) for entry in row] for row in gram]
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


def _basis(ld: LadderData, tau: Partition, start, rules, representatives,
           count: int, norms: dict, word=canonical_word) -> list:
    """Steps 2-4 for the orbit representatives (position tuples) of
    T_{mu,tau}, mu read from its ladder data ``ld``: the symmetrized chain
    of each, in the given order and in orbit coordinates as a (numerators,
    denominator) pair.  Before any chain is walked, the number of
    representatives is checked against ``count``, the Fock side's
    weight-space count: the coefficient of tau in A(mu) at q = 1.  Each
    chain is checked to have its representative as its largest key (step
    4).  ``start`` is ``_row_reading(tau)``, ``rules`` the ``_step_rules``
    for |tau| and p; ``norms`` gets the orbit norm of every representative
    the folds reach."""
    if len(representatives) != count:
        raise AssertionError(
            f"symmetrized basis for mu={ld.partition}, tau={tau} has size "
            f"{len(representatives)}, weight-space count expects {count}")
    slices = [(a - 1, b) for a, b in ld.ladder_group_intervals if b > a]
    sym = []
    for s in representatives:
        nums, den = _fold(_walk(word(s), start, rules), slices, norms)
        if not nums or max(nums) != s:
            raise AssertionError(
                f"folded chain for mu={ld.partition}, tau={tau} is not "
                f"unitriangular: its largest key is not its representative "
                f"s={s}")
        sym.append((nums, den))
    return sym


def _rank(vectors, norms: dict, p: int) -> int:
    """The mod-p rank of the Gram matrix of the given vectors.  With one
    vector, that is whether its one entry, the sum of c^2 norms[s] / den^2
    over its numerators c, is a unit mod p, read off its lowest terms."""
    if len(vectors) != 1:
        return modp_rank(_gram(vectors, norms), p)[1]
    (nums, den), = vectors
    common = math.lcm(*(norms[s][1] for s in nums))
    num = sum(c * c * norms[s][0] * (common // norms[s][1])
              for s, c in nums.items())
    den = den * den * common
    g = math.gcd(num, den)
    if den // g % p == 0:
        _mod_p(Fraction(num, den), p)   # raises: not p-integral
    return int(num // g % p != 0)


def gram_report(mu: Partition, tau: Partition, p: int,
                word_strategy: str = "canonical",
                allow_large: bool = False) -> GramReport:
    """Run steps 1-6 and package the result."""
    mu, tau = check_partition(mu), check_partition(tau)
    check_class_cap(sum(mu), allow_large)
    ld = _require_valid_mu(mu, p)     # builds ladder data: after the cap
    if sum(tau) != sum(mu):
        raise ValueError(f"size mismatch: {mu} vs {tau}")
    representatives = sorted(_orbit_positions(ld, tau).get(tau, ()))
    count = evaluate_at_one(first_approximation(mu, p).coefficient(tau))
    norms, word = {}, _word_of(word_strategy)
    intervals, start = ld.ladder_group_intervals, _row_reading(tau)
    rules = _step_rules(sum(tau), p)
    gram = _gram(_basis(ld, tau, start, rules, representatives, count, norms,
                        word), norms)
    try:
        gram_p, rank = modp_rank(gram, p)
    except ArithmeticError as e:
        raise type(e)(f"mu={mu}, tau={tau}: {e}") from e
    return GramReport(mu=mu, tau=tau, p=p,
                      basis_size_before_symmetrization=(
                          len(representatives) * ld.ladder_group_order()),
                      basis_size=len(representatives),
                      basis=tuple(SeminormalVector.from_numerators(
                          tau, *_symmetrize(*_phi_chain(word(s), start, rules),
                                            intervals))
                          for s in representatives),
                      gram=gram, gram_mod_p=gram_p, rank=rank)


def weight_space_dims(mu: Partition, p: int, counts) -> dict:
    """{tau: gram_report(mu, tau, p).rank} over the taus of
    restricted_partitions(|mu|, p) whose dim is not 0, enumerating the orbit
    representatives of every shape once; a shape without any gets rank 0.
    ``counts`` maps tau to the coefficient of tau in A(mu) at q = 1, as the
    Fock side computed it (absent means 0).  It is read only by the
    weight-space count cross-check and decides nothing computed here: every
    shape is enumerated and every orbit representative chained.  Only the
    restricted shapes with representatives or a nonzero count are visited,
    in restricted_partitions order (descending lexicographic); on every
    other shape both sides are 0."""
    mu = check_partition(mu)
    check_class_cap(sum(mu), False)
    ld = _require_valid_mu(mu, p)
    return _weight_space_dims(ld, _orbit_positions(ld), counts,
                              _step_rules(sum(mu), p),
                              frozenset(restricted_partitions(sum(mu), p)),
                              {}, {})


def _weight_space_dims(ld: LadderData, representatives, counts, rules,
                       restricted, starts: dict, nodes: dict) -> dict:
    """``weight_space_dims`` for mu's checked ladder data ``ld`` and the
    orbit representatives of its class, ``{shape: [position tuple, ...]}``
    in any order (``_orbit_positions``), which are read and not changed.
    ``rules`` is the ``_step_rules`` for |mu| and p, ``restricted`` the set
    of p-restricted partitions of |mu|, and ``starts`` a table of
    ``_row_reading(tau, nodes)`` by tau that this fills as it goes, so a
    caller ranking many mu builds each start once, and the starts share
    their nodes.  Only the representatives of restricted shapes are sorted;
    the others are never read."""
    mu, p = ld.partition, ld.p
    shapes = {tau for tau in representatives if tau in restricted}
    shapes.update(tau for tau, count in counts.items()
                  if count and tau in restricted)
    dims = {}
    for tau in sorted(shapes, reverse=True):
        reps = sorted(representatives.get(tau, ()))
        start = starts.get(tau)
        if start is None:
            start = starts[tau] = _row_reading(tau, nodes)
        norms = {}
        sym = _basis(ld, tau, start, rules, reps, counts.get(tau, 0), norms)
        try:
            rank = _rank(sym, norms, p)
        except ArithmeticError as e:
            raise type(e)(f"mu={mu}, tau={tau}: {e}") from e
        if rank:
            dims[tau] = rank
    return dims
