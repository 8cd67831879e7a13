r"""Laurent arithmetic and the q-Fock space: raising operators, first
approximations, and the triangular recursion for the canonical basis.

The Fock space has the set of all partitions as a basis over
``Z[q, q^{-1}]``.  The residue-i raising operator acts by

.. math::  f_i \lambda = \sum_\gamma q^{N_i(\gamma)} (\lambda \cup \gamma),

summed over addable i-nodes :math:`\gamma` of :math:`\lambda`, where
:math:`N_i(\gamma)` counts addable i-nodes of :math:`\lambda` in strictly
smaller columns minus removable i-nodes of :math:`\lambda` in strictly smaller
columns.

The divided power :math:`f_i^{(k)} = f_i^k / [k]_q!` is a sum over k-subsets
S of addable i-nodes of :math:`\lambda` (Lascoux-Leclerc-Thibon 1996),

.. math::  f_i^{(k)} \lambda = \sum_S q^{N_i(\lambda, S)} (\lambda \cup S),

where :math:`N_i(\lambda, S)` sums, over each :math:`\gamma \in S`, the
addable i-nodes of :math:`\lambda` not in S in strictly smaller columns minus
the removable i-nodes of :math:`\lambda` in strictly smaller columns.  The
package computes :math:`f_i` itself as ``divided_f(i, 1, v, p)``.

For a p-restricted mu with ladders L_1 < ... < L_m of residues
:math:`\iota_k`, the first approximation is the ladder product of divided
powers applied to the vacuum,

.. math::  A(\mu) = f_{\iota_m}^{(|L_m|)} \cdots f_{\iota_1}^{(|L_1|)}\,\emptyset ,

a bar-invariant vector supported on partitions dominating mu with leading
coefficient 1.  It needs only the residue and size of each ladder, which
``first_approximations`` reads from the parts of mu, without a ladder
tableau.  It builds the products of many mu in one walk: products that share
a ladder prefix share its partial product, held on one path stack, so each
distinct prefix costs one divided power.
The canonical basis vector G(mu) is characterized by bar-invariance and
G(mu) = mu mod qZ[q]; ``llt_canonical`` extracts it by subtracting
bar-symmetric corrections n(q) G(nu) at dominance-greater nu, most dominant
first, and records the transition matrix n.

Inside, vectors are plain dicts {partition: {exponent: coefficient}} and
polynomials plain dicts {exponent: coefficient}: the divided-power kernel
``_divided``, the path stack of ``_products``, the elimination of
``llt_canonical`` and the reconstruction of ``_assert_table_invariants`` all
run on them.  ``FockVector`` and ``LaurentPoly`` start at the public
results: ``divided_f`` and ``first_approximations`` wrap each result once,
and ``llt_canonical`` wraps A(mu), G(mu) and n(lam, mu) once each, where it
assembles its ``CanonicalBasisTable``.
"""

import operator
from collections.abc import Sequence
from itertools import accumulate, combinations

from .partitions import (Partition, _Record, _steps_of, check_partition,
                         is_p_restricted, restricted_partitions, dominates,
                         total_order_key)


class LaurentPoly:
    """Sparse integer Laurent polynomial in q: map exponent -> coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^{-1} (exponent negation)."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def is_bar_symmetric(self) -> bool:
        return self.coeffs == {-e: c for e, c in self.coeffs.items()}

    def min_degree(self):
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c}")
            else:
                mono = "q" if e == 1 else f"q^{e}"
                terms.append(mono if c == 1 else f"-{mono}" if c == -1
                             else f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


def evaluate_at_one(f: LaurentPoly) -> int:
    """Sum of coefficients, as a plain integer."""
    return sum(f.coeffs.values())


def gaussian(k: int) -> LaurentPoly:
    """[k]_q = q^{k-1} + q^{k-3} + ... + q^{1-k}, with [0]_q = 0."""
    if k == 0:
        return LaurentPoly.zero()
    if k < 0:
        raise ValueError("gaussian integers are defined for k >= 0 here")
    return LaurentPoly({e: 1 for e in range(1 - k, k, 2)})


def gaussian_factorial(k: int) -> LaurentPoly:
    """[k]_q! = [k]_q [k-1]_q ... [1]_q, with [0]_q! = 1."""
    if k < 0:
        raise ValueError("factorial needs k >= 0")
    if k == 0:
        return LaurentPoly.one()
    return gaussian_factorial(k - 1) * gaussian(k)


class FockVector:
    """Finitely supported combination of partitions of n over Z[q, q^{-1}]."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        for lam, c in (terms or {}).items():
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c)
            if c:
                if sum(lam) != n:
                    raise ValueError(f"partition {lam} is not of size {n}")
                self.terms[tuple(lam)] = c

    @classmethod
    def basis(cls, lam) -> "FockVector":
        lam = check_partition(lam)
        return cls(sum(lam), {lam: LaurentPoly.one()})

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls(0, {(): LaurentPoly.one()})

    def coefficient(self, lam) -> LaurentPoly:
        return self.terms.get(tuple(lam), LaurentPoly.zero())

    def support(self) -> tuple:
        return tuple(sorted(self.terms, key=total_order_key))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, FockVector) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, LaurentPoly.zero()) + c
        return FockVector(self.n, out)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.const(-1))

    def scale(self, f) -> "FockVector":
        if isinstance(f, int):
            f = LaurentPoly.const(f)
        return FockVector(self.n, {lam: c * f for lam, c in self.terms.items()})

    def __repr__(self):
        parts = [f"({c!r})*{lam}" for lam, c in
                 sorted(self.terms.items(), key=lambda kv: total_order_key(kv[0]))]
        return " + ".join(parts) if parts else "0"


def _poly(coeffs: dict) -> LaurentPoly:
    """The polynomial holding ``coeffs`` itself, which has no zero
    coefficient: taken over, not copied or filtered."""
    f = object.__new__(LaurentPoly)
    f.coeffs = coeffs
    return f


def _vector(n: int, terms: dict) -> FockVector:
    """The FockVector of plain terms {partition of n: {exponent:
    coefficient}} with no zero coefficient.  The dict is taken over, each
    coefficient made a ``_poly`` in place, and no size is summed again."""
    for lam, c in terms.items():
        terms[lam] = _poly(c)
    v = object.__new__(FockVector)
    v.n, v.terms = n, terms
    return v


def _divided(i: int, k: int, terms: dict, p: int) -> dict:
    """f_i^(k) on plain terms {partition: {exponent: coefficient}}, k >= 1:
    the one divided-power rule, a sum over k-subsets S of addable i-nodes
    (see the module docstring).  Coefficients are summed and not filtered,
    so a 0 stays only where contributions of both signs cancel.

    Adding an i-node creates or destroys no other addable or removable i-node
    (p > 1), so along any ordering of S the f_i exponents sum to N(lam, S) +
    k(k-1)/2 - 2 (pairs added left-first); over all k! orderings that gives
    q^N(lam, S) [k]_q!.  The weight of an addable i-node counts the addable
    i-nodes left of it less the removable i-nodes left of it, so N(lam, S) is
    the sum of the weights over S less the k(k-1)/2 pairs inside S.

    The weights come from one scan of lam by increasing column: the node
    below the last row, then each run of equal parts from the bottom up, the
    removable node of its last row before the addable node of its first.
    Scan order is strict column order on i-nodes: the only ties are the
    addable node of a row and the removable node of the row above, and
    residues of adjacent rows differ by 1.  For k = 1 each grown partition
    is sliced from lam, and a one-term coefficient is shifted without a
    loop over its terms."""
    i %= p
    pairs = k * (k - 1) // 2
    out = {}
    for lam, c in terms.items():
        length = len(lam)
        adds, count = [], 0     # (row index, weight); addable less removable
        if -length % p == i:
            adds.append((length, 0))
            count = 1
        r = length - 1
        while r >= 0:           # the run of lam[r], rows top..r (0-based)
            part = lam[r]
            top = lam.index(part)
            if (part - r - 1) % p == i:     # removable (r+1, part)
                count -= 1
            if (part - top) % p == i:       # addable (top+1, part+1)
                adds.append((top, count))
                count += 1
            r = top - 1
        adds.reverse()          # by increasing row
        if k == 1:
            grown = [(lam[:r] + (lam[r] + 1,) + lam[r + 1:] if r < length
                      else lam + (1,), weight) for r, weight in adds]
        else:
            grown = []
            for subset in combinations(adds, k):
                parts = list(lam) + [0]
                shift = -pairs
                for r, weight in subset:
                    parts[r] += 1
                    shift += weight
                grown.append((tuple(parts) if parts[-1]
                              else tuple(parts[:-1]), shift))
        if len(c) == 1:
            (e, x), = c.items()
            for mu, shift in grown:
                acc = out.get(mu)
                if acc is None:
                    out[mu] = {e + shift: x}
                else:
                    acc[e + shift] = acc.get(e + shift, 0) + x
        else:
            for mu, shift in grown:
                acc = out.setdefault(mu, {})
                for e, x in c.items():
                    acc[e + shift] = acc.get(e + shift, 0) + x
    return out


def divided_f(i: int, k: int, v: FockVector, p: int) -> FockVector:
    """The divided power f_i^(k) = f_i^k / [k]_q! of ``v``: ``_divided`` on
    the terms of v, with the zeros of cancelling terms dropped."""
    if k <= 0:
        raise ValueError("divided power needs k >= 1")
    out = _divided(i, k, {lam: c.coeffs for lam, c in v.terms.items()}, p)
    return FockVector(v.n + k, {mu: LaurentPoly(c) for mu, c in out.items()})


def _ladder_steps(mus, p: int) -> dict:
    """Map each mu in ``mus``, normalized, to ``_steps_of(mu, p)``;
    non-p-restricted mu raise."""
    out = {}
    for mu in mus:
        mu = check_partition(mu)
        if not is_p_restricted(mu, p):
            raise ValueError(f"{mu} is not {p}-restricted")
        out[mu] = _steps_of(mu, p)
    return out


def _products(steps: dict, p: int) -> dict:
    """The ladder products on plain terms, {mu: terms of A(mu)} in the order
    of ``steps`` (checked mu -> their steps).

    The mu are visited in sorted order of their steps.  A path stack holds
    the products for the current prefix: pop back to the prefix shared with
    the previous mu, push one divided power per remaining step.  So each
    distinct prefix costs one ``_divided`` call.  Every coefficient is a sum
    of positive terms, so none is 0."""
    out, path, prev = dict.fromkeys(steps), [{(): {0: 1}}], ()
    for mu in sorted(steps, key=steps.get):
        cur, d = steps[mu], 0
        shared = min(len(prev), len(cur))
        while d < shared and prev[d] == cur[d]:
            d += 1
        del path[d + 1:]
        for iota, m in cur[d:]:
            path.append(_divided(iota, m, path[-1], p))
        out[mu], prev = path[-1], cur
    return out


def first_approximations(mus, p: int) -> dict:
    """A(mu) for each mu in ``mus``, keyed in input order: the products of
    ``_products``, each made a FockVector once."""
    products = _products(_ladder_steps(mus, p), p)
    return {mu: _vector(sum(mu), terms) for mu, terms in products.items()}


def first_approximation(mu: Partition, p: int) -> FockVector:
    """The ladder product of divided powers applied to the vacuum vector."""
    (a,) = first_approximations((mu,), p).values()
    return a


class CanonicalBasisTable(_Record):
    """First approximations A, canonical basis G, and the transition matrix
    nmat with A(mu) = sum_lam nmat(lam, mu) G(lam); nmat entries are stored for
    (lam, mu) with lam dominance-greater-or-equal mu only."""

    __slots__ = ("p", "n", "order", "A", "G", "nmat")

    def nmat_entry(self, lam, mu) -> LaurentPoly:
        lam, mu = tuple(lam), tuple(mu)
        if lam == mu:
            return LaurentPoly.one()
        return self.nmat.get((lam, mu), LaurentPoly.zero())


def _bar_symmetric_correction(c: dict) -> dict:
    """The unique bar-symmetric polynomial agreeing with c in degrees <= 0,
    both as {exponent: coefficient}."""
    out = {}
    for e, coef in c.items():
        if e <= 0:
            out[e] = coef
            if e:
                out[-e] = coef
    return out


def _add_product(terms: dict, f: dict, g: dict) -> None:
    """terms += f g in place, for plain terms ``terms`` and ``g`` and a
    polynomial f, all as dicts; a coefficient or partition that reaches 0
    is removed."""
    for lam, c in g.items():
        prod = {}
        for e2, y in c.items():
            for e1, x in f.items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + x * y
        acc = terms.setdefault(lam, {})
        for e, x in prod.items():
            if x:
                x += acc.get(e, 0)
                if x:
                    acc[e] = x
                else:
                    del acc[e]
        if not acc:
            del terms[lam]


def llt_canonical(n: int, p: int, order=None) -> CanonicalBasisTable:
    """Compute G(mu) and n(lam, mu) for every p-restricted mu of n.

    The A(mu) come from one ``_products`` walk, whose ladder products share
    their prefixes through one path stack.  Processing mu most dominant
    first, the current vector starts at A(mu) and bar-symmetric corrections
    n(q) G(nu) are subtracted at the most dominant nu != mu whose coefficient
    still has a term of non-positive degree.  The vector is updated in place,
    and after a correction only the terms of G(nu) are checked again; a
    subtraction can re-dirty strictly more dominant coefficients, but each
    cascade strictly decreases the negative depth, so the loop terminates (a
    generous iteration cap guards this).  On exit every non-leading coefficient
    lies in qZ[q]; bar-invariance of the recorded corrections, unitriangularity
    and exact reconstruction A = nmat . G are asserted.  All of this runs on
    plain dicts, and the table's FockVectors and LaurentPolys are made once,
    at the end; a G(mu) that needed no correction is A(mu) itself.
    """
    restricted = restricted_partitions(n, p)
    order = restricted if order is None else tuple(check_partition(m) for m in order)
    if set(order) != set(restricted) or len(set(order)) != len(order):
        raise ValueError("order must enumerate the p-restricted partitions of n")
    pos = {mu: k for k, mu in enumerate(order)}
    A = _products({mu: _steps_of(mu, p) for mu in order}, p)
    G, nmat = {}, {}
    cap = 1000 + 20 * len(order) * len(order)
    for mu in order:
        bound = tuple(accumulate(mu))
        for lam in A[mu]:
            if not all(map(operator.ge, accumulate(lam), bound)):
                raise AssertionError(
                    f"triangularity failure: {lam} in A({mu}) does not dominate")
        cur, top = A[mu], pos[mu]
        dirty = {pos[nu] for nu, c in cur.items()
                 if pos.get(nu, top) < top and min(c) <= 0}
        if dirty:       # else G(mu) is A(mu), the same dict
            cur = {lam: dict(c) for lam, c in cur.items()}
        steps = 0
        while dirty:
            offender = order[min(dirty)]
            steps += 1
            if steps > cap:
                raise AssertionError("canonical-basis elimination did not stabilize")
            corr = _bar_symmetric_correction(cur[offender])
            _add_product(cur, {e: -x for e, x in corr.items()}, G[offender])
            for lam in G[offender]:
                k = pos.get(lam, top)
                if k < top:
                    if lam in cur and min(cur[lam]) <= 0:
                        dirty.add(k)
                    else:
                        dirty.discard(k)
            # n(offender, mu) += corr
            _add_product(nmat, corr, {(offender, mu): {0: 1}})
        # global-basis congruence: all non-leading coefficients in qZ[q]
        if cur.get(mu) != {0: 1}:
            raise AssertionError(f"leading coefficient of G({mu}) is not 1")
        for lam, c in cur.items():
            if lam != mu and min(c) <= 0:
                raise AssertionError(
                    f"coefficient of {lam} in G({mu}) not in qZ[q]: {_poly(c)!r}")
        G[mu] = cur
    A = {mu: _vector(n, A[mu]) for mu in order}
    G = {mu: A[mu] if G[mu] is A[mu].terms else _vector(n, G[mu])
         for mu in order}
    table = CanonicalBasisTable(p, n, order, A, G,
                                {key: _poly(c) for key, c in nmat.items()})
    _assert_table_invariants(table)
    return table


def _assert_table_invariants(table: CanonicalBasisTable):
    """Each nmat entry is bar-invariant and above the diagonal in dominance,
    and A(mu) = sum_lam nmat(lam, mu) G(lam) for every mu, summed on plain
    dicts one column at a time."""
    columns = {mu: [] for mu in table.order}
    for (lam, mu), c in table.nmat.items():
        if not c.is_bar_symmetric():
            raise AssertionError(f"nmat({lam},{mu}) is not bar-invariant: {c!r}")
        if lam == mu or not dominates(lam, mu):
            raise AssertionError(f"nmat({lam},{mu}) breaks unitriangularity")
        columns[mu].append((lam, c.coeffs))

    def plain(v):
        return {lam: c.coeffs for lam, c in v.terms.items()}

    for mu, column in columns.items():
        if not column and table.G[mu] is table.A[mu]:
            continue            # A(mu) = G(mu), one vector
        recon = plain(table.G[mu])
        if column:
            recon = {lam: dict(c) for lam, c in recon.items()}
        for lam, c in column:
            _add_product(recon, c, plain(table.G[lam]))
        if recon != plain(table.A[mu]):
            raise AssertionError(f"A({mu}) != sum nmat . G reconstruction")


class SparseRows(Sequence):
    """Read-only integer matrix with ``size`` columns, held as its entries
    other than 0: ``rows[i]`` is a dict {column: entry} with ascending keys,
    where an entry is a nonzero int or None (a column left unevaluated).
    Indexing gives the dense row tuple, so ``m[i][j]``, iteration and ``len``
    read as for a tuple of rows."""

    __slots__ = ("rows", "size")

    def __init__(self, rows, size: int):
        self.rows, self.size = tuple(rows), size

    @classmethod
    def from_rows(cls, rows) -> "SparseRows":
        """The entries other than 0 of dense rows; None is kept."""
        rows = tuple(rows)
        size = len(rows[0]) if rows else 0
        return cls(({j: x for j, x in enumerate(row) if x != 0}
                    for row in rows), size)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i) -> tuple:
        dense = [0] * self.size
        for j, value in self.rows[i].items():
            dense[j] = value
        return tuple(dense)


def nmat_at_one(table: CanonicalBasisTable) -> SparseRows:
    """The integer matrix n(lam, mu)(1), rows and columns in table order:
    1 on the diagonal and each nmat entry whose value at q = 1 is nonzero."""
    pos = {mu: k for k, mu in enumerate(table.order)}
    rows = [{k: 1} for k in range(len(pos))]
    for (lam, mu), c in table.nmat.items():
        value = evaluate_at_one(c)
        if value:
            rows[pos[lam]][pos[mu]] = value
    return SparseRows(({j: row[j] for j in sorted(row)} for row in rows),
                      len(pos))


def invert_unitriangular(M: SparseRows) -> SparseRows:
    """Exact inverse of an upper-unitriangular integer matrix.

    Solved from the last row up, inv[i] = e_i - sum over the stored k > i of
    M[i][k] inv[k]: one sparse row operation per nonzero above the diagonal,
    so the work follows the nonzeros of M and of the inverse, never N^2.
    Only stored entries are checked, row by row: the diagonal first, then
    the entries below it."""
    for i, row in enumerate(M.rows):
        if row.get(i) != 1:
            raise ValueError("matrix is not unitriangular (diagonal != 1)")
        if next(iter(row)) < i:     # keys ascend, so the first is the least
            raise ValueError("matrix is not upper triangular")
    inv = [None] * len(M)
    for i in range(len(M) - 1, -1, -1):
        acc = {i: 1}
        for k, m in M.rows[i].items():
            if k > i:
                for j, x in inv[k].items():
                    acc[j] = acc.get(j, 0) - m * x
        inv[i] = {j: acc[j] for j in sorted(acc) if acc[j]}
    return SparseRows(inv, M.size)
