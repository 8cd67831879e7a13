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
"""

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, combinations

from .partitions import (Partition, check_partition, is_p_restricted,
                         restricted_partitions, dominates, total_order_key)


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

    @classmethod
    def q_power(cls, k, coeff=1):
        return cls({k: coeff})

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

    def is_zero(self) -> bool:
        return not self.coeffs

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


def divided_f(i: int, k: int, v: FockVector, p: int) -> FockVector:
    """The divided power f_i^(k) = f_i^k / [k]_q!, as a sum over k-subsets S
    of addable i-nodes (see the module docstring).

    Adding an i-node creates or destroys no other addable or removable i-node
    (p > 1), so along any ordering of S the f_i exponents sum to N(lam, S) +
    k(k-1)/2 - 2 (pairs added left-first); over all k! orderings that gives
    q^N(lam, S) [k]_q!.  The weight of an addable i-node counts the addable
    i-nodes left of it less the removable i-nodes left of it, so N(lam, S) is
    the sum of the weights over S less the k(k-1)/2 pairs inside S.

    The weights come from one scan of lam by increasing column: the node
    below the last row, then each row from the bottom up, its removable node
    before its addable one.  Scan order is strict column order on i-nodes:
    the only ties are the addable node of a row and the removable node of
    the row above, and residues of adjacent rows differ by 1."""
    if k <= 0:
        raise ValueError("divided power needs k >= 1")
    i %= p
    pairs = k * (k - 1) // 2
    out = {}
    for lam, c in v.terms.items():
        adds, count = [], 0      # (row index, weight); addable less removable
        if -len(lam) % p == i:
            adds.append((len(lam), 0))
            count = 1
        below = 0
        for r in range(len(lam) - 1, -1, -1):
            row = lam[r]
            d = (row - r - i) % p   # 1 or 0: (r+1, row) or (r+1, row+1)
            if d == 1 and row > below:
                count -= 1
            elif d == 0 and (r == 0 or row < lam[r - 1]):
                adds.append((r, count))
                count += 1
            below = row
        adds.reverse()          # by increasing row
        for subset in combinations(adds, k):
            parts = list(lam) + [0]
            shift = -pairs
            for r, weight in subset:
                parts[r] += 1
                shift += weight
            mu = tuple(parts) if parts[-1] else tuple(parts[:-1])
            acc = out.setdefault(mu, {})
            for e, x in c.coeffs.items():
                acc[e + shift] = acc.get(e + shift, 0) + x
    return FockVector(v.n + k,
                      {mu: LaurentPoly(acc) for mu, acc in out.items()})


def _ladder_steps(mus, p: int) -> dict:
    """Map each mu in ``mus``, normalized, to the (residue, size) of its
    nonempty ladders, smallest ladder first; non-p-restricted mu raise.

    Row i (0-based) holds one node on each of the ladders (p-1)i + 1 ...
    (p-1)i + mu[i], so one running count of row starts less row ends gives
    every ladder size, and ladder b has residue (b - 1) mod p."""
    out = {}
    for mu in mus:
        mu = check_partition(mu)
        if not is_p_restricted(mu, p):
            raise ValueError(f"{mu} is not {p}-restricted")
        count = [0] * ((p - 1) * len(mu) + max(mu, default=0) + 1)
        for i, part in enumerate(mu):
            count[(p - 1) * i] += 1
            count[(p - 1) * i + part] -= 1
        out[mu] = tuple(((b - 1) % p, size) for b, size
                        in enumerate(accumulate(count), 1) if size)
    return out


def first_approximations(mus, p: int) -> dict:
    """A(mu) for each mu in ``mus``, keyed in input order.

    Each mu's (residue, ladder size) steps are read from its parts alone.
    The mu are visited in sorted order of their steps.  A path stack holds
    the products for the current prefix: pop back to the prefix shared with
    the previous mu, push one divided power per remaining step.  So each
    distinct prefix costs one ``divided_f`` call."""
    steps = _ladder_steps(mus, p)
    out, path, prev = dict.fromkeys(steps), [FockVector.vacuum()], ()
    for mu in sorted(steps, key=steps.get):
        cur, d = steps[mu], 0
        while d < min(len(prev), len(cur)) and prev[d] == cur[d]:
            d += 1
        del path[d + 1:]
        for iota, m in cur[d:]:
            path.append(divided_f(iota, m, path[-1], p))
        out[mu], prev = path[-1], cur
    return out


def first_approximation(mu: Partition, p: int) -> FockVector:
    """The ladder product of divided powers applied to the vacuum vector."""
    (a,) = first_approximations((mu,), p).values()
    return a


@dataclass(frozen=True)
class CanonicalBasisTable:
    """First approximations A, canonical basis G, and the transition matrix
    nmat with A(mu) = sum_lam nmat(lam, mu) G(lam); nmat entries are stored for
    (lam, mu) with lam dominance-greater-or-equal mu only."""
    p: int
    n: int
    order: tuple
    A: dict
    G: dict
    nmat: dict

    def nmat_entry(self, lam, mu) -> LaurentPoly:
        lam, mu = tuple(lam), tuple(mu)
        if lam == mu:
            return LaurentPoly.one()
        return self.nmat.get((lam, mu), LaurentPoly.zero())


def _bar_symmetric_correction(c: LaurentPoly) -> LaurentPoly:
    """The unique bar-symmetric polynomial agreeing with c in degrees <= 0."""
    out = {}
    for e, coef in c.coeffs.items():
        if e == 0:
            out[0] = out.get(0, 0) + coef
        elif e < 0:
            out[e] = out.get(e, 0) + coef
            out[-e] = out.get(-e, 0) + coef
    return LaurentPoly(out)


def llt_canonical(n: int, p: int, order=None) -> CanonicalBasisTable:
    """Compute G(mu) and n(lam, mu) for every p-restricted mu of n.

    The A(mu) come from one ``first_approximations`` call, whose ladder
    products share their prefixes through one path stack.  Processing mu
    most dominant first, the current vector starts at A(mu) and
    bar-symmetric corrections n(q) G(nu) are subtracted at the most dominant
    nu != mu whose coefficient still has a term of non-positive degree; a
    subtraction can re-dirty strictly more dominant coefficients, but each
    cascade strictly decreases the negative depth, so the loop terminates (a
    generous iteration cap guards this).  On exit every non-leading coefficient
    lies in qZ[q]; bar-invariance of the recorded corrections, unitriangularity
    and exact reconstruction A = nmat . G are asserted.
    """
    restricted = restricted_partitions(n, p)
    order = restricted if order is None else tuple(check_partition(m) for m in order)
    if set(order) != set(restricted) or len(set(order)) != len(order):
        raise ValueError("order must enumerate the p-restricted partitions of n")
    pos = {mu: k for k, mu in enumerate(order)}
    A = first_approximations(order, p)
    G, nmat = {}, {}
    cap = 1000 + 20 * len(order) * len(order)
    for mu in order:
        cur = A[mu]
        for lam in cur.terms:
            if not dominates(lam, mu):
                raise AssertionError(
                    f"triangularity failure: {lam} in A({mu}) does not dominate")
        steps = 0
        while True:
            dirty = [pos[nu] for nu, c in cur.terms.items()
                     if pos.get(nu, pos[mu]) < pos[mu] and c.min_degree() <= 0]
            if not dirty:
                break
            offender = order[min(dirty)]
            steps += 1
            if steps > cap:
                raise AssertionError("canonical-basis elimination did not stabilize")
            corr = _bar_symmetric_correction(cur.coefficient(offender))
            cur = cur - G[offender].scale(corr)
            key = (offender, mu)
            nmat[key] = nmat.get(key, LaurentPoly.zero()) + corr
            if not nmat[key]:
                del nmat[key]
        # global-basis congruence: all non-leading coefficients in qZ[q]
        if cur.coefficient(mu) != LaurentPoly.one():
            raise AssertionError(f"leading coefficient of G({mu}) is not 1")
        for lam, c in cur.terms.items():
            if lam != mu and c.min_degree() <= 0:
                raise AssertionError(
                    f"coefficient of {lam} in G({mu}) not in qZ[q]: {c!r}")
        G[mu] = cur
    table = CanonicalBasisTable(p, n, order, A, G, nmat)
    _assert_table_invariants(table)
    return table


def _assert_table_invariants(table: CanonicalBasisTable):
    recon = dict(table.G)
    for (lam, mu), c in table.nmat.items():
        if not c.is_bar_symmetric():
            raise AssertionError(f"nmat({lam},{mu}) is not bar-invariant: {c!r}")
        if lam == mu or not dominates(lam, mu):
            raise AssertionError(f"nmat({lam},{mu}) breaks unitriangularity")
        recon[mu] = recon[mu] + table.G[lam].scale(c)
    for mu in table.order:
        if recon[mu] != table.A[mu]:
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
