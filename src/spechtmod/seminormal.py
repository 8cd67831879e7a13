r"""Young's seminormal form over exact rationals.

The rational Specht module of shape lam has the seminormal basis
``{xi_t : t standard of shape lam}`` of simultaneous eigenvectors of the
Jucys-Murphy elements, ``L_k xi_t = c_t(k) xi_t``.  With
``h = c_s(i-1) - c_s(i)`` (never zero for a standard s) and ``t = sigma_i s``
(standard exactly when |h| > 1), the Coxeter generator sigma_i = (i-1, i) and
the intertwiner phi_i = sigma_i + 1/(L_{i-1} - L_i) both act by one step

    xi_s  ->  d(h) xi_s + e(h) xi_t,    e(h) = 1            if h >  1
                                        e(h) = (h^2-1)/h^2  if h < -1
                                        e(h) = 0            if |h| = 1

and differ only in the diagonal rule d(h):

    sigma_i:  d(h) = -1/h, so xi_s -> xi_s when i-1, i are adjacent in a row
              (h = -1) and xi_s -> -xi_s when adjacent in a column (h = 1);
    phi_i:    d(h) = (h-1)/h when p | h (the singular case, where sigma_i s
              stays in the class of s), else 0, so phi_i kills the |h| = 1
              directions.

phi_i moves vectors between tableau classes (equal residue sequences mod p).
The invariant bilinear form is diagonal, <xi_s, xi_t> = delta_st gamma_s,
where gamma_s is a product of hook quotients over the entry-truncations of s.

A vector is held in integer form only: integer numerators keyed by
entry-position tuples (``StandardTableau.sort_key``) over one positive common
denominator, reduced by their gcd, so equal vectors have equal forms.  Its
``coeffs``, ``{StandardTableau: Fraction}``, is a view built when read.
``seminormal_step`` scales the numerators by the lcm of the step's
denominators (h for d(h), h^2 for e(h) with h < -1) and reports that factor,
so no rational is formed and no tableau is built; sigma_i s is a swap of two
positions.  ``act_by_word`` runs a word of steps and reduces the result by one
gcd, and ``sigma_action`` and ``phi_action`` are one-letter words.  ``norm``
gives gamma as an integer pair from the position tuple; the chain walks of
``ranks`` instead carry such pairs from each position to the ones they
reach.  ``step_factors`` is the per-term rule, d(h), e(h) and the norm
ratio, that ``seminormal_step`` and those walks both apply.
"""

import math
from fractions import Fraction

from .tableaux import StandardTableau, ResidueSequence


class SeminormalVector:
    """Sparse rational combination of seminormal basis vectors of one shape:
    numerators ``nums`` keyed by entry-position tuples over ``den``."""

    __slots__ = ("shape", "nums", "den")

    def __init__(self, shape, coeffs=None):
        self.shape = tuple(shape)
        coeffs = {t: Fraction(c) for t, c in (coeffs or {}).items() if c}
        for t in coeffs:
            if t.shape != self.shape:
                raise ValueError(f"{t} is not of shape {self.shape}")
        # over the lcm of lowest-terms denominators the gcd is already 1
        self.den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.nums = {t.sort_key(): c.numerator * (self.den // c.denominator)
                     for t, c in coeffs.items()}

    @classmethod
    def unit(cls, t: StandardTableau) -> "SeminormalVector":
        return cls.from_numerators(t.shape, {t.sort_key(): 1}, 1)

    @classmethod
    def from_numerators(cls, shape, nums: dict,
                        den: int) -> "SeminormalVector":
        """The vector with coefficient ``c / den`` (``den > 0``) at the
        tableau with entry-position tuple ``s``, for each item ``s: c`` of
        ``nums``; zeros are dropped and the rest reduced by one gcd."""
        v = cls.__new__(cls)
        v.shape = tuple(shape)
        v.nums, v.den = reduce_numerators(nums, den)
        return v

    @property
    def coeffs(self) -> dict:
        """The rational view ``{StandardTableau: Fraction}``, built anew."""
        return {StandardTableau.from_positions(s): Fraction(c, self.den)
                for s, c in self.nums.items()}

    def coefficient(self, t: StandardTableau) -> Fraction:
        return Fraction(self.nums.get(t.sort_key(), 0), self.den)

    def support(self) -> tuple:
        return tuple(map(StandardTableau.from_positions, sorted(self.nums)))

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        return (isinstance(other, SeminormalVector) and self.shape == other.shape
                and self.den == other.den and self.nums == other.nums)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        den = math.lcm(self.den, other.den)
        out = {s: c * (den // self.den) for s, c in self.nums.items()}
        for s, c in other.nums.items():
            out[s] = out.get(s, 0) + c * (den // other.den)
        return SeminormalVector.from_numerators(self.shape, out, den)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a) -> "SeminormalVector":
        a = Fraction(a)
        return SeminormalVector.from_numerators(
            self.shape, {s: c * a.numerator for s, c in self.nums.items()},
            self.den * a.denominator)

    def __repr__(self):
        parts = [f"({c})*xi{list(map(list, t.rows))}"
                 for t, c in sorted(self.coeffs.items())]
        return " + ".join(parts) if parts else "0"


def reduce_numerators(nums: dict, den: int) -> tuple:
    """``(nums, den)`` with the zeros dropped and the rest divided by one
    gcd: the integer form of the vector with coefficients ``c / den``."""
    g = math.gcd(den, *nums.values())
    return {s: c // g for s, c in nums.items() if c}, den // g


def norm(positions) -> tuple:
    """The seminormal norm <xi_t, xi_t> as a lowest-terms pair (numerator,
    denominator), for the tableau t with entry-position tuple ``positions``:
    over each entry-truncation of t, the product of h/(h-1) along the row of
    the largest entry, hooks of length one omitted."""
    num = den = 1
    col = [0] * (len(positions) + 1)  # column lengths of the truncation
    for r, c in positions:
        col[c] = r
        for j in range(1, c):
            h = c - j + col[j] - r + 1
            num *= h
            den *= h - 1
    g = math.gcd(num, den)
    return num // g, den // g


def gamma(t: StandardTableau) -> Fraction:
    """The seminormal norm <xi_t, xi_t> (see ``norm``).  E.g. gamma of any
    row-reading tableau telescopes to the product of the row factorials."""
    return Fraction(*norm(t.sort_key()))


def step_factors(h: int, p=None) -> tuple:
    """The per-term rule of one step at ``h = c_s(i-1) - c_s(i)``, as
    ``(diagonal, swap, ratio)``: the factors d(h) of xi_s and e(h) of
    xi_{sigma_i s} (sigma_i when ``p`` is None, phi_i for the prime ``p``
    otherwise) and the norm ratio gamma(sigma_i s) / gamma(s), each a pair
    (numerator, positive denominator), or None where the factor is 0 (for
    the swap and the ratio: |h| = 1, where sigma_i s is not standard).  The
    form is sigma_i-invariant, so the ratio is (h^2-1)/h^2 when h > 1 and
    h^2/(h^2-1) when h < -1."""
    if p is None:
        diagonal = (-1, h) if h > 0 else (1, -h)
    elif h % p == 0:
        diagonal = (h - 1, h) if h > 0 else (1 - h, -h)
    else:
        diagonal = None
    if h == 1 or h == -1:
        return diagonal, None, None
    hh = h * h
    if h > 1:
        return diagonal, (1, 1), (hh - 1, hh)
    return diagonal, (hh - 1, hh), (hh, hh - 1)


def seminormal_step(i: int, coeffs: dict, p=None) -> tuple:
    """One step xi_s -> d(h) xi_s + e(h) xi_{sigma_i s} on integer numerators
    keyed by entry-position tuples: sigma_i when ``p`` is None, phi_i for the
    prime ``p`` otherwise, termwise by ``step_factors``.  Returns
    ``(numerators, scale)``: the image is the returned numerators over
    ``scale`` times the input's denominator, where ``scale`` is the lcm of
    the denominators d(h) and e(h) take here."""
    rules = []
    scale = 1
    for s in coeffs:
        (a, b), (c, d) = s[i - 2], s[i - 1]
        rule = diagonal, swap, _ = step_factors(b - a - d + c, p)
        rules.append(rule)
        if diagonal and scale % diagonal[1]:
            scale = math.lcm(scale, diagonal[1])
        if swap and scale % swap[1]:
            scale = math.lcm(scale, swap[1])
    out = {}
    for (s, c), (diagonal, swap, _) in zip(coeffs.items(), rules):
        if diagonal:
            out[s] = out.get(s, 0) + c * diagonal[0] * (scale // diagonal[1])
        if swap:
            t = s[:i - 2] + (s[i - 1], s[i - 2]) + s[i:]
            out[t] = out.get(t, 0) + c * swap[0] * (scale // swap[1])
    return {s: c for s, c in out.items() if c}, scale


def act_by_word(word, v: SeminormalVector, p=None) -> SeminormalVector:
    """Apply a product of generators given as a word in product order; the
    rightmost factor acts first, so letters are consumed in reverse.  The
    generators are sigma_i, or phi_i for the prime ``p`` when it is given."""
    nums, den = v.nums, v.den
    for i in reversed(word):
        nums, scale = seminormal_step(i, nums, p)
        den *= scale
    return SeminormalVector.from_numerators(v.shape, nums, den)


def sigma_action(i: int, v: SeminormalVector) -> SeminormalVector:
    """The seminormal action of sigma_i = (i-1, i), extended linearly."""
    return act_by_word((i,), v)


def jm_action(k: int, v: SeminormalVector) -> SeminormalVector:
    """The Jucys-Murphy element L_k, diagonal with content eigenvalues
    (the k = 1 convention L_1 = 0 is the content of the (1,1) node)."""
    return SeminormalVector.from_numerators(
        v.shape, {s: c * (s[k - 1][1] - s[k - 1][0])
                  for s, c in v.nums.items()}, v.den)


def phi_action(i: int, v: SeminormalVector, p: int) -> SeminormalVector:
    """The intertwiner phi_i = sigma_i + 1/(L_{i-1} - L_i), extended linearly;
    the regular/singular split is decided termwise by p | h."""
    return act_by_word((i,), v, p)


def inner_product(u: SeminormalVector, v: SeminormalVector) -> Fraction:
    """The invariant form, diagonal on the seminormal basis with norms gamma,
    summed over the rational views: the reference for ``ranks.gram_matrix``."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    small, big = sorted((u.coeffs, v.coeffs), key=len)
    out = Fraction(0)
    for t, c in small.items():
        d = big.get(t)
        if d:
            out += c * d * gamma(t)
    return out


def class_project(rs: ResidueSequence, v: SeminormalVector) -> SeminormalVector:
    """Restrict to the basis vectors whose residue sequence equals rs."""
    return SeminormalVector.from_numerators(
        v.shape, {s: c for s, c in v.nums.items()
                  if tuple((j - i) % rs.p for i, j in s) == rs.values}, v.den)
