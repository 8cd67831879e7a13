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

Every step runs in integer form: a vector is a dict of integer numerators
keyed by entry-position tuples (``StandardTableau.sort_key``) over one common
denominator.  ``seminormal_step`` scales the numerators by the lcm of the
step's denominators (h for d(h), h^2 for e(h) with h < -1) and reports that
factor, so no rational is formed and no tableau is built; sigma_i s is a swap
of two positions.  ``apply_word`` runs a word of steps and reduces the result
by one gcd.  ``SeminormalVector.numerators`` and ``from_numerators`` convert
at the edges, and ``sigma_action``, ``phi_action`` and ``act_by_word`` are
thin wrappers that convert once per call.
"""

import math
from fractions import Fraction

from .tableaux import StandardTableau, ResidueSequence, residue_sequence

Rational = Fraction


class SeminormalVector:
    """Sparse rational combination of seminormal basis vectors of one shape."""

    __slots__ = ("shape", "coeffs")

    def __init__(self, shape, coeffs=None):
        self.shape = tuple(shape)
        self.coeffs = {}
        for t, c in (coeffs or {}).items():
            if c:
                if t.shape != self.shape:
                    raise ValueError(f"{t} is not of shape {self.shape}")
                self.coeffs[t] = Fraction(c)

    @classmethod
    def unit(cls, t: StandardTableau) -> "SeminormalVector":
        return cls(t.shape, {t: Fraction(1)})

    @classmethod
    def from_numerators(cls, shape, coeffs: dict,
                        den: int) -> "SeminormalVector":
        """The vector with coefficient ``c / den`` at the tableau with
        entry-position tuple ``s``, for each item ``s: c`` of ``coeffs``."""
        return cls(shape, {StandardTableau.from_positions(s): Fraction(c, den)
                           for s, c in coeffs.items()})

    def numerators(self) -> tuple:
        """(integer numerators keyed by entry-position tuples, their common
        denominator): the integer form of this vector."""
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        return ({t.sort_key(): c.numerator * (den // c.denominator)
                 for t, c in self.coeffs.items()}, den)

    def coefficient(self, t: StandardTableau) -> Rational:
        return self.coeffs.get(t, Fraction(0))

    def support(self) -> tuple:
        return tuple(sorted(self.coeffs, key=StandardTableau.sort_key))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, SeminormalVector) and self.shape == other.shape
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, Fraction(0)) + c
        return SeminormalVector(self.shape, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a) -> "SeminormalVector":
        return SeminormalVector(self.shape,
                                {t: c * a for t, c in self.coeffs.items()})

    def __repr__(self):
        parts = [f"({c})*xi{list(map(list, t.rows))}"
                 for t, c in sorted(self.coeffs.items(),
                                    key=lambda kv: kv[0].sort_key())]
        return " + ".join(parts) if parts else "0"


def gamma(t: StandardTableau) -> Rational:
    """The seminormal norm <xi_t, xi_t>: over each entry-truncation of t,
    the product of h/(h-1) along the row of the largest entry, hooks of
    length one omitted.  E.g. gamma of any row-reading tableau telescopes
    to the product of the row factorials."""
    num = den = 1
    col = [0] * (t.n + 1)        # column lengths of the truncation to 1..k
    for k in range(1, t.n + 1):
        c = t.position_of(k)[1]
        col[c] += 1
        r = col[c]
        for j in range(1, c):
            h = c - j + col[j] - r + 1
            num *= h
            den *= h - 1
    return Fraction(num, den)


def seminormal_step(i: int, coeffs: dict, p=None) -> tuple:
    """One step xi_s -> d(h) xi_s + e(h) xi_{sigma_i s} on integer numerators
    keyed by entry-position tuples: sigma_i when ``p`` is None, phi_i for the
    prime ``p`` otherwise.  Returns ``(numerators, scale)``: the image is the
    returned numerators over ``scale`` times the input's denominator, where
    ``scale`` is the lcm of the denominators d(h) and e(h) take here."""
    hs = []
    scale = 1
    for s in coeffs:
        (a, b), (c, d) = s[i - 2], s[i - 1]
        h = b - a - d + c
        hs.append(h)
        den = h * h if h < -1 else abs(h) if p is None or h % p == 0 else 1
        if scale % den:
            scale = math.lcm(scale, den)
    out = {}
    for (s, c), h in zip(coeffs.items(), hs):
        if p is None:
            diag = -c * (scale // h)
        elif h % p == 0:
            diag = c * (h - 1) * (scale // h)
        else:
            diag = 0
        if diag:
            out[s] = out.get(s, 0) + diag
        if h > 1 or h < -1:
            t = s[:i - 2] + (s[i - 1], s[i - 2]) + s[i:]
            out[t] = out.get(t, 0) + (
                c * scale if h > 1 else c * (h * h - 1) * (scale // (h * h)))
    return {s: c for s, c in out.items() if c}, scale


def reduce_numerators(coeffs: dict, den: int) -> tuple:
    """Drop zero numerators and divide the rest and ``den`` by their gcd."""
    g = math.gcd(den, *coeffs.values())
    return {s: c // g for s, c in coeffs.items() if c}, den // g


def apply_word(word, coeffs: dict, den: int, p=None) -> tuple:
    """The integer-form vector ``coeffs / den`` acted on by a word in product
    order (rightmost letter first), by sigma_i or, for a prime ``p``, by
    phi_i; the result is reduced by one gcd."""
    for i in reversed(word):
        coeffs, scale = seminormal_step(i, coeffs, p)
        den *= scale
    return reduce_numerators(coeffs, den)


def act_by_word(word, v: SeminormalVector, p=None) -> SeminormalVector:
    """Apply a product of generators given as a word in product order; the
    rightmost factor acts first, so letters are consumed in reverse.  The
    generators are sigma_i, or phi_i for the prime ``p`` when it is given."""
    return SeminormalVector.from_numerators(
        v.shape, *apply_word(word, *v.numerators(), p))


def sigma_action(i: int, v: SeminormalVector) -> SeminormalVector:
    """The seminormal action of sigma_i = (i-1, i), extended linearly."""
    return act_by_word((i,), v)


def jm_action(k: int, v: SeminormalVector) -> SeminormalVector:
    """The Jucys-Murphy element L_k, diagonal with content eigenvalues
    (the k = 1 convention L_1 = 0 is the content of the (1,1) node)."""
    return SeminormalVector(v.shape,
                            {t: c * t.content(k) for t, c in v.coeffs.items()})


def phi_action(i: int, v: SeminormalVector, p: int) -> SeminormalVector:
    """The intertwiner phi_i = sigma_i + 1/(L_{i-1} - L_i), extended linearly;
    the regular/singular split is decided termwise by p | h."""
    return act_by_word((i,), v, p)


def inner_product(u: SeminormalVector, v: SeminormalVector) -> Rational:
    """The invariant form, diagonal on the seminormal basis with norms gamma."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    small, big = (u.coeffs, v.coeffs) if len(u.coeffs) <= len(v.coeffs) \
        else (v.coeffs, u.coeffs)
    out = Fraction(0)
    for t, c in small.items():
        d = big.get(t)
        if d:
            out += c * d * gamma(t)
    return out


def class_project(rs: ResidueSequence, v: SeminormalVector) -> SeminormalVector:
    """Restrict to the basis vectors whose residue sequence equals rs."""
    return SeminormalVector(v.shape,
                            {t: c for t, c in v.coeffs.items()
                             if residue_sequence(t, rs.p) == rs})
