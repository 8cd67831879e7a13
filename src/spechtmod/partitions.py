"""Partitions, nodes, residues, hooks, dominance, and the ladder decomposition.

A partition is a weakly decreasing tuple of positive integers; ``()`` is the
empty partition of 0.  Nodes of the Young diagram are 1-based ``(row, col)``
pairs; the node ``(i, j)`` has content ``j - i`` and, for an odd prime ``p``,
residue ``(j - i) mod p``.

For a fixed ``p``, the ladder through ``(i, j)`` is the set of diagram nodes on
the line ``j = b - (p-1)(i-1)`` (slope ``1/(p-1)`` in matrix coordinates); the
residue is constant along each ladder.  Filling the diagram ladder by ladder,
smallest ladder first and top to bottom inside each ladder, yields the ladder
tableau of a p-restricted partition, the combinatorial backbone of the
eigenspace algorithm in :mod:`spechtmod.ranks`.
"""

import operator
from bisect import bisect_right
from itertools import accumulate, compress, cycle

Partition = tuple
Node = tuple


def check_partition(parts) -> Partition:
    """Normalize ``parts`` to a partition tuple, dropping trailing zeros.

    >>> check_partition([3, 2, 0])
    (3, 2)
    """
    parts = list(map(int, parts))
    while parts and parts[-1] == 0:
        parts.pop()
    parts = tuple(parts)
    if parts and min(parts) <= 0:
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(map(operator.lt, parts, parts[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def all_partitions(n: int) -> tuple:
    """All partitions of ``n`` in canonical order (descending lexicographic)."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(m, max_part):
        if m == 0:
            yield ()
            return
        for first in range(min(m, max_part), 0, -1):
            for rest in gen(m - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def is_p_restricted(lam: Partition, p: int) -> bool:
    """True iff every difference ``lam[i] - lam[i+1]`` (last part included,
    against 0) is strictly less than ``p``."""
    lam = tuple(lam)
    return all(lam[i] - (lam[i + 1] if i + 1 < len(lam) else 0) < p
               for i in range(len(lam)))


def restricted_partitions(n: int, p: int) -> tuple:
    """All p-restricted partitions of ``n``, most dominant first.

    >>> restricted_partitions(5, 3)
    ((3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    # tail[a]: the least size of the parts after a part a, which step down
    # by p - 1 to a part below p
    tail = [0] * (n + 1)
    for a in range(p, n + 1):
        tail[a] = a - p + 1 + tail[a - p + 1]
    out = []

    def fill(prefix, m, low, high):
        # the parts of m after ``prefix``, the next one in [low, high]; a
        # part is tried only when the rest can be completed
        if m == 0:
            out.append(prefix)
            return
        for first in range(min(m, high), low - 1, -1):
            if m - first >= tail[first]:
                fill(prefix + (first,), m - first, max(first - p + 1, 1), first)

    fill((), n, 1, n)
    return tuple(out)


def dominates(lam: Partition, mu: Partition) -> bool:
    """True iff lam is dominance-greater-or-equal to mu.  Partial sums are
    compared up to the shorter length: there mu's last one is n, which lam
    reaches only if it is no longer than mu, and lam's ones stay at n."""
    if sum(lam) != sum(mu):
        raise ValueError(
            f"dominance needs equal sizes: {tuple(lam)} vs {tuple(mu)}")
    return all(map(operator.ge, accumulate(lam), accumulate(mu)))


def total_order_key(lam: Partition) -> tuple:
    """Sort key for the canonical total order (most dominant first).

    Descending lexicographic comparison of parts refines dominance: for equal
    sizes, ``lam`` dominating ``mu`` forces ``lam`` >= ``mu`` lexicographically,
    and incomparable pairs are broken larger-lexicographic first.
    """
    return tuple(-a for a in lam)


def node_residue(node: Node, p: int) -> int:
    i, j = node
    return (j - i) % p


def all_addable_nodes(lam: Partition) -> tuple:
    """Nodes whose addition gives a partition, by increasing row: one at the
    end of the first row of each run of equal parts, found by bisection, and
    the node below the last row."""
    lam = tuple(lam)
    out, r = [], 0
    while r < len(lam):
        out.append((r + 1, lam[r] + 1))
        r = bisect_right(lam, -lam[r], r, key=operator.neg)
    out.append((len(lam) + 1, 1))
    return tuple(out)


def addable_nodes(lam: Partition, i: int, p: int) -> tuple:
    """Addable nodes of residue ``i`` (mod p), by increasing row."""
    lam = tuple(lam)
    i %= p
    out = []
    above = None
    for r, row in enumerate(lam, 1):
        if (above is None or row < above) and (row + 1 - r) % p == i:
            out.append((r, row + 1))
        above = row
    if -len(lam) % p == i:          # the node (len + 1, 1) below the last row
        out.append((len(lam) + 1, 1))
    return tuple(out)


def hook_lengths(lam: Partition) -> dict:
    """Map node -> hook length (arm + leg + 1)."""
    lam = tuple(lam)
    conj = conjugate(lam)
    return {(i, j): (lam[i - 1] - j) + (conj[j - 1] - i) + 1
            for i in range(1, len(lam) + 1)
            for j in range(1, lam[i - 1] + 1)}


def conjugate(lam: Partition) -> Partition:
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a >= j) for j in range(1, lam[0] + 1))


def standard_tableau_count(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook-length formula."""
    lam = check_partition(lam)
    n = sum(lam)
    num = 1
    for k in range(2, n + 1):
        num *= k
    den = 1
    for h in hook_lengths(lam).values():
        den *= h
    return num // den


def ladder_index(node: Node, p: int) -> int:
    """The b with ``j = b - (p-1)(i-1)``, i.e. the ladder containing the node."""
    i, j = node
    return j + (p - 1) * (i - 1)


class _Record:
    """A record of the fields named by ``__slots__``, in that order: built
    from positional or keyword values (``_defaults`` for the ones left
    out), compared and hashed by its values, shown as ``Name(field=value,
    ...)``, and read-only once built unless a subclass allows assignment.
    Unlike a dataclass it has no ``__dict__``, ``__match_args__`` or
    ``dataclasses.fields``; build a changed copy with the constructor."""

    __slots__ = ("__weakref__",)
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                            f"got {len(args)} values and {sorted(kwargs)}")
        values = {**self._defaults, **kwargs, **dict(zip(names, args))}
        for key in names:
            if key not in values:
                raise TypeError(f"{type(self).__name__} is missing the field "
                                f"{key!r}")
            object.__setattr__(self, key, values[key])

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{key}={value!r}" for key, value in
            zip(self.__slots__, self._values())) + ")"

    def __reduce__(self):
        return type(self), self._values()


class LadderData(_Record):
    """Ladder decomposition of a p-restricted partition.

    ``ladders[k]`` lists the nodes of the (k+1)-st nonempty ladder, top to
    bottom; ``limits`` holds the running totals ``n_0 = 0, n_1, ..., n_m = n``;
    ``ladder_group_intervals`` are the entry intervals ``[n_{k-1}+1, n_k]`` on
    which the ladder group (a direct product of symmetric groups) acts.  The
    ladder tableau and its residue sequence are built when read.
    """

    __slots__ = ("partition", "p", "ladders", "sizes", "residues", "limits",
                 "ladder_group_intervals")

    @property
    def ladder_tableau(self):
        """The tableau filling 1..n smallest ladder first, top to bottom
        within each ladder."""
        from .tableaux import StandardTableau

        entry_of = {node: k for k, node in enumerate(
            (node for L in self.ladders for node in L), start=1)}
        return StandardTableau(
            tuple(entry_of[(i, j)] for j in range(1, part + 1))
            for i, part in enumerate(self.partition, start=1))

    @property
    def ladder_residue_sequence(self):
        """The residue sequence of the ladder tableau, constant on each
        entry interval."""
        from .tableaux import ResidueSequence

        return ResidueSequence(self.p, tuple(
            r for r, m in zip(self.residues, self.sizes) for _ in range(m)))

    def ladders_below_p(self) -> bool:
        """True iff every ladder has length < p, so that the ladder-group
        symmetrizers 1/|L_k|! exist mod p (true when there is no ladder)."""
        return max(self.sizes, default=0) < self.p

    def ladder_group_order(self) -> int:
        order = 1
        for m in self.sizes:
            for k in range(2, m + 1):
                order *= k
        return order


def ladder_decomposition(lam: Partition, p: int) -> LadderData:
    """Full ladder data of a p-restricted partition.

    Non-p-restricted input is rejected (its ladder tableau would be broken).
    """
    lam = check_partition(lam)
    if not is_p_restricted(lam, p):
        raise ValueError(f"{lam} is not {p}-restricted")
    by_b = {}
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            by_b.setdefault(ladder_index((i, j), p), []).append((i, j))
    ladders = tuple(tuple(sorted(by_b[b])) for b in sorted(by_b))
    sizes = tuple(len(L) for L in ladders)
    residues = tuple(node_residue(L[0], p) for L in ladders)
    limits = [0]
    for m in sizes:
        limits.append(limits[-1] + m)
    intervals = tuple((limits[k] + 1, limits[k + 1]) for k in range(len(sizes)))
    return LadderData(lam, p, ladders, sizes, residues, tuple(limits),
                      intervals)


def _steps_of(mu: Partition, p: int) -> tuple:
    """The (residue, size) of each nonempty ladder of the p-restricted
    partition mu, smallest ladder first.

    Row i (0-based) holds one node on each of the ladders (p-1)i + 1 ...
    (p-1)i + mu[i], so one running count of row starts less row ends gives
    every ladder size, and ladder b has residue (b - 1) mod p."""
    count = [0] * ((p - 1) * len(mu) + max(mu, default=0) + 1)
    for i, part in enumerate(mu):
        count[(p - 1) * i] += 1
        count[(p - 1) * i + part] -= 1
    sizes = list(accumulate(count))
    return tuple(compress(zip(cycle(range(p)), sizes), sizes))


def validate_ladder_lengths(lam: Partition, p: int) -> bool:
    """True iff every ladder of lam has length < p (so that the ladder-group
    symmetrizers 1/|L_k|! exist mod p); guaranteed whenever ``|lam| < p**2``."""
    return ladder_decomposition(lam, p).ladders_below_p()
