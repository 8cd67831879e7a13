"""Standard tableaux, residue sequences, the ladder classes T_{mu,lambda},
orbit representatives, and reduced words.

Tableaux are stored row-wise as tuples of tuples.  All tableau orderings are
lexicographic on the entry-position sequence (the node of 1, then of 2, ...),
so enumerations are reproducible run to run.

Every set of tableaux listed here comes from one forward walk, ``_fill``:
start from the empty diagram and, at each step, add nodes of the step's
residue in every possible way, keeping a frontier of the entry-position tuples
that reach each shape.  One step is ``_extend``, which leaves the frontier it
starts from as it is, so walks that share their first steps can share those
frontiers: ``verify.m_matrix`` keeps them on a path stack.  Two standard
tableaux are p-equivalent when their residue sequences agree.  The class of
a residue sequence is the walk with one node per step along it;
``ladder_class_of_shape`` keeps the members of the class of the ladder
tableau of mu that fit in a fixed shape, the index set T_{mu,lambda} of the
eigenspace algorithm.  ``standard_tableaux`` is the walk with any addable
node inside the shape at each step.

The ladder group of mu permutes the entries within each ladder interval and
acts freely on that class.  ``ladder_orbit_positions`` lists one member per
orbit, the one whose interval entries go down the rows, without listing the
class: at interval k of m entries the walk fills an m-subset of the addable
nodes of residue iota_k, top to bottom.  Adding an i-node creates and destroys
no other addable i-node (p >= 3), so these subsets are all the choices; this
is the subset form of the divided power f_i^(m).

Permutations act on tableaux on the left by place permutation: applying g
replaces entry k by g(k).  The permutation d(t) with d(t) t^lam = t (t^lam the
row-reading tableau) is factored into adjacent transpositions
sigma_i = (i-1, i), 2 <= i <= n, by a deterministic bubble sort;
``canonical_word`` reads the same 'canonical' word off the entry positions.
"""

from itertools import combinations

from .partitions import (Partition, Node, _Record, check_partition,
                         addable_nodes, all_addable_nodes,
                         ladder_decomposition)


class StandardTableau:
    """A standard filling of a partition shape, stored as row tuples."""

    __slots__ = ("rows", "_positions")

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)
        pos = {}
        for i, row in enumerate(self.rows, start=1):
            for j, entry in enumerate(row, start=1):
                pos[entry] = (i, j)
        self._positions = pos

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    @classmethod
    def from_positions(cls, node_seq) -> "StandardTableau":
        """The tableau with entry k at ``node_seq[k-1]``, for the
        entry-position sequence of a standard tableau (its ``sort_key``);
        not checked."""
        rows = []
        for k, (i, _j) in enumerate(node_seq, start=1):
            if i > len(rows):
                rows.append([])
            rows[i - 1].append(k)
        t = cls.__new__(cls)
        t.rows = tuple(map(tuple, rows))
        t._positions = dict(enumerate(node_seq, start=1))
        return t

    @property
    def n(self) -> int:
        return len(self._positions)

    def position_of(self, k: int) -> Node:
        return self._positions[k]

    def entry_at(self, node: Node) -> int:
        i, j = node
        return self.rows[i - 1][j - 1]

    def content(self, k: int) -> int:
        i, j = self._positions[k]
        return j - i

    def sort_key(self) -> tuple:
        return tuple(map(self._positions.__getitem__,
                         range(1, len(self._positions) + 1)))

    def __eq__(self, other):
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"StandardTableau({list(map(list, self.rows))})"


def is_standard_rows(rows) -> bool:
    """True iff ``rows`` is a standard filling of a partition shape by 1..n."""
    rows = tuple(tuple(row) for row in rows)
    lengths = [len(row) for row in rows]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    if any(ln == 0 for ln in lengths):
        return False
    entries = [e for row in rows for e in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in rows:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(rows) - 1):
        for j in range(len(rows[i + 1])):
            if rows[i][j] >= rows[i + 1][j]:
                return False
    return True


def from_rows(rows) -> StandardTableau:
    if not is_standard_rows(rows):
        raise ValueError(f"not a standard tableau: {rows}")
    return StandardTableau(rows)


def row_reading_tableau(lam: Partition) -> StandardTableau:
    """The tableau t^lam filled 1..n along rows, top to bottom.

    >>> row_reading_tableau((2, 1)).rows
    ((1, 2), (3,))
    """
    lam = check_partition(lam)
    rows, k = [], 1
    for a in lam:
        rows.append(tuple(range(k, k + a)))
        k += a
    return StandardTableau(rows)


def standard_tableaux(lam: Partition) -> tuple:
    """All standard tableaux of shape lam, lexicographic on position sequences."""
    lam = check_partition(lam)
    return _tableaux(_fill([(None, 1)] * sum(lam), None, lam)[lam])


def _grown(shape: Partition, nodes) -> Partition:
    """``shape`` with ``nodes`` added.  The nodes are addable nodes of
    ``shape`` in distinct rows, as the enumerations here take them, so the
    result is a partition and is not checked again."""
    parts = list(shape) + [0]
    for r, _c in nodes:
        parts[r - 1] += 1
    return tuple(parts) if parts[-1] else tuple(parts[:-1])


class ResidueSequence(_Record):
    """A length-n word over Z/p: position k holds the residue of entry k."""

    __slots__ = ("p", "values")

    def swap(self, i: int) -> "ResidueSequence":
        """The sequence with positions i-1 and i exchanged (action of sigma_i)."""
        v = list(self.values)
        v[i - 2], v[i - 1] = v[i - 1], v[i - 2]
        return ResidueSequence(self.p, tuple(v))


def residue_sequence(t: StandardTableau, p: int) -> ResidueSequence:
    return ResidueSequence(p, tuple(t.content(k) % p for k in range(1, t.n + 1)))


_CLASS_CAP = 40


def check_class_cap(n: int, allow_large=None) -> None:
    """Refuse a class enumeration of size n > _CLASS_CAP unless allowed.

    A caller with an override to offer passes ``allow_large`` as a bool (the
    class enumerations, ``gram_report``, the ``rank`` command), and the
    message names the flag.  ``allow_large=None`` marks a caller with none
    (``verify``, ``fock``), so its message names the cap only."""
    if n > _CLASS_CAP and not allow_large:
        if allow_large is None:
            raise ValueError(
                f"class enumeration is capped at n = {_CLASS_CAP}, got n={n}")
        raise ValueError(
            f"class enumeration with n={n} > {_CLASS_CAP} needs "
            "allow_large=True (--allow-large)")


def ladder_class_of_shape(mu: Partition, lam: Partition, p: int,
                          allow_large: bool = False) -> tuple:
    """T_{mu,lam}: the shape-lam members of the class of the ladder tableau of mu."""
    mu, lam = check_partition(mu), check_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError(f"size mismatch: {mu} vs {lam}")
    check_class_cap(sum(mu), allow_large)
    return _class_of_shape(ladder_decomposition(mu, p), lam)


def _class_of_shape(ld, lam) -> tuple:
    """``ladder_class_of_shape`` for the ladder data ``ld`` of mu, with no
    check of size or cap: one node of the ladder's residue per entry."""
    steps = [(r, 1) for r, m in zip(ld.residues, ld.sizes) for _ in range(m)]
    return _tableaux(_fill(steps, ld.p, lam).get(lam, ()))


def ladder_orbit_positions(mu: Partition, p: int, target=None,
                           allow_large: bool = False) -> dict:
    """One member per ladder-group orbit of the class of the ladder tableau of
    mu, as ``{shape: [entry-position tuple, ...]}`` (shape ``target`` only,
    when given), each list in ``sort_key`` order.

    The representative of an orbit is its member whose entries in each ladder
    interval go down the rows: the walk's step k adds a ``|L_k|``-subset of
    the addable nodes of residue iota_k, filled top to bottom.
    """
    mu = check_partition(mu)
    if target is not None and sum(target) != sum(mu):
        raise ValueError(f"size mismatch: {mu} vs {target}")
    check_class_cap(sum(mu), allow_large)
    frontier = _orbit_positions(ladder_decomposition(mu, p), target)
    for seqs in frontier.values():
        seqs.sort()
    return frontier


def _orbit_positions(ld, target=None) -> dict:
    """``ladder_orbit_positions`` for the ladder data ``ld`` of mu, with no
    check of size or cap, each list unsorted: a caller sorts the lists it
    reads."""
    return _fill(zip(ld.residues, ld.sizes), ld.p, target)


def _fill(steps, p, target=None) -> dict:
    """The forward walk: ``{shape: [entry-position tuple, ...]}`` over every
    way of taking, at each step ``(residue, m)``, an m-subset of the addable
    nodes of that residue (any addable node when the residue is None), inside
    ``target`` when one is given, filled top to bottom.  A frontier of the
    tuples reaching each shape is extended one step at a time (``_extend``);
    the lists come out unsorted."""
    frontier = {(): [()]}
    for residue, m in steps:
        frontier = _extend(frontier, residue, m, p, target)
    return frontier


def _extend(frontier, residue, m, p, target=None) -> dict:
    """One step ``(residue, m)`` of ``_fill`` from ``frontier``, as a new
    frontier; ``frontier`` and its lists are left as they are, so a caller
    may extend one frontier along several paths."""
    grown = {}
    for shape, seqs in frontier.items():
        nodes = (all_addable_nodes(shape) if residue is None
                 else addable_nodes(shape, residue, p))
        if target is not None:
            nodes = [g for g in nodes
                     if g[0] <= len(target) and g[1] <= target[g[0] - 1]]
        for subset in combinations(nodes, m):
            grown.setdefault(_grown(shape, subset), []).extend(
                s + subset for s in seqs)
    return grown


def _tableaux(seqs) -> tuple:
    """The tableaux with the given entry-position tuples, in ``sort_key``
    order."""
    return tuple(map(StandardTableau.from_positions, sorted(seqs)))


class PermutationWord(_Record):
    """A permutation in one-line notation together with a reduced word in the
    generators sigma_i = (i-1, i); the word is in product order, so composing
    sigma_{word[0]} sigma_{word[1]} ... reproduces ``one_line``."""

    __slots__ = ("one_line", "word")


def reduced_word(one_line: tuple, strategy: str = "canonical") -> tuple:
    """A reduced word for ``one_line`` in product order.

    'canonical' repeatedly locates the smallest i >= 2 whose values i-1, i are
    inverted, records i, and left-multiplies by sigma_i; 'reverse' takes the
    largest such i instead.  Both run in at most inversion-count steps.
    """
    if strategy not in ("canonical", "reverse"):
        raise ValueError(f"unknown word strategy {strategy!r}")
    if sorted(one_line) != list(range(1, len(one_line) + 1)):
        raise ValueError(f"{one_line} is not a permutation of 1..n")
    n = len(one_line)
    pos = [0] * (n + 1)
    for idx, val in enumerate(one_line):
        pos[val] = idx
    word = []
    while True:
        found = None
        candidates = range(2, n + 1) if strategy == "canonical" else range(n, 1, -1)
        for i in candidates:
            if pos[i] < pos[i - 1]:
                found = i
                break
        if found is None:
            break
        word.append(found)
        pos[found - 1], pos[found] = pos[found], pos[found - 1]
    return tuple(word)


def d_permutation(t: StandardTableau) -> tuple:
    """One-line form of d(t), the place permutation with d(t) t^lam = t."""
    tlam = row_reading_tableau(t.shape)
    return tuple(t.entry_at(tlam.position_of(k)) for k in range(1, t.n + 1))


def d_reduced_word(t: StandardTableau, strategy: str = "canonical") -> PermutationWord:
    """d(t) with a deterministic reduced word; word length = inversion count."""
    one_line = d_permutation(t)
    return PermutationWord(one_line, reduced_word(one_line, strategy))


def canonical_word(positions) -> tuple:
    """``reduced_word(d_permutation(t))`` for the standard tableau t with
    entry-position tuple ``positions``, read off the positions with no
    permutation built: with c_j the number of entries smaller than j in
    rows strictly below the row of j, it is the concatenation of j, j-1,
    ..., j-c_j+1 over j = 2..n.

    >>> canonical_word(((1, 1), (2, 1), (1, 2)))    # rows (1, 3), (2,)
    (3,)
    """
    word, last = [], 0                    # the lowest row so far
    in_row = [0] * (len(positions) + 2)   # entries so far in each row
    for j, (r, _c) in enumerate(positions, start=1):
        if r < last:                      # c_j > 0: a lower row has entries
            word.extend(range(j, j - sum(in_row[r + 1:last + 1]), -1))
        else:
            last = r
        in_row[r] += 1
    return tuple(word)
