"""Independent brute-force oracles for the test suite.

Everything in this file is written from scratch against textbook definitions:
tabloid models of Specht modules, explicit permutation actions, dense exact
linear algebra over Fraction and over Z/p.  It deliberately imports nothing
from the package under test, so agreement between the two is meaningful.

The central object is the tabloid model.  For a shape ``lam`` the model is
built on the conjugate diagram: the vector space spanned by the row-tabloids
of ``conjugate(lam)``, with the symmetric group acting by relabeling entries
times the sign of the permutation.  The polytabloid span inside it is a copy
of the Specht module whose simple quotient in characteristic p survives
exactly when ``lam`` is p-restricted, and its Jucys-Murphy spectrum matches
the content vectors of the standard tableaux of ``lam`` itself.  The tabloid
basis is orthonormal, so Gram matrices are plain dot products.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------- partitions

def partitions_of(n, largest=None):
    """All partitions of n, each a tuple, no order promised."""
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions_of(n - first, first))
    return out


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a >= j) for j in range(1, lam[0] + 1))


def dominates_leq(a, b):
    """True iff a is dominated by b (b is greater or equal)."""
    sa = sb = 0
    for k in range(max(len(a), len(b))):
        sa += a[k] if k < len(a) else 0
        sb += b[k] if k < len(b) else 0
        if sb < sa:
            return False
    return True


def restricted_of(n, p):
    out = []
    for lam in partitions_of(n):
        padded = lam + (0,)
        if all(padded[i] - padded[i + 1] < p for i in range(len(lam))):
            out.append(lam)
    return out


def standard_fillings(shape):
    """Standard tableaux of ``shape`` by the grow-one-row-at-a-time walk."""
    n = sum(shape)
    rows = [[] for _ in shape]

    def walk(k):
        if k > n:
            yield tuple(tuple(r) for r in rows)
            return
        for i, row in enumerate(rows):
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(k)
                yield from walk(k + 1)
                row.pop()

    return list(walk(1))


def ladder_residues(mu, p):
    """The residue word of the ladder tableau of mu: nodes grouped by
    j + (p-1)(i-1), smallest group first, top to bottom inside a group."""
    nodes = [(i, j) for i, a in enumerate(mu, 1) for j in range(1, a + 1)]
    ladders = {}
    for i, j in nodes:
        ladders.setdefault(j + (p - 1) * (i - 1), []).append((i, j))
    word = []
    for b in sorted(ladders):
        for i, j in sorted(ladders[b]):
            word.append((j - i) % p)
    return tuple(word)


def ladder_sizes(mu, p):
    counts = {}
    for i, a in enumerate(mu, 1):
        for j in range(1, a + 1):
            b = j + (p - 1) * (i - 1)
            counts[b] = counts.get(b, 0) + 1
    return tuple(counts[b] for b in sorted(counts))


def ladder_data_reference(mu, p):
    """(ladders, sizes, residues, limits, intervals) of mu by definition:
    the nodes grouped by b = j + (p-1)(i-1), smallest b first, each group
    sorted top to bottom; a group's residue is the (j - i) mod p its nodes
    share, the limits are the running totals of the group sizes from 0,
    and the intervals are the entries [limit + 1, next limit]."""
    groups = {}
    for i, a in enumerate(mu, 1):
        for j in range(1, a + 1):
            groups.setdefault(j + (p - 1) * (i - 1), []).append((i, j))
    ladders = tuple(tuple(sorted(groups[b])) for b in sorted(groups))
    residues = []
    for ladder in ladders:
        (residue,) = {(j - i) % p for i, j in ladder}
        residues.append(residue)
    sizes = tuple(len(ladder) for ladder in ladders)
    limits = [0]
    for m in sizes:
        limits.append(limits[-1] + m)
    intervals = tuple((limits[k] + 1, limits[k + 1])
                      for k in range(len(sizes)))
    return ladders, sizes, tuple(residues), tuple(limits), intervals


def ladder_steps(mu, p):
    """The (residue, size) of each nonempty ladder of mu, smallest first."""
    word, sizes = ladder_residues(mu, p), ladder_sizes(mu, p)
    return tuple((word[sum(sizes[:k])], m) for k, m in enumerate(sizes))


# ------------------------------------------------------- permutation helpers

def perm_sign(one_line):
    seen = [False] * len(one_line)
    sign = 1
    for start in range(len(one_line)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = one_line[k] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permutation_of_word(word, n):
    """One-line form of sigma_{word[0]} sigma_{word[1]} ... in S_n.

    Letters are applied right to left (rightmost factor acts first); each
    left multiplication by sigma_i swaps the values i-1 and i.
    """
    w = list(range(1, n + 1))
    for i in reversed(word):
        w = [i - 1 if v == i else i if v == i - 1 else v for v in w]
    return tuple(w)


def transposition(a, b, n):
    w = list(range(1, n + 1))
    w[a - 1], w[b - 1] = b, a
    return tuple(w)


def inversions(one_line):
    """The number of inversions of ``one_line``: the length of every reduced
    word of it."""
    return sum(1 for a, b in itertools.combinations(one_line, 2) if a > b)


def swap_entries(rows, i):
    """The rows of sigma_i t (entries i-1 and i exchanged) for the standard
    tableau t with rows ``rows``, or None when that is not standard.

    Requires ``2 <= i <= n``.  sigma_i t is standard exactly when i-1 and i
    share neither a row nor a column, so only those two positions are
    read."""
    at = {e: (r, c) for r, row in enumerate(rows) for c, e in enumerate(row)}
    (a, b), (c, d) = at[i - 1], at[i]
    if a == c or b == d:
        return None
    return tuple(tuple(i - 1 if e == i else i if e == i - 1 else e
                       for e in row) for row in rows)


# ------------------------------------------------------------ tabloid model

def tabloids_of(shape):
    """All row-tabloids: tuples of sorted tuples partitioning 1..n."""
    n = sum(shape)

    def split(rest, sizes):
        if not sizes:
            yield ()
            return
        for head in itertools.combinations(sorted(rest), sizes[0]):
            remaining = set(rest) - set(head)
            for tail in split(remaining, sizes[1:]):
                yield (head,) + tail

    return list(split(set(range(1, n + 1)), tuple(shape)))


def tabloid_of_rows(rows):
    return tuple(tuple(sorted(r)) for r in rows)


def apply_perm_tabloid(g, tab):
    return tuple(tuple(sorted(g[e - 1] for e in row)) for row in tab)


class ConjugateModel:
    """The sign-twisted tabloid model of the Specht module of shape lam.

    Vectors are dicts tabloid -> Fraction over the tabloids of the conjugate
    shape; permutations act by entry relabeling times their sign.  The
    polytabloid span is the Specht module; the top vector is the polytabloid
    of the transpose of the row-reading tableau of lam.
    """

    def __init__(self, lam):
        self.lam = tuple(lam)
        self.n = sum(lam)
        self.mu = conjugate(lam)

    def act(self, g, vec):
        sign = perm_sign(g)
        out = {}
        for tab, c in vec.items():
            key = apply_perm_tabloid(g, tab)
            out[key] = out.get(key, Fraction(0)) + sign * c
        return {k: v for k, v in out.items() if v}

    def jm(self, k, vec):
        out = {}
        for j in range(1, k):
            for tab, c in self.act(transposition(j, k, self.n), vec).items():
                out[tab] = out.get(tab, Fraction(0)) + c
        return {k2: v for k2, v in out.items() if v}

    def polytabloid(self, rows):
        """Signed column-group sum for a tableau of the conjugate shape."""
        cols = []
        width = len(rows[0])
        for j in range(width):
            cols.append([row[j] for row in rows if len(row) > j])
        vec = {}
        for perms in itertools.product(
                *[itertools.permutations(col) for col in cols]):
            g = list(range(1, self.n + 1))
            sign = 1
            for col, perm in zip(cols, perms):
                for src, dst in zip(col, perm):
                    g[src - 1] = dst
                inv = sum(1 for a in range(len(perm))
                          for b in range(a + 1, len(perm))
                          if col.index(perm[a]) > col.index(perm[b]))
                sign *= -1 if inv % 2 else 1
            tab = tabloid_of_rows(tuple(tuple(g[e - 1] for e in row)
                                        for row in rows))
            vec[tab] = vec.get(tab, Fraction(0)) + sign
        return {k: v for k, v in vec.items() if v}

    def top_tableau_rows(self):
        """Transpose of the row-reading tableau of lam (a conjugate-shape
        tableau): entry at (j, i) is the row-reading entry of lam at (i, j)."""
        offsets = [0]
        for a in self.lam:
            offsets.append(offsets[-1] + a)
        rows = []
        for j in range(1, (self.lam[0] if self.lam else 0) + 1):
            rows.append(tuple(offsets[i - 1] + j
                              for i in range(1, len(self.lam) + 1)
                              if self.lam[i - 1] >= j))
        return tuple(rows)

    def d_one_line(self, t_rows):
        """d(t) for a standard tableau t of shape lam: the permutation sending
        the row-reading filling to t, as a one-line tuple."""
        flat = [e for row in t_rows for e in row]
        return tuple(flat)


def dot(u, v):
    out = Fraction(0)
    for k, c in u.items():
        d = v.get(k)
        if d:
            out += c * d
    return out


# ---------------------------------------------------- exact F_p linear algebra

def fp_rref(rows, p):
    """Row-reduce over Z/p; returns (rref rows, pivot column list)."""
    mat = [[x % p for x in row] for row in rows]
    pivots = []
    lead = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(lead, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        inv = pow(mat[lead][col], -1, p)
        mat[lead] = [x * inv % p for x in mat[lead]]
        for r in range(len(mat)):
            if r != lead and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat[:lead], pivots


def fp_rank(rows, p):
    return len(fp_rref(rows, p)[0])


def fp_kernel(rows, p):
    """Basis of the right kernel of the matrix given as a list of rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = fp_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


def fp_matmul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt]
            for row in a]


def fp_solve_many(a_rows, b_rows, p):
    """Solve x A = b rowwise: coordinates of each b row in the row space of A;
    returns None if some b row is outside."""
    if not a_rows:
        return [] if not b_rows else None
    ncols = len(a_rows[0])
    k = len(a_rows)
    out = []
    for b in b_rows:
        aug = [[a_rows[r][c] for r in range(k)] + [b[c]] for c in range(ncols)]
        rref, pivots = fp_rref(aug, p)
        if k in pivots:
            return None
        sol = [0] * k
        for r, pc in enumerate(pivots):
            sol[pc] = rref[r][k]
        # verify (guards inconsistent systems beyond the pivot check)
        for c in range(ncols):
            if sum(sol[r] * a_rows[r][c] for r in range(k)) % p != b[c] % p:
                return None
        out.append(sol)
    return out


# ------------------------------------------------------- high-level oracles

@lru_cache(maxsize=None)
def _specht_basis_modp(tau, p):
    """Polytabloid coordinate rows (mod p) of the model for shape tau, the
    tabloid index list, and the standard tableaux of tau itself."""
    model = ConjugateModel(tau)
    tabs = tabloids_of(model.mu)
    index = {t: i for i, t in enumerate(tabs)}
    std_conj = standard_fillings(model.mu)
    rows = []
    for t in std_conj:
        vec = model.polytabloid(t)
        row = [0] * len(tabs)
        for tab, c in vec.items():
            assert c.denominator == 1
            row[index[tab]] = c.numerator % p
        rows.append(row)
    return model, tabs, index, rows


def dim_D_oracle(lam, p):
    """dim of the simple head of the Specht module of p-restricted lam: the
    mod-p rank of the polytabloid Gram matrix of the conjugate shape."""
    _, _, _, rows = _specht_basis_modp(tuple(lam), p)
    gram = [[sum(x * y for x, y in zip(a, b)) % p for b in rows] for a in rows]
    return fp_rank(gram, p)


def _ladder_group_elements(mu, p):
    """One-line permutations of the ladder group: the direct product of the
    symmetric groups on the consecutive entry intervals of the ladders."""
    n = sum(mu)
    sizes = ladder_sizes(mu, p)
    intervals = []
    start = 1
    for s in sizes:
        intervals.append(list(range(start, start + s)))
        start += s
    out = []
    for perms in itertools.product(
            *[itertools.permutations(iv) for iv in intervals]):
        g = list(range(1, n + 1))
        for iv, perm in zip(intervals, perms):
            for src, dst in zip(iv, perm):
                g[src - 1] = dst
        out.append(tuple(g))
    return out


def fp_intersect(u_rows, v_rows, p):
    """Basis rows of the intersection of two row spaces over Z/p."""
    if not u_rows or not v_rows:
        return []
    stacked = u_rows + v_rows
    left_kernel = fp_kernel([list(col) for col in zip(*stacked)], p)
    if not left_kernel:
        return []
    candidates = [
        [sum(c[i] * u_rows[i][j] for i in range(len(u_rows))) % p
         for j in range(len(u_rows[0]))]
        for c in left_kernel]
    rref, _ = fp_rref(candidates, p)
    return rref


def dim_e_tilde_D_oracle(mu, tau, p):
    """Fitting oracle for the symmetrized mu-weight space of the simple
    module of tau.

    Inside the mod-p Specht module of tau (tabloid model): E is the
    simultaneous generalized eigenspace of the Jucys-Murphy operators for the
    ladder residue word of mu; P averages over the ladder group of mu (its
    order is coprime to p); the answer is dim P(E) - dim P(E meet rad).
    """
    model, tabs, index, b_rows = _specht_basis_modp(tuple(tau), p)
    k = len(b_rows)
    n = sum(tau)
    # matrices of L_2..L_n on the Specht row space, in the polytabloid basis
    jm_mats = {}
    for m in range(2, n + 1):
        images = []
        for t_rows in standard_fillings(model.mu):
            vec = model.polytabloid(t_rows)
            img = model.jm(m, vec)
            row = [0] * len(tabs)
            for tab, c in img.items():
                assert c.denominator == 1
                row[index[tab]] = c.numerator % p
            images.append(row)
        coords = fp_solve_many(b_rows, images, p)
        assert coords is not None, "JM image left the Specht subspace"
        jm_mats[m] = coords
    residues = ladder_residues(tuple(mu), p)
    # E = intersection of kernels of (L_m - r_m)^k
    current = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for m in range(2, n + 1):
        shifted = [[(jm_mats[m][i][j] - (residues[m - 1] if i == j else 0)) % p
                    for j in range(k)] for i in range(k)]
        power = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for _ in range(k):
            power = fp_matmul(power, shifted, p)
        # kernel of (v . power) for v in the row space of current:
        # coefficient vectors c with c . (current . power) = 0
        mapped = fp_matmul(current, power, p)
        coeff_kernel = fp_kernel([list(col) for col in zip(*mapped)], p)
        current = fp_matmul(coeff_kernel, current, p) if coeff_kernel else []
        if not current:
            break
        current, _ = fp_rref(current, p)
    if not current:
        return 0
    # rad coords inside W: kernel of the Gram matrix
    gram = [[sum(x * y for x, y in zip(a, b)) % p for b in b_rows]
            for a in b_rows]
    rad = fp_kernel(gram, p)
    e_rad = fp_intersect(current, rad, p)

    # the ladder-group averaging projector, applied in tabloid coordinates
    group = _ladder_group_elements(tuple(mu), p)
    inv_order = pow(len(group) % p, -1, p)

    def project(rows_w):
        if not rows_w:
            return []
        tab_rows = fp_matmul(rows_w, b_rows, p)
        averaged = []
        for vec in tab_rows:
            acc = [0] * len(tabs)
            for g in group:
                sign = perm_sign(g)
                for i, c in enumerate(vec):
                    if c:
                        j = index[apply_perm_tabloid(g, tabs[i])]
                        acc[j] = (acc[j] + sign * c) % p
            averaged.append([x * inv_order % p for x in acc])
        coords = fp_solve_many(b_rows, averaged, p)
        assert coords is not None, "projection left the Specht subspace"
        return coords

    return fp_rank(project(current), p) - fp_rank(project(e_rad), p)


def gram_scale_pair(lam):
    """The model Gram data for shape lam: (top norm m, matrix of dot products
    of the d(t)-translates of the top polytabloid, list of content vectors).

    The translates correspond to the package's integral word-chain basis; the
    two Gram matrices must agree up to the single scale prod(lam_i!)/m.
    """
    model = ConjugateModel(lam)
    top = model.polytabloid(model.top_tableau_rows())
    # check: top vector is a simultaneous JM eigenvector with the contents of
    # the row-reading tableau of lam
    contents = _row_reading_contents(lam)
    for m in range(2, model.n + 1):
        img = model.jm(m, top)
        want = {t: contents[m] * c for t, c in top.items() if contents[m] * c}
        assert img == want, f"top polytabloid not a JM eigenvector for {lam}"
    basis = []
    for t_rows in standard_fillings(lam):
        flat = [e for row in t_rows for e in row]
        basis.append(model.act(tuple(flat), top))
    gram = [[dot(a, b) for b in basis] for a in basis]
    return dot(top, top), gram, basis, model


def _row_reading_contents(lam):
    """contents[k] = column - row of entry k in the row-reading tableau."""
    contents = {}
    k = 0
    for i, a in enumerate(lam, 1):
        for j in range(1, a + 1):
            k += 1
            contents[k] = j - i
    return contents


def seminormal_norms_oracle(lam):
    """Model norms of the seminormal vectors, scaled to the package's
    normalization: returns {standard tableau rows: gamma} with
    gamma = (prod lam_i!) / m * |Lagrange projection of the d(t) translate|^2.
    """
    m, _gram, basis, model = gram_scale_pair(lam)
    scale = Fraction(math.prod(math.factorial(a) for a in lam)) / m
    fillings = standard_fillings(lam)
    content_vectors = []
    for rows in fillings:
        pos = {e: (i, j) for i, row in enumerate(rows, 1)
               for j, e in enumerate(row, 1)}
        content_vectors.append(tuple(pos[k][1] - pos[k][0]
                                     for k in range(1, model.n + 1)))
    out = {}
    for rows, vec, cv in zip(fillings, basis, content_vectors):
        proj = vec
        for k in range(2, model.n + 1):
            others = {c[k - 1] for c in content_vectors} - {cv[k - 1]}
            for g in others:
                img = model.jm(k, proj)
                keys = set(img) | set(proj)
                proj = {t: (img.get(t, Fraction(0))
                            - g * proj.get(t, Fraction(0)))
                        / (cv[k - 1] - g) for t in keys}
                proj = {t: c for t, c in proj.items() if c}
        out[rows] = scale * dot(proj, proj)
    return out


def gamma_by_truncations(rows):
    """The seminormal norm of the standard tableau ``rows`` as the product,
    over its entry-truncations to 1..k, of h/(h-1) along the row of k, hooks
    of length one omitted; each truncation's shape and hooks are rebuilt
    from scratch (the former package formula, kept as a reference)."""
    out = Fraction(1)
    for k in range(2, sum(len(row) for row in rows) + 1):
        shape = tuple(ln for ln in (sum(1 for e in row if e <= k)
                                    for row in rows) if ln)
        cols = conjugate(shape)
        r = next(i for i, row in enumerate(rows) if k in row)
        for j in range(shape[r]):
            h = shape[r] - j + cols[j] - r - 1
            if h >= 2:
                out *= Fraction(h, h - 1)
    return out


# ------------------------------------ tableau classes and seminormal steps

def _positions(rows):
    """The entry-position sequence of a filling: the node of 1, of 2, ..."""
    pos = {e: (i, j) for i, row in enumerate(rows, 1)
           for j, e in enumerate(row, 1)}
    return tuple(pos[k] for k in range(1, len(pos) + 1))


def _rows_of(nodes):
    rows = {}
    for k, (i, j) in enumerate(nodes, 1):
        rows.setdefault(i, {})[j] = k
    return tuple(tuple(rows[i][j] for j in sorted(rows[i]))
                 for i in sorted(rows))


def ladder_class_representatives(mu, p):
    """The former package enumerator: the whole class of the ladder tableau
    of mu, grown one entry at a time through every addable node of the next
    residue, then filtered to one member per ladder-group orbit (the member
    whose entries in each ladder interval go down the rows).  Returns
    {shape: [rows, ...]} with each list sorted by entry positions."""
    word = ladder_residues(mu, p)
    limits = list(itertools.accumulate(ladder_sizes(mu, p)))
    intervals = [(b - m + 1, b) for b, m in zip(limits, ladder_sizes(mu, p))]
    members = []

    def grow(nodes, shape):
        k = len(nodes)
        if k == len(word):
            members.append(nodes)
            return
        for r in range(len(shape) + 1):
            length = shape[r] if r < len(shape) else 0
            if r and shape[r - 1] <= length:
                continue
            node = (r + 1, length + 1)
            if (node[1] - node[0]) % p == word[k]:
                grown = list(shape) + [0] * (r == len(shape))
                grown[r] += 1
                grow(nodes + (node,), tuple(grown))

    grow((), ())
    out = {}
    for nodes in sorted(members):
        if all(nodes[k - 1][0] < nodes[k][0]
               for a, b in intervals for k in range(a, b)):
            rows = _rows_of(nodes)
            out.setdefault(tuple(map(len, rows)), []).append(rows)
    return out


def ladder_orbit_positions_recursive(mu, p, target=None):
    """The former package orbit enumerator: a recursion over the ladder
    intervals, memoized on (interval index, shape), in which interval k
    takes each |L_k|-subset of the addable nodes of its residue (inside
    ``target``, when given), filled top to bottom, ahead of every
    completion of the grown shape.  Subsets come out in lexicographic order
    of their nodes, so the position tuples come out in sort_key order with
    no sort.  Returns {shape: [positions, ...]}."""
    steps = ladder_steps(mu, p)
    memo = {}

    def completions(k, shape):
        if k == len(steps):
            return ((),)
        if (k, shape) not in memo:
            residue, m = steps[k]
            nodes = [g for g in _addable_of_residue(shape, residue, p)
                     if target is None or (g[0] <= len(target)
                                           and g[1] <= target[g[0] - 1])]
            out = []
            for subset in itertools.combinations(nodes, m):
                grown = list(shape) + [0]
                for r, _c in subset:
                    grown[r - 1] += 1
                out.extend(subset + rest for rest in completions(
                    k + 1, tuple(a for a in grown if a)))
            memo[(k, shape)] = tuple(out)
        return memo[(k, shape)]

    grouped = {}
    for positions in completions(0, ()):
        shape = tuple(sum(1 for r, _c in positions if r == i)
                      for i in range(1, max(r for r, _c in positions) + 1)
                      ) if positions else ()
        grouped.setdefault(shape, []).append(positions)
    return grouped


def tableau_class_recursive(residues, p, target=None):
    """The former package class enumerator: the entry-position tuples of the
    standard tableaux with residue sequence ``residues`` (of shape
    ``target`` only, when given), by a recursion over the entries memoized on
    (entries placed, shape).  Addable nodes are tried by increasing row, so
    the tuples come out in lexicographic order with no sort."""
    memo = {}

    def completions(k, shape):
        if k == len(residues):
            return ((),)
        if (k, shape) not in memo:
            out = []
            for g in _addable_of_residue(shape, residues[k], p):
                if target is not None and not (g[0] <= len(target)
                                               and g[1] <= target[g[0] - 1]):
                    continue
                grown = list(shape) + [0]
                grown[g[0] - 1] += 1
                out.extend((g,) + rest for rest in completions(
                    k + 1, tuple(a for a in grown if a)))
            memo[(k, shape)] = tuple(out)
        return memo[(k, shape)]

    return completions(0, ())


def seminormal_step_reference(i, vec, p=None):
    """The former package step over Fractions, on {rows: Fraction}:
    xi_s -> d(h) xi_s + e(h) xi_{sigma_i s} with h = c_s(i-1) - c_s(i),
    e(h) = 1 for h > 1, (h^2-1)/h^2 for h < -1, 0 for |h| = 1, and
    d(h) = -1/h for sigma_i (p None) or, for phi_i, (h-1)/h when p | h and
    0 otherwise."""
    out = {}
    for rows, c in vec.items():
        pos = _positions(rows)
        (a, b), (r, s) = pos[i - 2], pos[i - 1]
        h = (b - a) - (s - r)
        if p is None:
            d = Fraction(-1, h)
        else:
            d = Fraction(h - 1, h) if h % p == 0 else 0
        if d:
            out[rows] = out.get(rows, 0) + c * d
        if abs(h) > 1:
            swapped = tuple(tuple({i - 1: i, i: i - 1}.get(e, e) for e in row)
                            for row in rows)
            e = 1 if h > 1 else Fraction(h * h - 1, h * h)
            out[swapped] = out.get(swapped, 0) + c * e
    return {rows: c for rows, c in out.items() if c}


# ---------------------------------------------------- first approximations

def _addable_of_residue(lam, i, p):
    """Addable nodes (row, col) of lam with (col - row) mod p == i."""
    out = []
    for r in range(1, len(lam) + 2):
        row = lam[r - 1] if r <= len(lam) else 0
        if (r == 1 or row < lam[r - 2]) and (row + 1 - r) % p == i:
            out.append((r, row + 1))
    return out


def addable_nodes_of(lam):
    """Addable nodes (row, col) of lam, by increasing row."""
    out = []
    for r in range(1, len(lam) + 2):
        row = lam[r - 1] if r <= len(lam) else 0
        if r == 1 or lam[r - 2] > row:
            out.append((r, row + 1))
    return out


def removable_nodes_of(lam):
    """Removable nodes (row, col) of lam, by increasing row."""
    out = []
    for r in range(1, len(lam) + 1):
        below = lam[r] if r < len(lam) else 0
        if lam[r - 1] > below:
            out.append((r, lam[r - 1]))
    return out


def _removable_of_residue(lam, i, p):
    """Removable nodes (row, col) of lam with (col - row) mod p == i."""
    return [(r, c) for r, c in removable_nodes_of(lam) if (c - r) % p == i]


def divided_power_reference(i, k, vec, p):
    """f_i^(k) on {partition: {exponent: int}}: the sum over k-subsets S of
    addable i-nodes of q^N(lam, S) (lam with S added), N counted node by
    node as addable i-nodes outside S in smaller columns minus removable
    i-nodes in smaller columns (Lascoux-Leclerc-Thibon 1996)."""
    out = {}
    for lam, c in vec.items():
        adds = _addable_of_residue(lam, i, p)
        rems = _removable_of_residue(lam, i, p)
        for subset in itertools.combinations(adds, k):
            npow = sum(
                sum(1 for a in adds if a[1] < g[1] and a not in subset)
                - sum(1 for r in rems if r[1] < g[1]) for g in subset)
            parts = list(lam) + [0]
            for r, _ in subset:
                parts[r - 1] += 1
            nu = tuple(a for a in parts if a)
            out[nu] = l_add(out.get(nu, {}),
                            {e + npow: x for e, x in c.items()})
    return {nu: c for nu, c in out.items() if c}


def first_approximation_reference(mu, p):
    """A(mu) as {partition: {exponent: int}}: the ladder product of divided
    powers, applied one ladder at a time to the vacuum."""
    vec = {(): {0: 1}}
    for i, k in ladder_steps(mu, p):
        vec = divided_power_reference(i, k, vec, p)
    return vec


# -------------------------------------------------- canonical-basis solver

def llt_solve(a_map, order):
    """Derive the canonical basis from first approximations by global linear
    algebra, not by the sequential correction loop.

    ``order`` lists the restricted partitions most dominant first; ``a_map``
    maps each to {partition: {exponent: int}}.  For each mu the correction
    coefficients against the already-known more-dominant columns are solved
    for simultaneously: writing each as an integer combination of the
    bar-symmetric atoms 1, q^m + q^-m, the conditions "every restricted
    coordinate of A(mu) - sum n_i G(nu_i) lies in q Z[q], except coordinate
    mu which lies in 1 + q Z[q]" become one exact linear system over Q.
    Returns (g_map, nmat) with only nonzero nmat entries present.
    """
    g_map = {}
    nmat = {}
    for j, mu in enumerate(order):
        prior = order[:j]
        target = a_map[mu]
        if prior:
            span = 0
            for vec in [g_map[nu] for nu in prior] + [target]:
                for c in vec.values():
                    if c:
                        span = max(span, max(abs(e) for e in c))
            unknowns = [(i, m) for i in range(j) for m in range(span + 1)]
            rows, rhs = [], []
            for lam in order:
                for e in range(-span, 1):
                    row = []
                    for i, m in unknowns:
                        atom = {0: 1} if m == 0 else {m: 1, -m: 1}
                        prod = l_mul(atom, g_map[prior[i]].get(lam, {}))
                        row.append(prod.get(e, 0))
                    rows.append(row)
                    want = target.get(lam, {}).get(e, 0)
                    if lam == mu and e == 0:
                        want -= 1
                    rhs.append(want)
            sol = _solve_exact(rows, rhs)
            assert sol is not None, f"no canonical correction for {mu}"
            for i, nu in enumerate(prior):
                poly = {}
                for (ui, m), c in zip(unknowns, sol):
                    if ui != i or not c:
                        continue
                    assert c.denominator == 1
                    poly = l_add(poly, l_scale(
                        {0: 1} if m == 0 else {m: 1, -m: 1}, c.numerator))
                if poly:
                    nmat[(nu, mu)] = poly
        g = {lam: dict(c) for lam, c in target.items()}
        for (nu, mu2), poly in list(nmat.items()):
            if mu2 != mu:
                continue
            for lam, c in g_map[nu].items():
                g[lam] = l_add(g.get(lam, {}), l_scale(l_mul(poly, c), -1))
        g = {lam: c for lam, c in g.items() if c}
        # the remainder must satisfy the congruence on every coordinate
        for lam, c in g.items():
            if lam == mu:
                assert c == {0: 1}, f"leading coefficient of G({mu}) not 1"
            else:
                assert all(e > 0 for e in c), \
                    f"G({mu}) coordinate {lam} leaves qZ[q]: {c}"
        g_map[mu] = g
    return g_map, nmat


def _solve_exact(rows, rhs):
    """Unique exact solution of rows . x = rhs over Q, or None."""
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    lead = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(lead, len(aug)) if aug[r][col]), None)
        if piv is None:
            continue
        aug[lead], aug[piv] = aug[piv], aug[lead]
        inv = aug[lead][col]
        aug[lead] = [x / inv for x in aug[lead]]
        for r in range(len(aug)):
            if r != lead and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[lead])]
        pivots.append(col)
        lead += 1
    if len(pivots) != ncols:
        return None
    for r in range(lead, len(aug)):
        if aug[r][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol


def dense_unitriangular_inverse(m):
    """Inverse of an upper-unitriangular integer matrix by the column formula
    inv[i][j] = -sum_{i <= k < j} inv[i][k] m[k][j], in O(N^3)."""
    size = len(m)
    inv = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for j in range(size):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(inv[i][k] * m[k][j] for k in range(i, j))
    return inv


def alt_total_order(n, p):
    """A second most-dominant-first linear extension of dominance on the
    restricted partitions: Kahn's algorithm preferring short partitions."""
    pool = set(restricted_of(n, p))
    out = []
    while pool:
        maximal = [lam for lam in pool
                   if not any(m != lam and dominates_leq(lam, m)
                              for m in pool)]
        pick = min(maximal, key=lambda lam: (len(lam), lam))
        out.append(pick)
        pool.remove(pick)
    return tuple(out)



# ------------------------------------------------------- verify assembly

def check_records_reference(order, amat, mmat):
    """(checks, overall) as the verify report used to assemble them: a dict
    (mu, tau) -> {"lhs", "expected", "pass"}, mu outer and tau inner, with
    a whole column skipped (all None) when a needed m-column is None.  Each
    matrix is read into dense rows once, so lookups stay O(1)."""
    amat, mmat = tuple(amat), tuple(mmat)
    idx = {mu: k for k, mu in enumerate(order)}
    checks = {}
    overall = True
    for mu in order:
        needed = [lam for lam in order if amat[idx[lam]][idx[mu]] != 0]
        available = all(mmat[0][idx[lam]] is not None for lam in needed)
        for tau in order:
            expected = 1 if mu == tau else 0
            if not available:
                checks[(mu, tau)] = {"lhs": None, "expected": expected,
                                     "pass": None}
                continue
            lhs = sum(mmat[idx[tau]][idx[lam]] * amat[idx[lam]][idx[mu]]
                      for lam in needed)
            ok = lhs == expected
            overall = overall and ok
            checks[(mu, tau)] = {"lhs": lhs, "expected": expected, "pass": ok}
    return checks, overall


def decomposition_reference(order, taus, g_at_one):
    """(decomposition, matrix) as the verify report used to assemble them:
    the dict (tau, mu) -> d(tau, mu), tau over ``taus`` outer and mu over
    ``order`` inner, and its rows; ``g_at_one[mu]`` maps tau to the q = 1
    coefficient of tau in G(mu), absent meaning 0."""
    dec = {}
    for mu in order:
        for tau in taus:
            dec[(tau, mu)] = g_at_one[mu].get(tau, 0)
    rows = tuple(tuple(dec[(tau, mu)] for mu in order) for tau in taus)
    return dec, rows

# ----------------------------------------------------- Laurent dict helpers

def l_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def l_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def l_scale(a, k):
    return {e: c * k for e, c in a.items() if c * k}


def l_bar(a):
    return {-e: c for e, c in a.items()}
