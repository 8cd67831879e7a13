r"""Conjecture verification, multiplicity matrices, and decomposition numbers.

The central identity checked here couples the two halves of the package: with
n(lam, mu) the canonical-basis transition matrix at q = 1, a = n^{-1}, and
m(lam, mu) = dim of the mu-weight space of the simple module D(lam) computed
by exact Gram ranks, the claim is

    m(tau, mu) + sum over lam strictly dominating mu of a(lam, mu) m(tau, lam)
        = delta(mu, tau)

for all p-restricted mu, tau of n -- equivalently, the matrix product
m . a is the identity.  Both sides are computed independently: the left by
intertwiner chains and mod-p ranks, the right by the Fock-space recursion.
The Fock side runs first.  The Gram side gets from it only the q = 1 counts
of each A(mu), and only to compare them with its basis sizes: they decide
nothing it computes.  When every identity holds, the decomposition numbers
d(tau, mu) are read off as the q = 1 evaluations of the canonical-basis
coefficients.

``gram_oracle_dimD`` is a deliberately naive cross-check: it spans the whole
Specht module by word chains of the seminormal action, forms the full integer
Gram matrix, and takes its mod-p rank, the dimension of the simple head.  It
shares no code path with the eigenspace pipeline beyond the seminormal action
itself.  The stated region of the main identity is n < p*p; reports outside it
carry an explicit marker and skip the mu columns whose ladder lengths reach p.
"""

import os
from collections.abc import ItemsView, Mapping
from functools import partial
from itertools import chain, product

from .fock import (SparseRows, evaluate_at_one, invert_unitriangular,
                   llt_canonical, nmat_at_one)
from .partitions import (Partition, _Record, _prefix_walk, _steps_of,
                         all_partitions, check_partition, dominates,
                         is_p_restricted, ladder_decomposition,
                         restricted_partitions, standard_tableau_count)
from .ranks import _step_rules, _weight_space_dims, gram_matrix, modp_rank
from .seminormal import SeminormalVector, act_by_word
from .tableaux import (_extend, check_class_cap, d_reduced_word,
                       row_reading_tableau, standard_tableaux)


class Grid(Mapping):
    """Read-only Mapping ``(row key, column key) -> entry`` over a table held
    as ``SparseRows``, iterated row by row.  ``entry(i, j, value)`` makes the
    mapped entry from ``rows[i][j]``; by default the entry is the value."""

    def __init__(self, row_keys, col_keys, rows, entry=None):
        self.row_keys, self.col_keys, self.rows = row_keys, col_keys, rows
        self.entry = entry or (lambda i, j, value: value)
        self._row_at = {key: i for i, key in enumerate(row_keys)}
        self._col_at = {key: j for j, key in enumerate(col_keys)}

    def __getitem__(self, key):
        try:
            a, b = key
            i, j = self._row_at[a], self._col_at[b]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        return self.entry(i, j, self.rows.rows[i].get(j, 0))

    def __iter__(self):
        return product(self.row_keys, self.col_keys)

    def __len__(self):
        return len(self.row_keys) * len(self.col_keys)

    def items(self):
        return _GridItems(self)


class _GridItems(ItemsView):
    """The items of a Grid, read off its rows without any key lookup."""

    def __iter__(self):
        grid = self._mapping
        entry, cols = grid.entry, grid.col_keys
        for i, (a, row) in enumerate(zip(grid.row_keys, grid.rows.rows)):
            for j, b in enumerate(cols):
                yield (a, b), entry(i, j, row.get(j, 0))


def check_record(i: int, j: int, lhs) -> dict:
    """The record of (mu, tau) = (order[i], order[j]): the identity of
    column mu at row tau, whose left-hand side is ``lhs``."""
    expected = int(i == j)
    return {"lhs": lhs, "expected": expected,
            "pass": None if lhs is None else lhs == expected}


class VerificationReport(_Record):
    """Everything the verify pipeline produced for one (n, p).

    - ``order``: the p-restricted partitions, most dominant first;
    - ``nmat1``: the transition matrix at q = 1, and ``amat`` its inverse;
    - ``mmat``: the weight-space dims; a column is None when that mu has a
      ladder of length >= p;
    - ``checks``: (mu, tau) -> {"lhs", "expected", "pass"}, mu outer, from
      the lhs column of each mu over tau, all None when mu is skipped;
    - ``overall``: every evaluated check passed;
    - ``outside_region``: n >= p*p, outside the stated region;
    - ``decomposition``: (tau in Par_n, mu restricted) -> d(tau, mu), a
      Grid over the rows of each tau; empty when an identity fails, and
      when left out.

    Every table is a ``SparseRows``, held as its entries other than 0.
    ``checks`` and ``decomposition`` are read-only ``Grid``s over such
    tables: conjecture_check stores the N lhs columns and the |Par_n| x N
    decomposition rows, and no per-entry key or record; each check record
    is built by ``check_record`` when it is read.  The fields are taken as
    given and cannot be assigned."""

    __slots__ = ("p", "n", "order", "nmat1", "amat", "mmat", "checks",
                 "overall", "outside_region", "decomposition")
    _defaults = {"decomposition": Grid((), (), SparseRows((), 0))}

    def nonnegativity_violations(self) -> tuple:
        """Entries of nmat1 below zero (conjecturally none), by row and
        then by column, read from its stored nonzeros."""
        return tuple((lam, self.order[j], value)
                     for lam, row in zip(self.order, self.nmat1.rows)
                     for j, value in row.items() if value < 0)

    def decomposition_matrix(self):
        """(row labels, column labels, SparseRows); empty when unpopulated."""
        d = self.decomposition
        if not d:
            return (), (), ()
        return d.row_keys, d.col_keys, d.rows


def _m_columns(args):
    """The nonzero entries {tau: dim} of the column of each mu of a run
    (mu, their counts, p, step rules, restricted set), in order, or None
    where mu has a ladder of length >= p.  Each mu's ladder data is read
    when its column runs, and its orbit representatives are the frontier
    that ``_prefix_walk`` hands it, ``_extend`` walked along the steps of
    that ladder data.  Sorted by their steps, mu that share a prefix follow
    each other, so each distinct prefix is walked once per run.  The
    row-reading starts are built once per run, for at most the N
    restricted shapes, and share their nodes."""
    mus, counts, p, rules, restricted = args
    starts, nodes, columns = {}, {}, dict.fromkeys(mus)
    lds = (ladder_decomposition(mu, p) for mu in mus)
    walks = (((mu, ld, count), tuple(zip(ld.residues, ld.sizes)))
             for mu, ld, count in zip(mus, lds, counts)
             if ld.ladders_below_p())
    for (mu, ld, count), frontier in _prefix_walk(walks, {(): [()]},
                                                  partial(_extend, p=p)):
        columns[mu] = _weight_space_dims(ld, frontier, count, rules,
                                         restricted, starts, nodes)
    return list(columns.values())


def m_matrix(n: int, p: int, counts, jobs: int = 1) -> SparseRows:
    """m[lam][mu] = dim of the mu-weight space of D(lam), lam and mu running
    over the p-restricted partitions of n in canonical order, with
    ``counts[mu]`` passed to ``weight_space_dims`` for column mu.  A column
    whose mu fails the ladder-length bound (possible only for n >= p*p) is
    None in every row.  The columns run in sorted order of their ladder
    steps (``_m_columns``), split into one contiguous run per worker; at
    most min(jobs, N, CPUs) worker processes are started.  The
    class-size cap and jobs >= 1 are checked before any partition is listed."""
    check_class_cap(n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    order, rules = restricted_partitions(n, p), _step_rules(n, p)
    restricted = frozenset(order)
    mus = sorted(order, key=lambda mu: _steps_of(mu, p))
    jobs = min(jobs, len(mus), os.cpu_count() or 1)
    tasks = [(run, [counts[mu] for mu in run], p, rules, restricted)
             for run in (mus[k * len(mus) // jobs:(k + 1) * len(mus) // jobs]
                         for k in range(jobs))]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_m_columns, tasks)
    else:
        results = map(_m_columns, tasks)
    columns, skipped = dict(zip(mus, chain.from_iterable(results))), \
        dict.fromkeys(order)
    return _from_columns([skipped if columns[mu] is None else columns[mu]
                          for mu in order], order)


def _from_columns(columns, row_keys) -> SparseRows:
    """The rows over ``row_keys`` of the columns, each a dict {row key:
    entry}; entries equal to 0 are not stored."""
    at = {key: t for t, key in enumerate(row_keys)}
    rows = [{} for _ in row_keys]
    for k, column in enumerate(columns):    # so the keys of every row ascend
        for key, value in column.items():
            if value != 0:
                rows[at[key]][k] = value
    return SparseRows(rows, len(columns))


def _column_nonzeros(matrix: SparseRows) -> list:
    """For each column k of ``matrix``, its stored entries as (row index,
    entry) pairs."""
    columns = [[] for _ in range(matrix.size)]
    for t, row in enumerate(matrix.rows):
        for k, value in row.items():
            columns[k].append((t, value))
    return columns


def conjecture_check(n: int, p: int, jobs: int = 1) -> VerificationReport:
    """Evaluate every delta identity for (n, p) and assemble the report."""
    check_class_cap(n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    table = llt_canonical(n, p)
    order = table.order
    mmat = m_matrix(n, p, {mu: {tau: evaluate_at_one(c)
                                for tau, c in a.terms.items()}
                           for mu, a in table.A.items()}, jobs=jobs)
    nmat1 = nmat_at_one(table)
    amat = invert_unitriangular(nmat1)
    size = len(order)
    m_columns = _column_nonzeros(mmat)
    missing = {k for k, m in mmat.rows[0].items() if m is None}
    lhs_rows = []
    overall = True
    for b, needed in enumerate(_column_nonzeros(amat)):
        # the identity at mu = order[b] needs the m-columns of every lam
        # with a(lam, mu) != 0; skip (not fail) when one is unavailable
        if any(k in missing for k, _a in needed):
            lhs_rows.append(dict.fromkeys(range(size)))
            continue
        lhs = {}                # from the nonzero entries of a and m only
        for k, a in needed:
            for t, m in m_columns[k]:
                lhs[t] = lhs.get(t, 0) + m * a
        lhs = {t: lhs[t] for t in sorted(lhs) if lhs[t]}
        overall = overall and lhs == {b: 1}
        lhs_rows.append(lhs)
    taus = all_partitions(n) if overall else ()
    return VerificationReport(
        p=p, n=n, order=order, nmat1=nmat1, amat=amat, mmat=mmat,
        checks=Grid(order, order, SparseRows(lhs_rows, size), check_record),
        overall=overall, outside_region=n >= p * p,
        decomposition=Grid(taus, order, _from_columns(
            [{tau: evaluate_at_one(c) for tau, c in table.G[mu].terms.items()}
             if overall else {} for mu in order], taus)))


_ORACLE_CAP = 20000


def check_oracle_cap(n: int, allow_large: bool = False) -> None:
    """Refuse an oracle run on |tau| = n > _ORACLE_CAP unless allowed."""
    if n > _ORACLE_CAP and not allow_large:
        raise ValueError(f"|tau| = {n} > {_ORACLE_CAP} needs allow_large=True "
                         "(--allow-large)")


def gram_oracle_dimD(tau: Partition, p: int, allow_large: bool = False) -> int:
    """Mod-p rank of the full Specht Gram matrix: the dimension of D(tau).

    The integral basis vector for each standard t is the word chain of d(t)
    applied to the seminormal vector of the row-reading tableau; the Gram
    entries of that basis must come out integral.  E.g. for shape (2,1) the
    matrix is [[2,-1],[-1,2]] with determinant 3.
    """
    tau = check_partition(tau)
    if not is_p_restricted(tau, p):
        raise ValueError(f"{tau} is not {p}-restricted")
    check_oracle_cap(sum(tau), allow_large)
    size = standard_tableau_count(tau)
    if size > _ORACLE_CAP and not allow_large:
        raise ValueError(
            f"|Std({tau})| = {size} > {_ORACLE_CAP} needs allow_large=True "
            "(--allow-large)")
    start = SeminormalVector.unit(row_reading_tableau(tau))
    basis = [act_by_word(d_reduced_word(t).word, start)
             for t in standard_tableaux(tau)]
    gram = gram_matrix(basis)
    for row in gram:
        for entry in row:
            if entry.denominator != 1:
                raise ArithmeticError(
                    f"non-integer Gram entry {entry} for shape {tau}")
    _, rank = modp_rank(gram, p)
    return rank


def consistency_check(n: int, p: int, jobs: int = 1, collect=None) -> bool:
    """Standard decomposition-matrix sanity for (n, p): column dimensions,
    diagonal ones, and dominance triangularity, with dim D from the
    independent full-Gram oracle.  Appends human-readable diff lines to
    ``collect`` (when given) and returns False instead of raising."""
    diffs = collect if collect is not None else []
    report = conjecture_check(n, p, jobs=jobs)
    if not report.overall:
        diffs.append(f"conjecture check failed for n={n}, p={p}")
        return False
    dim_d = {mu: gram_oracle_dimD(mu, p) for mu in report.order}
    ok = True
    for tau in all_partitions(n):
        dim_s = standard_tableau_count(tau)
        total = sum(report.decomposition[(tau, mu)] * dim_d[mu]
                    for mu in report.order)
        if total != dim_s:
            ok = False
            diffs.append(f"dim S{tau} = {dim_s} but sum d*dimD = {total}")
    for mu in report.order:
        if report.decomposition[(mu, mu)] != 1:
            ok = False
            diffs.append(f"d({mu},{mu}) = {report.decomposition[(mu, mu)]} != 1")
    for (tau, mu), d in report.decomposition.items():
        if d != 0 and not dominates(tau, mu):
            ok = False
            diffs.append(f"d({tau},{mu}) = {d} nonzero without dominance")
    return ok
