"""Tests for the verification pipeline: multiplicity matrices, the delta
identities, decomposition numbers, and the full-Gram dimension oracle."""

import re
import sys
from collections.abc import Mapping
from fractions import Fraction

import pytest

import oracles
from spechtmod import fock, ranks, seminormal, tableaux, verify
from spechtmod.fock import SparseRows, evaluate_at_one, llt_canonical
from spechtmod.partitions import (all_partitions, dominates,
                                  ladder_decomposition,
                                  restricted_partitions,
                                  standard_tableau_count,
                                  validate_ladder_lengths)
from spechtmod.ranks import GramReport
from spechtmod.seminormal import SeminormalVector
from spechtmod.tableaux import StandardTableau
from spechtmod.verify import (Grid, VerificationReport, check_record,
                              conjecture_check, consistency_check,
                              gram_oracle_dimD, m_matrix)

# Decomposition numbers for n = 5, p = 3: the nonzero off-diagonal entries,
# keyed (tau, mu).  Every other off-diagonal entry is zero and every diagonal
# entry on a restricted row is one.
DECOMPOSITION_53_OFFDIAG = {
    ((4, 1), (3, 2)): 1,
    ((5,), (2, 2, 1)): 1,
    ((2, 2, 1), (2, 1, 1, 1)): 1,
    ((3, 2), (1, 1, 1, 1, 1)): 1,
}

# dim D(mu) for the 3-restricted partitions of 5, from the full-Gram oracle.
DIM_D_53 = {
    (3, 2): 4,
    (3, 1, 1): 6,
    (2, 2, 1): 1,
    (2, 1, 1, 1): 4,
    (1, 1, 1, 1, 1): 1,
}


@pytest.fixture(scope="module")
def reports_p3():
    """Verification reports for p = 3 across the in-region sizes."""
    return {n: conjecture_check(n, 3) for n in range(1, 9)}


def identity_matrix(k):
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def counts_at_one(n, p):
    """mu -> tau -> the coefficient of tau in A(mu) at q = 1."""
    table = llt_canonical(n, p)
    return {mu: {tau: evaluate_at_one(c) for tau, c in a.terms.items()}
            for mu, a in table.A.items()}


@pytest.mark.parametrize("check", [
    lambda jobs: m_matrix(5, 3, {}, jobs=jobs),
    lambda jobs: conjecture_check(5, 3, jobs=jobs),
    lambda jobs: consistency_check(5, 3, jobs=jobs),
], ids=["m_matrix", "conjecture_check", "consistency_check"])
@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_are_refused(monkeypatch, check, jobs):
    # refused with a ValueError before any partition is listed
    def listed(*args):
        raise AssertionError("partitions listed before the jobs check")

    for module in (verify, fock):
        monkeypatch.setattr(module, "restricted_partitions", listed)
    with pytest.raises(ValueError,
                       match=f"^jobs must be at least 1, got {jobs}$"):
        check(jobs)


class TestMMatrix:
    def test_single_box(self):
        assert tuple(m_matrix(1, 3, counts_at_one(1, 3))) == ((1,),)

    def test_two_boxes(self):
        assert tuple(m_matrix(2, 3, counts_at_one(2, 3))) == identity_matrix(2)

    def test_n5_p3_is_identity(self):
        assert tuple(m_matrix(5, 3, counts_at_one(5, 3))) == identity_matrix(5)

    def test_jobs_do_not_change_the_answer(self):
        counts = counts_at_one(4, 3)
        assert m_matrix(4, 3, counts, jobs=2).rows == \
            m_matrix(4, 3, counts, jobs=1).rows

    @pytest.mark.parametrize("cpus, started", [(4, [4]), (64, [5]),
                                               (None, []), (1, [])])
    def test_worker_count_is_clamped(self, monkeypatch, cpus, started):
        # a fake pool records the requested size; no process is started
        requested = []

        class FakePool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        # m_matrix imports multiprocessing only when it starts a pool
        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr("spechtmod.verify.os.cpu_count", lambda: cpus)
        # five 3-restricted partitions of 5, so five column tasks
        assert tuple(m_matrix(5, 3, counts_at_one(5, 3), jobs=10**6)) == \
            identity_matrix(5)
        assert requested == started

    def test_rows_are_simples_columns_are_weights(self):
        # ties the matrix layout to the Fitting oracle, entry by entry
        for n in (4, 5):
            order = restricted_partitions(n, 3)
            mat = m_matrix(n, 3, counts_at_one(n, 3))
            for a, lam in enumerate(order):
                for b, mu in enumerate(order):
                    assert mat[a][b] == oracles.dim_e_tilde_D_oracle(mu, lam, 3)

    def test_verify_path_builds_no_tableau_vector_or_norm(self):
        # chains and Gram entries run on position tuples with norms carried
        # along the steps, and the ladder-group average is read off orbit
        # representatives, so m_matrix builds no StandardTableau,
        # SeminormalVector or GramReport, reads no ladder tableau, computes
        # no norm or bubble-sort word, never symmetrizes a vector and runs
        # no elimination on the chains (their basis is checked unitriangular)
        forbidden = {fn.__code__: name for name, fn in (
            ("StandardTableau", StandardTableau.__init__),
            ("from_positions", StandardTableau.from_positions.__func__),
            ("SeminormalVector", SeminormalVector.__init__),
            ("from_numerators", SeminormalVector.from_numerators.__func__),
            ("norm", seminormal.norm),
            ("reduced_word", tableaux.reduced_word),
            ("_symmetrize", ranks._symmetrize),
            ("independent_subset", ranks.independent_subset))}
        # GramReport shares its __init__ with the package's other records,
        # so a call of it counts only when it builds a GramReport
        record_init = GramReport.__init__.__code__
        called = set()

        def profile(frame, event, arg):
            if event != "call":
                return
            if frame.f_code in forbidden:
                called.add(forbidden[frame.f_code])
            elif frame.f_code is record_init and \
                    type(frame.f_locals.get("self")) is GramReport:
                called.add("GramReport")

        counts = counts_at_one(16, 5)
        sys.setprofile(profile)
        try:
            mat = m_matrix(16, 5, counts)
        finally:
            sys.setprofile(None)
        assert called == set()
        assert sum(map(len, mat.rows)) == 196

    def test_stack_frontiers_are_the_orbit_representatives(self,
                                                           monkeypatch):
        # the path stack hands each valid mu, once, the representatives
        # that ladder_orbit_positions lists from the empty shape (itself
        # checked against oracles.ladder_orbit_positions_recursive)
        frontiers = {}

        def recording(ld, representatives, *args):
            assert ld.partition not in frontiers
            frontiers[ld.partition] = {
                tau: sorted(reps) for tau, reps in representatives.items()}
            return {}

        monkeypatch.setattr(verify, "_weight_space_dims", recording)
        for p, top in ((3, 10), (5, 13), (7, 13)):
            for n in range(top + 1):
                frontiers.clear()
                m_matrix(n, p, dict.fromkeys(restricted_partitions(n, p)))
                valid = [mu for mu in restricted_partitions(n, p)
                         if validate_ladder_lengths(mu, p)]
                assert sorted(frontiers) == sorted(valid), (n, p)
                for mu in valid:
                    assert frontiers[mu] == tableaux.ladder_orbit_positions(
                        mu, p), (mu, p)

    def test_columns_do_not_depend_on_the_visiting_order(self, monkeypatch):
        # the sort key, the Fock side's partitions._steps_of, only orders
        # the walk: the stack compares the steps of each mu's own ladder
        # data, so any order gives the same matrix
        for n, p in ((8, 3), (12, 5), (13, 7)):
            counts = counts_at_one(n, p)
            expected = tuple(m_matrix(n, p, counts))
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_steps_of", lambda mu, p: mu[::-1])
                assert tuple(m_matrix(n, p, counts)) == expected, (n, p)

    def test_ladders_read_once_per_mu_and_step_table_once(self, monkeypatch):
        # m_matrix reads each restricted mu's ladders once and builds the
        # step table once, and hands both down to every column; a module
        # that does not bind a name cannot call it by that name
        counts = counts_at_one(16, 5)
        read, tables = [], []

        def reading(lam, p):
            read.append(lam)
            return ladder_decomposition(lam, p)

        def building(n, p):
            tables.append((n, p))
            return step_rules(n, p)

        step_rules = ranks._step_rules
        for module in ("partitions", "tableaux", "ranks", "verify"):
            monkeypatch.setattr(f"spechtmod.{module}.ladder_decomposition",
                                reading, raising=False)
        for module in ("ranks", "verify"):
            monkeypatch.setattr(f"spechtmod.{module}._step_rules", building,
                                raising=False)
        m_matrix(16, 5, counts)
        assert len(read) == 164
        assert sorted(read) == sorted(restricted_partitions(16, 5))
        assert tables == [(16, 5)]


class TestConjectureCheck:
    def test_report_structure_n5(self, reports_p3):
        r = reports_p3[5]
        assert (r.p, r.n) == (3, 5)
        assert r.order == restricted_partitions(5, 3)
        assert not r.outside_region
        assert r.overall
        assert tuple(r.nmat1) == identity_matrix(5)
        assert tuple(r.amat) == identity_matrix(5)
        assert r.mmat.rows == r.nmat1.rows
        assert set(r.checks) == {(mu, tau) for mu in r.order for tau in r.order}
        for (mu, tau), v in r.checks.items():
            assert set(v) == {"lhs", "expected", "pass"}
            assert v["expected"] == (1 if mu == tau else 0)
            assert v["lhs"] == v["expected"]
            assert v["pass"] is True

    def test_decomposition_numbers_n5(self, reports_p3):
        r = reports_p3[5]
        assert set(r.decomposition) == {
            (tau, mu) for tau in all_partitions(5) for mu in r.order}
        for (tau, mu), d in r.decomposition.items():
            if tau == mu:
                assert d == 1
            else:
                assert d == DECOMPOSITION_53_OFFDIAG.get((tau, mu), 0)

    def test_overall_in_region_p3(self, reports_p3):
        for n in range(1, 9):
            r = reports_p3[n]
            assert r.overall
            assert not r.outside_region
            assert all(v["pass"] is True for v in r.checks.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_first_approximation_is_computed_once(self, monkeypatch,
                                                       jobs):
        # the Gram side only reads the counts the Fock side passes it
        def no_gram_side_fock(mu, p):
            raise AssertionError(f"the Gram side computed A({mu})")

        # and the Fock side makes one divided power per distinct ladder
        # prefix (residue, size) of the restricted partitions
        calls, tables = [], []
        real_f, real_llt = fock._divided, verify.llt_canonical

        def counted(*args):
            calls.append(args[:2])
            return real_f(*args)

        def kept(n, p):
            tables.append(real_llt(n, p))
            return tables[-1]

        monkeypatch.setattr("spechtmod.ranks.first_approximation",
                            no_gram_side_fock)
        monkeypatch.setattr("spechtmod.fock._divided", counted)
        monkeypatch.setattr("spechtmod.verify.llt_canonical", kept)
        assert conjecture_check(8, 3, jobs=jobs).overall
        restricted = restricted_partitions(8, 3)
        prefixes = set()
        for mu in restricted:
            steps = oracles.ladder_steps(mu, 3)
            prefixes.update(steps[:d] for d in range(1, len(steps) + 1))
        assert len(calls) == len(prefixes)
        (table,) = tables
        assert list(table.A) == list(restricted)

    def test_overall_small_p5(self):
        for n in range(1, 7):
            r = conjecture_check(n, 5)
            assert r.overall and not r.outside_region

    def test_outside_region_n9_p3_skips_dependent_columns(self):
        r = conjecture_check(9, 3)
        assert r.outside_region
        assert r.overall  # every *evaluated* identity still holds
        bad_mu = (5, 3, 1)
        col = r.order.index(bad_mu)
        assert all(row[col] is None for row in r.mmat)
        skipped = [(mu, tau) for (mu, tau), v in r.checks.items()
                   if v["pass"] is None]
        assert len(skipped) == 16
        assert {mu for mu, _tau in skipped} == {bad_mu}

    def test_triangularity_and_diagonal_ones(self, reports_p3):
        r = reports_p3[6]
        for mu in r.order:
            assert r.decomposition[(mu, mu)] == 1
        for (tau, mu), d in r.decomposition.items():
            if d:
                assert dominates(tau, mu)

    def test_nonnegativity_violations_empty_p3(self, reports_p3):
        for n in range(1, 9):
            assert reports_p3[n].nonnegativity_violations() == ()

    def test_nonnegativity_violations_by_row_then_column(self):
        order = ((3,), (2, 1), (1, 1, 1))
        unit = SparseRows.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        report = VerificationReport(
            p=3, n=3, order=order,
            nmat1=SparseRows.from_rows(((1, -2, -1), (0, 1, 5), (-3, 0, 1))),
            amat=unit, mmat=unit,
            checks=Grid(order, order, unit, check_record),
            overall=True, outside_region=False)
        assert report.nonnegativity_violations() == (
            (order[0], order[1], -2), (order[0], order[2], -1),
            (order[2], order[0], -3))

    def test_decomposition_matrix_layout(self, reports_p3):
        rows, cols, body = reports_p3[5].decomposition_matrix()
        assert rows == all_partitions(5)
        assert cols == restricted_partitions(5, 3)
        assert len(body) == len(rows) and len(body[0]) == len(cols)
        assert body[rows.index((4, 1))][cols.index((3, 2))] == 1
        assert body[rows.index((5,))][cols.index((2, 2, 1))] == 1

    def test_decomposition_matrix_empty_without_data(self):
        empty = SparseRows((), 0)
        bare = VerificationReport(p=3, n=2, order=(), nmat1=empty,
                                  amat=empty, mmat=empty,
                                  checks=Grid((), (), empty, check_record),
                                  overall=False, outside_region=False)
        assert bare.decomposition_matrix() == ((), (), ())

    def test_report_fields_cannot_be_assigned(self, reports_p3):
        report = reports_p3[5]
        for field in ("overall", "nmat1", "checks", "decomposition"):
            with pytest.raises(AttributeError):
                setattr(report, field, None)
        with pytest.raises(AttributeError):
            report.extra = 1
        assert report.overall is True and len(report.decomposition) == 35


class TestGramOracle:
    def test_frozen_dims_n5_p3(self):
        got = {mu: gram_oracle_dimD(mu, 3) for mu in restricted_partitions(5, 3)}
        assert got == DIM_D_53

    def test_one_column_and_one_row(self):
        assert gram_oracle_dimD((2,), 3) == 1
        assert gram_oracle_dimD((2, 1), 3) == 1
        assert gram_oracle_dimD((1, 1, 1), 3) == 1

    def test_matches_polytabloid_oracle(self):
        for n in range(1, 7):
            for mu in restricted_partitions(n, 3):
                assert gram_oracle_dimD(mu, 3) == oracles.dim_D_oracle(mu, 3)
        for mu in ((3, 2), (4, 2), (2, 2, 1, 1)):
            assert gram_oracle_dimD(mu, 5) == oracles.dim_D_oracle(mu, 5)

    def test_rejects_unrestricted_shape(self):
        with pytest.raises(ValueError):
            gram_oracle_dimD((5,), 3)

    def test_rejects_huge_shape_without_opt_in(self):
        big = (5, 4, 2, 1, 1)
        assert standard_tableau_count(big) == 21450
        with pytest.raises(ValueError):
            gram_oracle_dimD(big, 3)

    def test_cap_checked_before_enumeration(self, monkeypatch):
        def no_enumeration(lam):
            raise AssertionError("enumerated before the oracle cap")

        monkeypatch.setattr("spechtmod.verify.standard_tableaux",
                            no_enumeration)
        with pytest.raises(ValueError, match="292864 > 20000"):
            gram_oracle_dimD((5, 4, 3, 2, 1), 7)

    def test_rejects_a_non_integer_gram_entry(self, monkeypatch):
        gram = verify.gram_matrix

        def off_by_half(basis):
            rows = [list(row) for row in gram(basis)]
            rows[0][0] += Fraction(1, 2)
            return rows

        monkeypatch.setattr(verify, "gram_matrix", off_by_half)
        with pytest.raises(ArithmeticError, match=re.escape(
                "non-integer Gram entry 5/2 for shape (2, 1)")):
            gram_oracle_dimD((2, 1), 3)


def set_decomposition_entry(tau, mu, value):
    """An edit of a dict of report fields that sets d(tau, mu) to value."""
    def edit(fields):
        d = fields["decomposition"]
        rows = [dict(row) for row in d.rows.rows]
        rows[d.row_keys.index(tau)][d.col_keys.index(mu)] = value
        fields["decomposition"] = Grid(d.row_keys, d.col_keys,
                                       SparseRows(rows, d.rows.size))
    return edit


class TestConsistencyCheck:
    def test_holds_through_n6_p3(self):
        for n in range(1, 7):
            diffs = []
            assert consistency_check(n, 3, collect=diffs)
            assert diffs == []

    def test_holds_small_p5(self):
        assert consistency_check(4, 5)

    # at n = 4, p = 3: dim D = 3, 1, 3, 1 on (3, 1), (2, 2), (2, 1, 1),
    # (1, 1, 1, 1), and d(tau, mu) = 1 on the diagonal, at ((4,), (2, 2))
    # and at ((2, 2), (1, 1, 1, 1)), 0 elsewhere
    def test_reports_a_wrong_dimension(self, monkeypatch):
        oracle = verify.gram_oracle_dimD
        monkeypatch.setattr(verify, "gram_oracle_dimD",
                            lambda mu, p: oracle(mu, p) + (mu == (2, 2)))
        diffs = []
        assert consistency_check(4, 3, collect=diffs) is False
        assert diffs == ["dim S(4,) = 1 but sum d*dimD = 2",
                         "dim S(2, 2) = 2 but sum d*dimD = 3"]

    @pytest.mark.parametrize("edit, lines", [
        (lambda fields: fields.update(overall=False),
         ["conjecture check failed for n=4, p=3"]),
        (set_decomposition_entry((2, 1, 1), (2, 1, 1), 2),
         ["dim S(2, 1, 1) = 3 but sum d*dimD = 6",
          "d((2, 1, 1),(2, 1, 1)) = 2 != 1"]),
        (set_decomposition_entry((1, 1, 1, 1), (3, 1), 1),
         ["dim S(1, 1, 1, 1) = 1 but sum d*dimD = 4",
          "d((1, 1, 1, 1),(3, 1)) = 1 nonzero without dominance"]),
    ], ids=["overall-false", "diagonal-two", "off-dominance"])
    def test_reports_a_faulty_report(self, monkeypatch, edit, lines):
        real = verify.conjecture_check

        def patched(n, p, jobs=1):
            report = real(n, p, jobs=jobs)
            fields = {key: getattr(report, key) for key in report.__slots__}
            edit(fields)
            return VerificationReport(**fields)

        monkeypatch.setattr(verify, "conjecture_check", patched)
        diffs = []
        assert consistency_check(4, 3, collect=diffs) is False
        assert diffs == lines


VIEW_CASES = ([(3, n) for n in range(1, 10)] + [(5, n) for n in range(1, 13)]
              + [(7, n) for n in range(1, 11)])


def assert_stored_entries(table, none_at):
    """``table`` is a SparseRows: the keys of each row ascend, no 0 is
    stored, and row i stores None exactly at the keys ``none_at(i)``."""
    assert type(table) is fock.SparseRows
    for i, row in enumerate(table.rows):
        assert list(row) == sorted(row)
        assert all(0 <= k < table.size for k in row)
        assert all(value != 0 for value in row.values())
        assert {k for k, value in row.items() if value is None} == none_at(i)


def assert_views_match_references(report):
    """The report's checks and decomposition views against the dicts that
    the verify pipeline used to assemble, and every table stored as its
    entries other than 0, None only in the skipped columns."""
    checks, overall = oracles.check_records_reference(
        report.order, report.amat, report.mmat)
    size = len(report.order)
    assert not isinstance(report.checks, dict)
    assert len(report.checks) == size * size
    got = dict(report.checks.items())
    assert got == checks and list(got) == list(checks)
    assert report.overall == overall
    missing = {k for k, m in enumerate(tuple(report.mmat)[0]) if m is None}
    assert_stored_entries(report.mmat, lambda t: missing)
    skipped = {b for b, mu in enumerate(report.order)
               if checks[(mu, mu)]["pass"] is None}
    assert_stored_entries(report.checks.rows, lambda b: set(range(size))
                          if b in skipped else set())
    if not overall:
        assert dict(report.decomposition.items()) == {}
        assert report.decomposition_matrix() == ((), (), ())
        return
    table = llt_canonical(report.n, report.p)
    taus = all_partitions(report.n)
    dec, rows = oracles.decomposition_reference(
        report.order, taus,
        {mu: {tau: evaluate_at_one(c) for tau, c in table.G[mu].terms.items()}
         for mu in report.order})
    assert not isinstance(report.decomposition, dict)
    assert dict(report.decomposition.items()) == dec
    labels, cols, body = report.decomposition_matrix()
    assert (labels, cols, tuple(body)) == (taus, report.order, rows)
    assert_stored_entries(body, lambda t: set())


def failing_report(monkeypatch):
    """conjecture_check(6, 3) with one wrong m entry, in column order[0]."""
    real = verify.m_matrix

    def off_by_one(n, p, counts, jobs=1):
        m = [list(row) for row in real(n, p, counts, jobs)]
        m[-1][0] += 1
        return fock.SparseRows.from_rows(m)

    monkeypatch.setattr("spechtmod.verify.m_matrix", off_by_one)
    return conjecture_check(6, 3)


class TestReportViews:
    def test_failing_report_reads_an_empty_decomposition(self, monkeypatch):
        # conjecture_check builds the report whole: a failing one still
        # holds a decomposition, an empty Mapping, as a stub left without
        # one does
        report = failing_report(monkeypatch)
        bare = VerificationReport(*report._values()[:-1])
        for d in (report.decomposition, bare.decomposition):
            assert isinstance(d, Mapping) and len(d) == 0
            assert list(d) == [] and dict(d.items()) == {}
            assert (report.order[0], report.order[0]) not in d
        assert report.decomposition_matrix() == ((), (), ())
        assert bare.decomposition_matrix() == ((), (), ())

    @pytest.mark.parametrize("p, n", VIEW_CASES)
    def test_views_match_the_dict_assembly(self, p, n):
        assert_views_match_references(conjecture_check(n, p))

    def test_skipped_columns(self):
        # n >= p*p: the columns whose ladders reach p are all None
        report = conjecture_check(9, 3)
        assert report.outside_region
        assert any(v["pass"] is None for v in report.checks.values())
        assert {k for k, m in report.mmat.rows[0].items() if m is None} == {
            k for k, mu in enumerate(report.order)
            if not validate_ladder_lengths(mu, 3)}
        assert_views_match_references(report)

    def test_failing_identity(self, monkeypatch):
        # one wrong m entry fails its checks and leaves no decomposition
        report = failing_report(monkeypatch)
        assert not report.overall
        failed = [key for key, v in report.checks.items()
                  if v["pass"] is False]
        assert failed and all(mu == report.order[0] for mu, _tau in failed)
        assert_views_match_references(report)

    def test_missing_needed_column_skips_its_dependents(self, monkeypatch):
        # at p=3 n=7, a(order[0], order[3]) != 0: with the m-column of
        # order[0] missing, the identities at both columns are skipped
        real = verify.m_matrix

        def first_missing(n, p, counts, jobs=1):
            return fock.SparseRows.from_rows(
                (None,) + row[1:] for row in real(n, p, counts, jobs))

        monkeypatch.setattr("spechtmod.verify.m_matrix", first_missing)
        report = conjecture_check(7, 3)
        assert report.amat[0][3] != 0
        skipped = {mu for (mu, _tau), v in report.checks.items()
                   if v["pass"] is None}
        assert skipped == {report.order[0], report.order[3]}
        assert_views_match_references(report)

    def test_lookup_and_membership(self):
        report = conjecture_check(5, 3)
        mu, tau = report.order[0], report.order[1]
        assert report.checks[(mu, mu)] == {"lhs": 1, "expected": 1,
                                           "pass": True}
        assert report.checks[(mu, tau)]["expected"] == 0
        assert (mu, tau) in report.checks and ((9,), mu) not in report.checks
        for key in [((9,), mu), (mu,), "x", 5]:
            with pytest.raises(KeyError):
                report.checks[key]
        assert report.decomposition[((5,), (2, 2, 1))] == 1
