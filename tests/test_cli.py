"""Tests for the command-line driver: parsing, subcommand reports,
determinism, exit codes, and output formats."""

import csv
import hashlib
import io
import json
import subprocess
import sys

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spechtmod import cli
from spechtmod.cli import (CheckRecords, _jint, _write_json, main,
                           partition_str)
from spechtmod.fock import LaurentPoly, SparseRows, llt_canonical, nmat_at_one
from spechtmod.verify import (Grid, VerificationReport, check_record,
                              conjecture_check)


def run_cli(argv, capsys):
    """Invoke main in-process; return (exit code, stdout, stderr)."""
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    return rc, json.loads(out), err


ORDER2 = ((2,), (1, 1))
UNIT2 = SparseRows.from_rows(((1, 0), (0, 1)))


def lhs_grid(order, rows) -> Grid:
    """The checks Grid of a verify report over the dense lhs ``rows``, the
    row of each mu over tau."""
    return Grid(order, order, SparseRows.from_rows(rows), check_record)


def parse_partition(text: str) -> tuple:
    """The parts of a --mu/--tau value, as main reads one within its cap."""
    return cli._parts(cli._runs(text))


class TestPartitionParsing:
    def test_plain(self):
        assert parse_partition("3,2") == (3, 2)
        assert parse_partition("5") == (5,)

    def test_exponent_shorthand(self):
        assert parse_partition("2,1^3") == (2, 1, 1, 1)
        assert parse_partition("3^2,2^2,1") == (3, 3, 2, 2, 1)

    def test_whitespace_tolerated(self):
        assert parse_partition(" 3 , 2 ") == (3, 2)

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            parse_partition("2,3")

    def test_rejects_empty_component(self):
        with pytest.raises(ValueError):
            parse_partition("2,,1")

    @pytest.mark.parametrize("text", ["1^-1", "3,1^-2", "2^0,1"])
    def test_rejects_exponent_below_one(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    def test_roundtrip(self):
        for lam in ((4, 2, 1), (1, 1, 1), (7,)):
            assert parse_partition(partition_str(lam)) == lam


class TestFockCommand:
    def test_n5_p3_report(self, capsys):
        rc, doc, _ = run_json(["fock", "--p", "3", "--n", "5"], capsys)
        assert rc == 0
        assert doc["command"] == "fock"
        assert doc["order"] == ["3,2", "3,1,1", "2,2,1", "2,1,1,1",
                                "1,1,1,1,1"]
        assert doc["A"]["3,2"] == {"3,2": {"0": 1}, "4,1": {"1": 1}}
        assert doc["nmat1"] == [[1 if i == j else 0 for j in range(5)]
                                for i in range(5)]
        # transition matrix is the identity here: 5 diagonal entries only
        assert len(doc["nmat"]) == 5
        assert all(e["lam"] == e["mu"] and e["poly"] == {"0": 1}
                   for e in doc["nmat"])

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(["fock", "--p", "3", "--n", "6"], capsys)
        _, out2, _ = run_cli(["fock", "--p", "3", "--n", "6"], capsys)
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "fock.json"
        rc, out, _ = run_cli(["fock", "--p", "3", "--n", "4",
                              "--output", str(target)], capsys)
        assert rc == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["n"] == 4

    @pytest.mark.parametrize("argv, digest", [
        (["--p", "3", "--n", "10"],
         "40cafbd2c23dfb26cd31eb07cef5659e752c22de903c3174741765c6c905e97f"),
        (["--p", "5", "--n", "14"],
         "2e2b73e20139fd4bffccceb2e77cbb410f76c70cfd8e153727e64674c7df2cfe"),
        (["--p", "7", "--n", "16"],
         "6ac548729d11e7e43284ff55fdc01fc8eeafb5d7ac3d572795eadd88f6297ec0"),
    ])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        rc, out, _ = run_cli(["fock"] + argv, capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_class_cap_exits_before_any_listing(self, capsys, monkeypatch):
        # the LLT recursion lists every partition of n, so fock takes the
        # size bound of verify, with its message
        def no_fock(n, p):
            raise AssertionError("partitions listed before the class cap")

        monkeypatch.setattr("spechtmod.tableaux._CLASS_CAP", 4)
        monkeypatch.setattr("spechtmod.cli.llt_canonical", no_fock)
        rc, out, err = run_cli(["fock", "--p", "3", "--n", "5"], capsys)
        assert rc == 2 and out == ""
        assert "class enumeration is capped at n = 4, got n=5" in err


class TestRankCommand:
    def test_worked_pair_report(self, capsys):
        rc, doc, _ = run_json(["rank", "--p", "3", "--mu", "2,1^3",
                               "--tau", "2,2,1"], capsys)
        assert rc == 0
        assert (doc["mu"], doc["tau"]) == ("2,1,1,1", "2,2,1")
        assert doc["basis_size_before_symmetrization"] == 1
        assert doc["basis_size"] == 1
        assert doc["gram"] == [["3/1"]]
        assert doc["gram_mod_p"] == [[0]]
        assert doc["rank"] == 0
        (vec,) = doc["basis"]
        assert vec["shape"] == "2,2,1"
        for term in vec["terms"]:
            assert set(term) == {"tableau", "numerator", "denominator"}

    def test_empty_class_report(self, capsys):
        rc, doc, _ = run_json(["rank", "--p", "3", "--mu", "3,2",
                               "--tau", "1^5"], capsys)
        assert rc == 0
        assert doc["basis_size"] == 0
        assert doc["gram"] == [] and doc["rank"] == 0

    def test_size_mismatch_is_exit_2(self, capsys):
        rc, out, err = run_cli(["rank", "--p", "3", "--mu", "2,1",
                                "--tau", "3,1"], capsys)
        assert rc == 2 and out == "" and "error" in err

    def test_unrestricted_mu_is_exit_2(self, capsys):
        rc, _, err = run_cli(["rank", "--p", "3", "--mu", "3",
                              "--tau", "2,1"], capsys)
        assert rc == 2 and "restricted" in err

    def test_class_cap_names_the_flag(self, capsys, monkeypatch):
        # the refusal comes before the Fock side and names --allow-large
        def no_fock(mu, p):
            raise AssertionError("Fock side ran before the class cap")

        monkeypatch.setattr("spechtmod.tableaux._CLASS_CAP", 4)
        monkeypatch.setattr("spechtmod.ranks.first_approximation", no_fock)
        rc, out, err = run_cli(["rank", "--p", "3", "--mu", "2,1^3",
                                "--tau", "2,2,1"], capsys)
        assert rc == 2 and out == ""
        assert "--allow-large" in err

    def test_class_cap_comes_before_any_ladder_data(self, capsys, monkeypatch):
        def no_ladders(lam, p):
            raise AssertionError("ladder data built before the class cap")

        for module in ("partitions", "ranks", "tableaux"):
            monkeypatch.setattr(f"spechtmod.{module}.ladder_decomposition",
                                no_ladders)
        rc, out, err = run_cli(["rank", "--p", "3", "--mu", "1^41",
                                "--tau", "1^41"], capsys)
        assert rc == 2 and out == ""
        assert ("class enumeration with n=41 > 40 needs allow_large=True "
                "(--allow-large)") in err

    @pytest.mark.parametrize("argv, digest", [
        (["--p", "5", "--mu", "6,3,1^3", "--tau", "7,3,1,1"],
         "a92d47cdbff321592b10c20938d06c5b1c781a63143d8485ea9cecb55f21e60c"),
        (["--p", "3", "--mu", "3,2,1,1", "--tau", "4,2,1"],
         "efe52b3d7312928f2cacf87173b3c4e6ab8da8ba8ae568b810c092bdb0043edb"),
    ])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        # both pairs have a nontrivial ladder group, basis size 2 and rank 1
        rc, out, _ = run_cli(["rank"] + argv, capsys)
        assert rc == 0
        doc = json.loads(out)
        assert (doc["basis_size"], doc["rank"]) == (2, 1)
        assert doc["basis_size_before_symmetrization"] > doc["basis_size"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_n5_p3_json(self, capsys):
        rc, doc, _ = run_json(["verify", "--p", "3", "--n", "5"], capsys)
        assert rc == 0
        assert doc["overall"] is True
        assert doc["outside_region"] is False
        assert doc["nonnegativity_violations"] == []
        assert doc["mmat"] == doc["nmat1"]
        assert len(doc["checks"]) == 25
        assert all(c["pass"] is True for c in doc["checks"])
        dec = doc["decomposition"]
        assert len(dec["rows"]) == 7 and len(dec["cols"]) == 5
        row = dec["rows"].index("4,1")
        col = dec["cols"].index("3,2")
        assert dec["entries"][row][col] == 1

    def test_csv_decomposition_matrix(self, capsys):
        rc, out, _ = run_cli(["verify", "--p", "3", "--n", "5",
                              "--format", "csv"], capsys)
        assert rc == 0
        assert '"3,2"' in out  # partitions with commas must be quoted
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == ["tau\\mu", "3,2", "3,1,1", "2,2,1", "2,1,1,1",
                            "1,1,1,1,1"]
        assert len(table) == 8  # header + one row per partition of 5
        by_tau = {line[0]: line[1:] for line in table[1:]}
        assert by_tau["4,1"][0] == "1"
        assert by_tau["1,1,1,1,1"] == ["0", "0", "0", "0", "1"]

    def test_csv_bytes_pinned(self, capsys):
        # SHA-256 measured before the CSV was streamed to the destination
        rc, out, _ = run_cli(["verify", "--p", "5", "--n", "12", "--jobs", "1",
                              "--format", "csv"], capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "9cc1bdd320cda252a0412a81d31682a2b6eafef411a94488e47b4598838a8a75"

    def test_jobs_do_not_change_bytes(self, capsys):
        _, out1, _ = run_cli(["verify", "--p", "3", "--n", "6",
                              "--jobs", "1"], capsys)
        for jobs in ("2", "3"):
            _, out, _ = run_cli(["verify", "--p", "3", "--n", "6",
                                 "--jobs", jobs], capsys)
            assert out == out1, jobs

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_exit_2(self, capsys, jobs):
        rc, out, err = run_cli(["verify", "--p", "3", "--n", "4",
                                "--jobs", jobs], capsys)
        assert rc == 2 and out == "" and "--jobs" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_jobs_variable_is_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SPECHTMOD_JOBS", value)
        try:
            rc = main(["verify", "--p", "3", "--n", "4"])
        except SystemExit as exc:  # argparse rejects a non-integer default
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and "--jobs" in captured.err

    def test_jobs_variable_reaches_conjecture_check(self, capsys, monkeypatch):
        seen = []
        stub = VerificationReport(
            p=3, n=2, order=ORDER2, nmat1=UNIT2, amat=UNIT2, mmat=UNIT2,
            checks=lhs_grid(ORDER2, ((1, 0), (0, 1))), overall=True,
            outside_region=False)
        monkeypatch.setattr("spechtmod.cli.conjecture_check",
                            lambda n, p, jobs=1: seen.append(jobs) or stub)
        monkeypatch.setenv("SPECHTMOD_JOBS", "2")
        rc, _, _ = run_cli(["verify", "--p", "3", "--n", "2"], capsys)
        assert rc == 0 and seen == [2]

    @pytest.mark.parametrize("argv, digest", [
        (["--p", "5", "--n", "12", "--jobs", "1"],
         "cefb9f845b8d5205f6459712ad4e21df62c9f4220e629b0674fdaa35a58e5a9c"),
        (["--p", "7", "--n", "12", "--jobs", "1"],
         "773be6b96a9d75b1b3f2fd2e55fc3ec1dcdc061cb0ab57a4252a43181c73f292"),
        (["--p", "3", "--n", "9", "--jobs", "1", "--outside-region"],
         "b447100849e9ef33a3fad60e0ffb409831ec00c1dffcceff82485ad63cac969b"),
    ])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        # the last case has skipped columns (outside the stated region)
        rc, out, _ = run_cli(["verify"] + argv, capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_outside_region_needs_opt_in(self, capsys):
        rc, out, err = run_cli(["verify", "--p", "3", "--n", "9"], capsys)
        assert rc == 2 and out == ""
        assert "--outside-region" in err

    def test_outside_region_opt_in_runs(self, capsys):
        rc, doc, _ = run_json(["verify", "--p", "3", "--n", "9",
                               "--outside-region"], capsys)
        assert rc == 0
        assert doc["outside_region"] is True
        assert doc["overall"] is True
        assert any(x is None for row in doc["mmat"] for x in row)
        assert sum(1 for c in doc["checks"] if c["pass"] is None) == 16

    def test_failed_check_is_exit_1(self, capsys, monkeypatch):
        stub = VerificationReport(
            p=3, n=2, order=ORDER2, nmat1=UNIT2, amat=UNIT2,
            mmat=SparseRows.from_rows(((1, 0), (1, 1))),
            checks=lhs_grid(ORDER2, ((1, 1), (0, 1))), overall=False,
            outside_region=False)
        monkeypatch.setattr("spechtmod.cli.conjecture_check",
                            lambda n, p, jobs=1: stub)
        rc, doc, err = run_json(["verify", "--p", "3", "--n", "2"], capsys)
        assert rc == 1 and doc["overall"] is False
        # the first failing identity is named on stderr
        assert err == "identity fails at mu=2, tau=1,1: lhs 1, expected 0\n"

    def test_negative_entry_is_exit_1(self, capsys, monkeypatch):
        stub = VerificationReport(
            p=3, n=2, order=ORDER2,
            nmat1=SparseRows.from_rows(((1, 0), (-1, 1))),
            amat=SparseRows.from_rows(((1, 0), (1, 1))), mmat=UNIT2,
            checks=lhs_grid(ORDER2, ((1, 0), (0, 1))), overall=True,
            outside_region=False)
        monkeypatch.setattr("spechtmod.cli.conjecture_check",
                            lambda n, p, jobs=1: stub)
        rc, doc, _ = run_json(["verify", "--p", "3", "--n", "2"], capsys)
        assert rc == 1
        assert doc["nonnegativity_violations"] == [
            {"lam": "1,1", "mu": "2", "value": -1}]

    def test_class_cap_exits_before_the_fock_side(self, capsys, monkeypatch):
        # the class cap is checked first, so a refused class enumeration
        # exits 2 without waiting for the LLT recursion
        def no_fock(n, p):
            raise AssertionError("Fock side ran before the class cap")

        monkeypatch.setattr("spechtmod.tableaux._CLASS_CAP", 4)
        monkeypatch.setattr("spechtmod.verify.llt_canonical", no_fock)
        rc, out, err = run_cli(["verify", "--p", "3", "--n", "5"], capsys)
        assert rc == 2 and out == ""
        assert "class enumeration is capped at n = 4, got n=5" in err


    def test_class_cap_exits_before_ladder_checks(self, capsys, monkeypatch):
        # the cap is read before any ladder of a restricted partition is
        # decomposed, with the message the enumeration itself would give
        def no_ladders(mu, p):
            raise AssertionError("ladder lengths checked before the cap")

        monkeypatch.setattr("spechtmod.tableaux._CLASS_CAP", 4)
        monkeypatch.setattr("spechtmod.verify.ladder_decomposition",
                            no_ladders)
        rc, out, err = run_cli(["verify", "--p", "3", "--n", "5"], capsys)
        assert rc == 2 and out == ""
        assert "class enumeration is capped at n = 4, got n=5" in err


class TestOracleCommand:
    def test_dim_report(self, capsys):
        rc, doc, _ = run_json(["oracle", "--p", "3", "--tau", "2,1"], capsys)
        assert rc == 0
        assert doc == {"command": "oracle", "tau": "2,1", "p": 3, "dim_D": 1}

    def test_unrestricted_tau_is_exit_2(self, capsys):
        rc, _, err = run_cli(["oracle", "--p", "3", "--tau", "5"], capsys)
        assert rc == 2 and "restricted" in err

    def test_oracle_cap_is_exit_2_without_enumeration(self, capsys,
                                                      monkeypatch):
        def no_enumeration(lam):
            raise AssertionError("enumerated before the oracle cap")

        monkeypatch.setattr("spechtmod.verify.standard_tableaux",
                            no_enumeration)
        rc, out, err = run_cli(["oracle", "--p", "7", "--tau", "5,4,3,2,1"],
                               capsys)
        assert rc == 2 and out == ""
        assert "= 292864 > 20000 needs allow_large=True" in err
        assert "--allow-large" in err

    def test_long_column_is_answered(self, capsys):
        # 1200 entries: the enumeration keeps no call frame per entry
        rc, doc, _ = run_json(["oracle", "--p", "3", "--tau", "1^1200"],
                              capsys)
        assert rc == 0 and doc["dim_D"] == 1

    def test_oracle_size_cap_is_exit_2_before_counting(self, capsys,
                                                       monkeypatch):
        def no_count(lam):
            raise AssertionError("counted before the size cap")

        monkeypatch.setattr("spechtmod.verify.standard_tableau_count",
                            no_count)
        rc, out, err = run_cli(["oracle", "--p", "3", "--tau", "1^20001"],
                               capsys)
        assert rc == 2 and out == ""
        assert "|tau| = 20001 > 20000 needs allow_large=True" in err


# (exit code, stdout, stderr) of main on each argv, as the parent of the
# single partition read gave them
REFUSALS = {
    # at most cap parts each: listed, as main lists them
    "oracle --p 3 --tau 4^5": (
        2, "", "error: 4,4,4,4,4 is not 3-restricted\n"),
    "oracle --p 3 --tau 2,3": (
        2, "", "error: partition parts must be weakly decreasing: (2, 3)\n"),
    "oracle --p 3 --tau 2,0,1": (
        2, "", "error: partition parts must be positive: (2, 0, 1)\n"),
    "oracle --p 3 --tau 2,1,0^30": (
        0, "{\n"
        '  "command": "oracle",\n'
        '  "dim_D": 1,\n'
        '  "p": 3,\n'
        '  "tau": "2,1"\n'
        "}\n", ""),
    "oracle --p 5 --tau 9^3 --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    "oracle --p 3 --tau 2^20000": (
        2, "",
        "error: |tau| = 40000 > 20000 needs allow_large=True "
        "(--allow-large)\n"),
    "oracle --p 3 --tau 100000": (
        2, "", "error: 100000 is not 3-restricted\n"),
    "rank --p 3 --mu 1^40 --tau 1^39": (
        2, "", "error: |mu| = 40 != |tau| = 39\n"),
    "rank --p 3 --mu 4,1 --tau 5": (
        2, "", "error: 4,1 is not 3-restricted\n"),
    "rank --p 3 --mu 2^20,1 --tau 1^41": (
        2, "",
        "error: class enumeration with n=41 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    "rank --p 3 --mu 2^21 --tau 2^21": (
        2, "",
        "error: class enumeration with n=42 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    "rank --p 3 --mu 100 --tau 1^20,80": (
        2, "",
        "error: partition parts must be weakly decreasing: (1, 1, 1, 1, 1, "
        "1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 80)\n"),
    "rank --p 3 --mu 2,1 --tau 2,1 --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    # mu listed, tau longer than the cap
    "rank --p 3 --mu 2^21 --tau 1^42": (
        2, "",
        "error: class enumeration with n=42 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    "rank --p 3 --mu 43 --tau 1^43": (
        2, "", "error: 43 is not 3-restricted\n"),
    "rank --p 3 --mu 3,2 --tau 1^50": (
        2, "", "error: |mu| = 5 != |tau| = 50\n"),
    "rank --p 3 --mu 2,3 --tau 1^50": (
        2, "", "error: partition parts must be weakly decreasing: (2, 3)\n"),
    # mu longer than the cap, tau listed
    "rank --p 3 --mu 1^42 --tau 2^21": (
        2, "",
        "error: class enumeration with n=42 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    "rank --p 3 --mu 1^42 --tau 3,2,1": (
        2, "", "error: |mu| = 42 != |tau| = 6\n"),
    "rank --p 3 --mu 1^41 --tau 2,3": (
        2, "", "error: partition parts must be weakly decreasing: (2, 3)\n"),
    "rank --p 3 --mu 1^41 --tau 4^10,1": (
        2, "",
        "error: class enumeration with n=41 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    # both longer than the cap
    "rank --p 3 --mu 1^50 --tau 1^50": (
        2, "",
        "error: class enumeration with n=50 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    "rank --p 3 --mu 2,1^48 --tau 1^50": (
        2, "",
        "error: class enumeration with n=50 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    "rank --p 3 --mu 4,1^46 --tau 1^50": (
        2, "", "error: 4,1^46 is not 3-restricted\n"),
    "rank --p 3 --mu 1^50 --tau 1^48,2": (
        2, "",
        "error: partition parts must be weakly decreasing: (1^48, 2)\n"),
    "rank --p 3 --mu 1^50 --tau 1^49": (
        2, "", "error: |mu| = 50 != |tau| = 49\n"),
    # --allow-large lifts the cap: long shorthand is listed and named by its
    # parts
    "rank --p 3 --mu 1^41 --tau 1^40 --allow-large": (
        2, "", "error: |mu| = 41 != |tau| = 40\n"),
    "rank --p 3 --mu 1^41 --tau 1^41 --allow-large --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    "rank --p 3 --mu 4,1^40 --tau 1^44 --allow-large": (
        2, "", "error: 4" + ",1" * 40 + " is not 3-restricted\n"),
    "rank --p 3 --mu 4,1^40 --tau 1^44": (
        2, "", "error: 4,1^40 is not 3-restricted\n"),
    "oracle --p 3 --tau 1^20001 --allow-large --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    "oracle --p 3 --tau 1^20001,0^3 --allow-large --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    # trailing runs of 0 are dropped before the parts are counted
    "oracle --p 3 --tau 2,1,0^30000": (
        0, "{\n"
        '  "command": "oracle",\n'
        '  "dim_D": 1,\n'
        '  "p": 3,\n'
        '  "tau": "2,1"\n'
        "}\n", ""),
    "oracle --p 3 --tau 0^30000": (
        0, "{\n"
        '  "command": "oracle",\n'
        '  "dim_D": 1,\n'
        '  "p": 3,\n'
        '  "tau": ""\n'
        "}\n", ""),
    "oracle --p 3 --tau 1^20001,0^3": (
        2, "",
        "error: |tau| = 20001 > 20000 needs allow_large=True "
        "(--allow-large)\n"),
    "oracle --p 3 --tau 2,0^30000,1": (
        2, "", "error: partition parts must be positive: (2, 0^30000, 1)\n"),
    "rank --p 3 --mu 1^41,0^2 --tau 1^41": (
        2, "",
        "error: class enumeration with n=41 > 40 needs allow_large=True "
        "(--allow-large)\n"),
    "rank --p 3 --mu 2,1 --tau 1^3,0^50": (
        0, "{\n"
        '  "basis": [],\n'
        '  "basis_size": 0,\n'
        '  "basis_size_before_symmetrization": 0,\n'
        '  "command": "rank",\n'
        '  "gram": [],\n'
        '  "gram_mod_p": [],\n'
        '  "mu": "2,1",\n'
        '  "p": 3,\n'
        '  "rank": 0,\n'
        '  "tau": "1,1,1"\n'
        "}\n", ""),
    # --format csv, after the sizes
    "oracle --p 3 --tau 1^20001 --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    "oracle --p 3 --tau 4^20001 --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    "rank --p 3 --mu 1^50 --tau 1^50 --format csv": (
        2, "", "error: csv format is available for verify only\n"),
    "rank --p 3 --mu 1^50 --tau 1^49 --format csv": (
        2, "", "error: |mu| = 50 != |tau| = 49\n"),
    "rank --p 3 --mu 4^13 --tau 1^52 --format csv": (
        2, "", "error: csv format is available for verify only\n"),
}
SHORT = list(REFUSALS)[:13]


def refuse_long_lists(monkeypatch, argv):
    """Make the CLI's one expansion of runs into parts fail on a partition
    with more parts than the cap of the command (40 for rank, 20000 for
    oracle), unless --allow-large lifts it."""
    cap = (float("inf") if "--allow-large" in argv
           else 40 if argv[0] == "rank" else 20000)
    listed = cli._parts

    def parts(runs):
        if sum(count for _, count in runs) > cap:
            raise AssertionError(f"{runs} was listed")
        return listed(runs)

    monkeypatch.setattr(cli, "_parts", parts)


class TestValidation:
    @pytest.mark.parametrize("p", ["2", "4", "1", "9"])
    def test_p_must_be_an_odd_prime(self, capsys, p):
        rc, _, err = run_cli(["fock", "--p", p, "--n", "3"], capsys)
        assert rc == 2 and "odd prime" in err

    @pytest.mark.parametrize("p", [2 ** 31, 2 ** 61 - 1])
    def test_p_is_bounded_before_trial_division(self, capsys, monkeypatch, p):
        # 2^61 - 1 is prime: trial division would run for minutes
        def no_trial_division(q):
            raise AssertionError("trial division ran on an unbounded --p")

        monkeypatch.setattr("spechtmod.cli._is_prime", no_trial_division)
        rc, out, err = run_cli(["fock", "--p", str(p), "--n", "3"], capsys)
        assert rc == 2 and out == ""
        assert "--p must be below 2^31" in err

    def test_bad_partition_is_exit_2(self, capsys):
        rc, _, err = run_cli(["oracle", "--p", "3", "--tau", "1,2"], capsys)
        assert rc == 2 and "error" in err

    def test_exponent_below_one_is_exit_2(self, capsys):
        rc, out, err = run_cli(["rank", "--p", "3", "--mu", "2,1^-1",
                                "--tau", "2"], capsys)
        assert rc == 2 and out == "" and "exponent" in err

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--p", "3", "--tau", "1^1000000000000"],
         "|tau| = 1000000000000 > 20000"),
        (["rank", "--p", "3", "--mu", "1^1000000000000",
          "--tau", "1^1000000000000"],
         "class enumeration with n=1000000000000 > 40"),
    ], ids=["oracle", "rank"])
    def test_over_cap_shorthand_is_refused_unexpanded(self, argv, message):
        # under a 512 MB address-space limit, listing 10^12 parts would
        # raise MemoryError (exit 1); the runs alone decide the refusal
        import resource

        def limit_memory():
            limit = 512 << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "spechtmod", *argv], capture_output=True,
            text=True, timeout=120, preexec_fn=limit_memory)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: {message} needs allow_large=True "
                               "(--allow-large)\n")

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--p", "3", "--tau", "4^20000000"],
         "4^20000000 is not 3-restricted"),
        (["rank", "--p", "3", "--mu", "1^20000000", "--tau", "1^19999999"],
         "|mu| = 20000000 != |tau| = 19999999"),
        (["rank", "--p", "3", "--mu", "1^20000000,2", "--tau", "x"],
         "partition parts must be weakly decreasing: (1^20000000, 2)"),
        (["oracle", "--p", "3", "--tau=2,1^20000000,-1,0^5"],
         "partition parts must be positive: (2, 1^20000000, -1)"),
        (["rank", "--p", "3", "--mu", "2,1^19999998", "--tau", "1^20000000",
          "--format", "csv"], "csv format is available for verify only"),
        (["rank", "--p", "3", "--mu", "40,7", "--tau", "1^47"],
         "40,7 is not 3-restricted"),
        (["rank", "--p", "3", "--mu", "2,3", "--tau", "1^20000000"],
         "partition parts must be weakly decreasing: (2, 3)"),
        (["rank", "--p", "3", "--mu", "1^20000000", "--tau", "1,,1"],
         "empty component in partition '1,,1'"),
    ])
    def test_failing_long_shorthand_is_refused_from_its_runs(
            self, capsys, monkeypatch, argv, message):
        # a partition with more parts than the cap is never listed: every
        # check runs on its runs, in main's order, and names it by its runs;
        # one with at most cap parts keeps main's message
        refuse_long_lists(monkeypatch, argv)
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [key.split() for key in SHORT])
    def test_short_partitions_keep_mains_messages(self, capsys, argv):
        # at most cap parts each: the bytes of main before the long
        # shorthand was read from its runs
        assert run_cli(argv, capsys) == REFUSALS[" ".join(argv)]

    @pytest.mark.parametrize("key", list(REFUSALS)[len(SHORT):])
    def test_long_and_listed_partitions_meet(self, capsys, monkeypatch, key):
        # one partition over the cap and one under it, both over it, the cap
        # lifted, trailing runs of 0 and csv: the bytes of the parent, and
        # no partition over the cap listed
        refuse_long_lists(monkeypatch, key.split())
        assert run_cli(key.split(), capsys) == REFUSALS[key]

    def test_csv_limited_to_verify(self, capsys):
        rc, _, err = run_cli(["fock", "--p", "3", "--n", "3",
                              "--format", "csv"], capsys)
        assert rc == 2 and "csv" in err

    @pytest.mark.parametrize("argv", [["oracle", "--p", "3", "--tau", "2,1"],
                                      ["verify", "--p", "3", "--n", "4"]])
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_output_is_exit_2(self, capsys, tmp_path, argv, where):
        target = tmp_path if where == "directory" else tmp_path / "no" / "x"
        rc, out, err = run_cli(argv + ["--output", str(target)], capsys)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def streamed(doc) -> str:
    buf = io.StringIO()
    _write_json(doc, buf)
    return buf.getvalue()


class Streamed(list):
    """A list the writer receives as a generator."""


class Checks:
    """A verify checks Grid with the text of each partition in ``names``;
    the writer receives it as ``CheckRecords``."""

    def __init__(self, checks, names):
        self.checks, self.names = checks, names


def check_list(checks, names) -> list:
    """The check records as json.dumps is given them."""
    return [{"mu": names[mu], "tau": names[tau], **rec}
            for (mu, tau), rec in checks.items()]


def grid_checks_equal_json_dumps(rows, names=None) -> bool:
    """Whether the writer gives the bytes of json.dumps for a verify checks
    Grid over the lhs ``rows``, both at the top and nested; partition k is
    named ``names[k]``, by default ``mu,k``."""
    order = tuple(range(len(rows)))
    grid = lhs_grid(order, rows)
    names = names or [f"mu,{k}" for k in order]
    plain = check_list(dict(grid.items()), names)
    doc = {"checks": CheckRecords(grid, names),
           "deeper": [[CheckRecords(grid, names)]]}
    return streamed(doc) == dumps({"checks": plain, "deeper": [[plain]]})


def poly_json(f: LaurentPoly) -> dict:
    """A Laurent polynomial as json.dumps is given it: {str(e): _jint(c)}."""
    return {str(e): _jint(f.coeffs[e]) for e in sorted(f.coeffs)}


def as_plain(doc):
    if isinstance(doc, LaurentPoly):
        return poly_json(doc)
    if isinstance(doc, Checks):
        return check_list(doc.checks, doc.names)
    if isinstance(doc, dict):
        return {k: as_plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_plain(v) for v in doc]
    return doc


def as_written(doc):
    if isinstance(doc, Checks):
        return CheckRecords(doc.checks, doc.names)
    if isinstance(doc, Streamed):
        return (as_written(v) for v in doc)
    if isinstance(doc, dict):
        return {k: as_written(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_written(v) for v in doc]
    if isinstance(doc, tuple):
        return tuple(as_written(v) for v in doc)
    return doc


INT64 = 2 ** 63 - 1
keys = st.one_of(st.sampled_from(["-1", "10", "2", "", "a", "B", 'q"', "\u00e9"]),
                 st.text(max_size=4))
small_ints = st.integers(min_value=-INT64, max_value=INT64)
huge_ints = st.integers(min_value=INT64 + 1, max_value=2 ** 80).flatmap(
    lambda x: st.sampled_from([x, -x]))
big_ints = huge_ints.map(_jint)
strings = st.one_of(
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "\u00e9",
                     "\u2028", "\U0001f600", ""]),
    st.text(max_size=6))
scalars = st.one_of(st.none(), st.booleans(), small_ints, big_ints, strings)
int_rows = st.one_of(st.lists(small_ints, max_size=6),
                     st.lists(st.integers(-3, 3) | st.booleans(), min_size=1,
                              max_size=6))
# values in objects, check records included, are written as they are, so a
# big int stays bare
lhs_values = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                       huge_ints)
check_maps = st.lists(strings, max_size=3).flatmap(
    lambda names: st.lists(
        st.lists(lhs_values, min_size=len(names), max_size=len(names)),
        min_size=len(names), max_size=len(names)).map(
        lambda rows: Checks(lhs_grid(tuple(range(len(names))), rows),
                            names)))
# exponents of both signs past one digit, where string order is not numeric
# order; coefficients past int64 (written as strings); the zero polynomial;
# equal polynomials built in different orders
exponents = st.integers(-3, 3) | st.sampled_from([-100, -12, -10, 10, 12, 100])
coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from([INT64, -INT64, INT64 + 1, -INT64 - 1, 2 ** 80, -2 ** 80]))
polys = st.one_of(
    st.dictionaries(exponents, coefficients, max_size=5).map(LaurentPoly),
    st.sampled_from([LaurentPoly(), LaurentPoly.one(),
                     LaurentPoly({-2: 1, 2: 1, 10: -1}),
                     LaurentPoly({10: -1, 2: 1, -2: 1})]))
documents = st.recursive(
    scalars | int_rows | check_maps | polys,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Streamed),
        st.dictionaries(keys, children, max_size=4)),
    max_leaves=24)


@st.composite
def sparse_int_matrices(draw):
    # rows of nonzeros and Nones (as in the skipped columns of mmat) by
    # ascending column; a row may be empty
    size = draw(st.integers(0, 12))
    value = st.integers(-(2 ** 70), 2 ** 70).filter(bool) | st.none()
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, size - 1), value, max_size=size)
        if size else st.just({}), max_size=12))
    return SparseRows(({j: row[j] for j in sorted(row)} for row in rows),
                      size)


class TestJsonWriter:
    @given(documents)
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_json_dumps(self, doc):
        assert streamed(as_written(doc)) == dumps(as_plain(doc))

    @given(sparse_int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_sparse_rows_equal_json_dumps(self, m):
        # the same text from the stored entries as from the dense rows
        dense = [[None if x is None else _jint(x) for x in row] for row in m]
        doc = {"sparse": m, "dense": [list(row) for row in m],
               "deeper": [SparseRows.from_rows(m)]}
        assert streamed(doc) == dumps(
            {"sparse": dense, "dense": dense, "deeper": [dense]})

    @given(st.lists(st.text(alphabet='0123456789,^ab"\\\u00e9', max_size=8),
                    min_size=1, max_size=4).flatmap(
        lambda labels: st.tuples(st.just(labels), st.lists(
            st.lists(st.sampled_from([None, 0, 1, -1, 2 ** 63, -(2 ** 63),
                                      2 ** 70, True, False]),
                     min_size=len(labels), max_size=len(labels)),
            min_size=len(labels), max_size=len(labels)))))
    @settings(max_examples=200, deadline=None)
    def test_check_records_equal_json_dumps(self, case):
        # the verify path: a checks Grid, partition names with commas,
        # quotes and non-ASCII characters, big lhs values written bare
        labels, rows = case
        assert grid_checks_equal_json_dumps(rows, labels)

    @given(st.integers(0, 4).flatmap(lambda size: st.lists(
        st.one_of(st.just("unit"), st.just("skipped"),
                  st.lists(st.sampled_from([None, 0, 1, -1, True, False,
                                            2 ** 70]),
                           min_size=size, max_size=size).map(tuple)),
        min_size=size, max_size=size)))
    @settings(max_examples=200, deadline=None)
    def test_check_grids_equal_json_dumps(self, columns):
        # the lhs rows of a verify checks Grid, unit columns mixed with
        # skipped and arbitrary ones, True and 1 kept apart
        size = len(columns)
        rows = tuple((0,) * i + (1,) + (0,) * (size - i - 1) if c == "unit"
                     else (None,) * size if c == "skipped" else c
                     for i, c in enumerate(columns))
        assert grid_checks_equal_json_dumps(rows)

    @pytest.mark.parametrize("rows", [
        ((1,),),                                    # a 1x1 order
        (),                                         # an empty order
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),          # unit columns only
        ((1, 0, 0), (0, 2, 0), (0, 0, 1)),          # a failing column
        ((1, 0), (None, None)),                     # a skipped column
        ((2 ** 70, 0), (0, 1)),                     # a bare big lhs
        ((True, 0), (0, 1)),                        # a bool is not a unit
    ], ids=["1x1", "empty", "units", "failing", "skipped", "big", "bool"])
    def test_check_grid_stubs_equal_json_dumps(self, rows):
        # each unit column has its diagonal at a different place: first,
        # inside, last
        assert grid_checks_equal_json_dumps(rows)

    @pytest.mark.parametrize("p, n", [(3, n) for n in range(1, 10)] +
                                     [(5, n) for n in range(1, 11)])
    def test_real_check_records_equal_json_dumps(self, p, n):
        report = conjecture_check(n, p)
        names = {mu: partition_str(mu) for mu in report.order}
        assert streamed(CheckRecords(report.checks, names)) == dumps(
            check_list(report.checks, names))

    def test_empty_generators_and_containers(self):
        doc = {"a": (x for x in ()), "b": [], "c": {}, "d": (x for x in [1])}
        assert streamed(doc) == dumps({"a": [], "b": [], "c": {}, "d": [1]})

    def test_batches_keep_the_bytes(self, monkeypatch):
        monkeypatch.setattr("spechtmod.cli._BUDGET", 3)
        doc = {"rows": [[1, 2], [3]], "checks": [{"k": i} for i in range(9)]}
        assert streamed(doc) == dumps(doc)

    def test_held_text_is_bounded_by_the_budget(self, monkeypatch):
        # each write call carries at most the budget plus one piece: here a
        # row of 40 entries (under 400 characters) or one check record
        monkeypatch.setattr("spechtmod.cli._BUDGET", 1000)
        rows = SparseRows([{k: k + 1} for k in range(40)] * 5, 40)
        # one failing row of 200 records: mu's lhs at tau = k is k
        checks = Grid(("mu",), tuple(range(200)),
                      SparseRows.from_rows([range(200)]), check_record)
        names = {"mu": "mu", **{k: str(k) for k in range(200)}}
        doc = {"rows": rows, "checks": CheckRecords(checks, names)}
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        _write_json(doc, Recorder())
        assert len(writes) > 20
        assert max(map(len, writes)) < 1400
        assert "".join(writes) == dumps({"rows": [list(row) for row in rows],
                                         "checks": check_list(checks, names)})

    def test_fock_report_held_text_is_bounded_by_the_budget(self,
                                                            monkeypatch):
        # a fock report's pieces are at most an nmat1 row of 60 entries
        # (under 400 characters) or one polynomial
        monkeypatch.setattr("spechtmod.cli._BUDGET", 1000)
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr("sys.stdout", Recorder())
        assert main(["fock", "--p", "5", "--n", "12"]) == 0
        assert len(writes) > 20
        assert max(map(len, writes)) < 1400
        table = llt_canonical(12, 5)
        assert "".join(writes) == dumps(old_fock_doc(table, 12, 5))

    def test_int64_rule_in_lists(self):
        # all-int and mixed lists write out-of-range ints as _jint
        row = [1, 2 ** 63, -(2 ** 63)]
        assert streamed([row, [None] + row]) == dumps(
            [[_jint(x) for x in row], [None] + [_jint(x) for x in row]])

    def test_long_int_rows_equal_json_dumps(self):
        # rows shaped like nmat1: hundreds of zeros, a few nonzeros
        sparse = [[0] * 240 for _ in range(3)]
        for r, row in enumerate(sparse):
            for k in range(r, 240, 37 + r):
                row[k] = (-1) ** k * (k + 1) * 10 ** r
        big = [0] * 210
        big[77] = 2 ** 70
        doc = {"sparse": sparse, "zeros": [[0] * 230, [0]], "one": (5,),
               "bools": [0, True, 0], "big": big,
               "edge": [0, 2 ** 63 - 1, 1 - 2 ** 63, 0]}
        # bools stay true/false, and 2**70 takes the _jint string path
        want = {**doc, "one": [5],
                "big": [0] * 77 + [str(2 ** 70)] + [0] * 132}
        out = streamed(doc)
        assert out == dumps(want)
        assert '"bools": [\n    0,\n    true,\n    0\n  ]' in out
        assert '"1180591620717411303424"' in out

    @pytest.mark.parametrize("doc", [
        Fraction(1, 2), [1, Fraction(1, 2)], {"a": 1.5}, {1: "a"},
        {"x": {2, 3}}])
    def test_unsupported_values_raise(self, doc):
        with pytest.raises(TypeError):
            streamed(doc)

    @pytest.mark.parametrize("records", [
        CheckRecords(lhs_grid((0,), ((1.5,),)), ["a"]),
        CheckRecords(lhs_grid((0,), (([1],),)), ["a"]),
        CheckRecords(lhs_grid((0,), ((1,),)), [1])])
    def test_unsupported_record_values_raise(self, records):
        with pytest.raises(TypeError):
            streamed({"r": records})


def old_verify_doc(report):
    """The verify document as built before the report was streamed."""
    violations = report.nonnegativity_violations()
    rows, cols, body = report.decomposition_matrix()
    return {
        "command": "verify",
        "p": report.p,
        "n": report.n,
        "outside_region": report.outside_region,
        "order": [partition_str(mu) for mu in report.order],
        "nmat1": [[_jint(x) for x in row] for row in report.nmat1],
        "amat": [[_jint(x) for x in row] for row in report.amat],
        "mmat": [[None if x is None else _jint(x) for x in row]
                 for row in report.mmat],
        "checks": [{"mu": partition_str(mu), "tau": partition_str(tau),
                    "lhs": rec["lhs"], "expected": rec["expected"],
                    "pass": rec["pass"]}
                   for (mu, tau), rec in report.checks.items()],
        "overall": report.overall,
        "nonnegativity_violations": [
            {"lam": partition_str(lam), "mu": partition_str(mu),
             "value": _jint(v)} for lam, mu, v in violations],
        "decomposition": {
            "rows": [partition_str(tau) for tau in rows],
            "cols": [partition_str(mu) for mu in cols],
            "entries": [[_jint(d) for d in line] for line in body],
        },
    }


def old_fock_doc(table, n, p):
    """The fock document as built before the writer took polynomials."""
    pos = {mu: k for k, mu in enumerate(table.order)}
    keys = sorted([(mu, mu) for mu in table.order] + list(table.nmat),
                  key=lambda key: (pos[key[1]], pos[key[0]]))
    return {
        "command": "fock",
        "p": p,
        "n": n,
        "order": [partition_str(mu) for mu in table.order],
        "A": {partition_str(mu): {partition_str(lam): poly_json(c)
                                  for lam, c in sorted(
                                      table.A[mu].terms.items())}
              for mu in table.order},
        "G": {partition_str(mu): {partition_str(lam): poly_json(c)
                                  for lam, c in sorted(
                                      table.G[mu].terms.items())}
              for mu in table.order},
        "nmat": [{"lam": partition_str(lam), "mu": partition_str(mu),
                  "poly": poly_json(table.nmat_entry(lam, mu))}
                 for lam, mu in keys],
        "nmat1": [[_jint(x) for x in row] for row in nmat_at_one(table)],
    }


BIG = 2 ** 70
BIG_N = SparseRows.from_rows(((1, 0), (-BIG, 1)))
BIG_A = SparseRows.from_rows(((1, 0), (BIG, 1)))
STUBS = {
    "failing-and-skipped": VerificationReport(
        p=3, n=2, order=ORDER2, nmat1=BIG_N, amat=BIG_A,
        mmat=SparseRows.from_rows(((1, None), (1, None))),
        checks=lhs_grid(ORDER2, ((1, 1), (None, None))),
        overall=False, outside_region=False),
    "outside-region": VerificationReport(
        p=3, n=2, order=ORDER2, nmat1=BIG_N, amat=BIG_A,
        mmat=SparseRows.from_rows(((1, None), (0, None))),
        checks=lhs_grid(ORDER2, ((1, 0), (None, None))),
        overall=True, outside_region=True,
        decomposition=Grid(ORDER2, ORDER2,
                           SparseRows.from_rows(((BIG, 0), (0, BIG))))),
    "failing-big-lhs": VerificationReport(
        p=3, n=2, order=ORDER2, nmat1=UNIT2, amat=UNIT2, mmat=UNIT2,
        checks=lhs_grid(ORDER2, ((BIG, 0), (0, 1))),
        overall=False, outside_region=False),
}


class TestStreamedVerify:
    @pytest.mark.parametrize("name", sorted(STUBS))
    def test_stub_report_matches_old_document(self, capsys, monkeypatch,
                                                 name):
        stub = STUBS[name]
        monkeypatch.setattr("spechtmod.cli.conjecture_check",
                            lambda n, p, jobs=1: stub)
        argv = ["verify", "--p", "3", "--n", str(stub.n), "--outside-region"]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 1
        assert out == dumps(old_verify_doc(stub))

    @pytest.mark.parametrize("p, n", [(3, 5), (5, 7), (3, 9)])
    def test_real_report_matches_old_document(self, capsys, p, n):
        rc, out, _ = run_cli(["verify", "--p", str(p), "--n", str(n),
                              "--outside-region"], capsys)
        assert rc == 0
        assert out == dumps(old_verify_doc(conjecture_check(n, p)))


@pytest.mark.parametrize("p, n", [(3, n) for n in range(11)] +
                                 [(5, n) for n in range(13)])
def test_real_fock_report_matches_old_document(capsys, p, n):
    rc, out, _ = run_cli(["fock", "--p", str(p), "--n", str(n)], capsys)
    assert rc == 0
    assert out == dumps(old_fock_doc(llt_canonical(n, p), n, p))


@pytest.mark.parametrize("argv", [
    ["fock", "--p", "3", "--n", "5"],
    ["rank", "--p", "3", "--mu", "2,1^3", "--tau", "2,2,1"],
    ["verify", "--p", "3", "--n", "5"],
    ["verify", "--p", "3", "--n", "5", "--format", "csv"],
    ["oracle", "--p", "3", "--tau", "2,1"],
])
def test_output_file_bytes_equal_stdout(capsys, tmp_path, argv):
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    target = tmp_path / "report"
    rc, nothing, _ = run_cli(argv + ["--output", str(target)], capsys)
    assert rc == 0 and nothing == ""
    assert target.read_bytes() == out.encode()
    rc, dash, _ = run_cli(argv + ["--output", "-"], capsys)
    assert rc == 0 and dash == out


@pytest.mark.parametrize("argv", [
    ["fock", "--p", "4", "--n", "3"],
    ["fock", "--p", "3", "--n", "-1"],
    ["fock", "--p", "3", "--n", "3", "--format", "csv"],
    ["rank", "--p", "3", "--mu", "2,1", "--tau", "3,1"],
    ["rank", "--p", "3", "--mu", "2,1^-1", "--tau", "2"],
    ["rank", "--p", "3", "--mu", "3", "--tau", "2,1"],
    ["verify", "--p", "3", "--n", "4", "--jobs", "0"],
    ["verify", "--p", "3", "--n", "9"],
    ["oracle", "--p", "3", "--tau", "1,2"],
    ["oracle", "--p", "7", "--tau", "5,4,3,2,1"],
])
def test_exit_2_writes_nothing(capsys, tmp_path, argv):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == "" and err
    target = tmp_path / "report"
    rc, out, _ = run_cli(argv + ["--output", str(target)], capsys)
    assert rc == 2 and out == "" and not target.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spechtmod", "fock", "--p", "3", "--n", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["order"] == ["2,1", "1,1,1"]


@pytest.mark.parametrize("argv, key, value", [
    (["rank", "--p", "2147483647", "--mu", "2,1", "--tau", "2,1"], "rank", 1),
    (["rank", "--p", "2147483647", "--mu", "1", "--tau", "1"], "rank", 1),
    (["oracle", "--p", "2147483647", "--tau", "2,1"], "dim_D", 2),
    (["fock", "--p", "2147483647", "--n", "3"], "order",
     ["3", "2,1", "1,1,1"]),
    (["verify", "--p", "2147483647", "--n", "3"], "overall", True),
])
def test_largest_p_costs_no_memory_per_ladder(argv, key, value):
    # the ladders of a partition are read from its nodes: under a 512 MB
    # address-space limit, one slot per ladder index up to (p-1)(rows) would
    # raise MemoryError (exit 1)
    import resource

    def limit_memory():
        limit = 512 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "spechtmod", *argv], capture_output=True,
        text=True, timeout=120, preexec_fn=limit_memory)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)[key] == value


def test_cli_import_leaves_multiprocessing_and_csv_unloaded():
    """multiprocessing (for --jobs > 1) and csv (for --format csv) are
    imported where they are used, and the records are plain classes, so
    starting the CLI loads none of them, nor dataclasses and the inspect
    it pulls in."""
    code = ("import sys, spechtmod.cli; print(sorted(m for m in "
            "('multiprocessing', 'csv', 'dataclasses', 'inspect') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "[]\n"
