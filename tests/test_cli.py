"""Tests for the command-line driver: parsing, subcommand reports,
determinism, exit codes, and output formats."""

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from spechtmod.cli import main, parse_partition, partition_str
from spechtmod.verify import VerificationReport


def run_cli(argv, capsys):
    """Invoke main in-process; return (exit code, stdout, stderr)."""
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    return rc, json.loads(out), err


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
    ])
    def test_report_bytes_pinned(self, capsys, argv, digest):
        rc, out, _ = run_cli(["fock"] + argv, capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_jobs_do_not_change_bytes(self, capsys):
        _, out1, _ = run_cli(["verify", "--p", "3", "--n", "6",
                              "--jobs", "1"], capsys)
        _, out2, _ = run_cli(["verify", "--p", "3", "--n", "6",
                              "--jobs", "2"], capsys)
        assert out1 == out2

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
            p=3, n=2, order=((2,), (1, 1)),
            nmat1=((1, 0), (0, 1)), amat=((1, 0), (0, 1)),
            mmat=((1, 0), (0, 1)),
            checks={}, overall=True, outside_region=False)
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
            p=3, n=2, order=((2,), (1, 1)),
            nmat1=((1, 0), (0, 1)), amat=((1, 0), (0, 1)),
            mmat=((1, 0), (1, 1)),
            checks={((2,), (1, 1)): {"lhs": 1, "expected": 0, "pass": False}},
            overall=False, outside_region=False)
        monkeypatch.setattr("spechtmod.cli.conjecture_check",
                            lambda n, p, jobs=1: stub)
        rc, doc, _ = run_json(["verify", "--p", "3", "--n", "2"], capsys)
        assert rc == 1 and doc["overall"] is False

    def test_negative_entry_is_exit_1(self, capsys, monkeypatch):
        stub = VerificationReport(
            p=3, n=2, order=((2,), (1, 1)),
            nmat1=((1, 0), (-1, 1)), amat=((1, 0), (1, 1)),
            mmat=((1, 0), (0, 1)),
            checks={}, overall=True, outside_region=False)
        monkeypatch.setattr("spechtmod.cli.conjecture_check",
                            lambda n, p, jobs=1: stub)
        rc, doc, _ = run_json(["verify", "--p", "3", "--n", "2"], capsys)
        assert rc == 1
        assert doc["nonnegativity_violations"] == [
            {"lam": "1,1", "mu": "2", "value": -1}]

    def test_class_cap_exits_before_the_fock_side(self, capsys, monkeypatch):
        # the Gram side runs first, so a refused class enumeration exits 2
        # without waiting for the LLT recursion
        def no_fock(n, p):
            raise AssertionError("Fock side ran before the class cap")

        monkeypatch.setattr("spechtmod.tableaux._CLASS_CAP", 4)
        monkeypatch.setattr("spechtmod.verify.llt_canonical", no_fock)
        rc, out, err = run_cli(["verify", "--p", "3", "--n", "5"], capsys)
        assert rc == 2 and out == ""
        assert "n=5 > 4 needs allow_large=True" in err


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


class TestValidation:
    @pytest.mark.parametrize("p", ["2", "4", "1", "9"])
    def test_p_must_be_an_odd_prime(self, capsys, p):
        rc, _, err = run_cli(["fock", "--p", p, "--n", "3"], capsys)
        assert rc == 2 and "odd prime" in err

    def test_bad_partition_is_exit_2(self, capsys):
        rc, _, err = run_cli(["oracle", "--p", "3", "--tau", "1,2"], capsys)
        assert rc == 2 and "error" in err

    def test_exponent_below_one_is_exit_2(self, capsys):
        rc, out, err = run_cli(["rank", "--p", "3", "--mu", "2,1^-1",
                                "--tau", "2"], capsys)
        assert rc == 2 and out == "" and "exponent" in err

    def test_csv_limited_to_verify(self, capsys):
        rc, _, err = run_cli(["fock", "--p", "3", "--n", "3",
                              "--format", "csv"], capsys)
        assert rc == 2 and "csv" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spechtmod", "fock", "--p", "3", "--n", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["order"] == ["2,1", "1,1,1"]
