import json
import math
import subprocess
import sys
import time

import pytest

from specbound import cli
from specbound.errors import NumericalError, PreconditionError
from specbound.verify import CheckResult


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(argv, capsys):
    code, out, _ = run_main(argv + ["--format", "json"], capsys)
    return code, json.loads(out)


class TestBoundCommand:
    def test_q4_b2(self, capsys):
        code, data = payload(["bound", "--q", "4", "--b", "2"], capsys)
        assert code == 0
        row = data["results"]["table"][0]
        assert abs(row["bound"] - 0.5) <= 1e-12
        assert row["B"] == "2"

    def test_q4_b13(self, capsys):
        code, data = payload(["bound", "--q", "4", "--b", "1,3"], capsys)
        assert code == 0
        assert abs(data["results"]["table"][0]["bound"] - 0.5) <= 1e-12

    def test_empty_restriction(self, capsys):
        code, data = payload(["bound", "--q", "5", "--b", ""], capsys)
        assert code == 0
        assert data["results"]["table"][0]["bound"] == 1.0

    def test_bad_residues(self, capsys):
        code, _, err = run_main(["bound", "--q", "4", "--b", "1,x"], capsys)
        assert code == 2
        assert "error" in err

    def test_out_of_range_residue(self, capsys):
        code, _, err = run_main(["bound", "--q", "4", "--b", "7"], capsys)
        assert code == 2

    def test_vertex_enumeration_guard_exit_code(self, capsys):
        start = time.monotonic()
        code, _, err = run_main(["bound", "--q", "40", "--b",
                                 "1,2,3,4,5,6,7,8,9,10,30,31,32,33,34,35,36,37,38,39"],
                                capsys)
        assert code == 3
        assert "resource" in err.lower()
        assert time.monotonic() - start < 1.0

    def test_csv_schema_with_empty_comparison_columns(self, capsys):
        code, out, _ = run_main(["bound", "--q", "4", "--b", "2", "--format", "csv"],
                                capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("q,B,kappa_prime_1,bound,subgroup_bound,delta,theorem3,"
                            "prop4,prop5,fan_main,peyriere,peyriere_converged,"
                            "entropy_est")
        assert lines[1].endswith(",,,,,,,")  # comparison columns stay empty


class TestRieszCommand:
    def test_q4_table(self, capsys):
        code, data = payload(["riesz", "--q", "4", "--a", "1", "--entropy-level", "3"],
                             capsys)
        assert code == 0
        row = data["results"]["table"][0]
        assert abs(row["theorem3"] - 0.5) <= 1e-12
        assert row["peyriere_converged"] is True

    def test_q3_prop4_absent(self, capsys):
        code, data = payload(["riesz", "--q", "3", "--a", "1", "--entropy-level", "2"],
                             capsys)
        assert code == 0
        row = data["results"]["table"][0]
        assert row["prop4"] is None
        assert abs(row["theorem3"]) <= 1e-12
        assert row["prop5"] < 0

    def test_lebesgue_peyriere_exact(self, capsys):
        code, data = payload(["riesz", "--q", "4", "--a", "0", "--entropy-level", "2"],
                             capsys)
        assert code == 0
        assert data["results"]["table"][0]["peyriere"] == 1.0

    def test_resource_guard_exit_code(self, capsys):
        code, _, err = run_main(["riesz", "--q", "3", "--a", "1", "--pey-depth", "20"],
                                capsys)
        assert code == 3
        assert "resource" in err.lower()


class TestSweepCommand:
    def test_multiplicative_range(self, capsys):
        code, data = payload(["sweep", "--q", "8..128", "--step", "x2",
                              "--entropy-level", "2"], capsys)
        assert code == 0
        table = data["results"]["table"]
        assert [row["q"] for row in table] == [8, 16, 32, 64, 128]
        for row in table:
            assert row["fan_consistency"] <= 10.0

    def test_even_only(self, capsys):
        code, data = payload(["sweep", "--q", "4..9", "--even-only",
                              "--entropy-level", "2"], capsys)
        assert code == 0
        assert [row["q"] for row in data["results"]["table"]] == [4, 6, 8]
        for row in data["results"]["table"]:
            assert row["prop4"] is not None

    def test_empty_range(self, capsys):
        code, _, err = run_main(["sweep", "--q", "9..4"], capsys)
        assert code == 2

    def test_csv_schema(self, capsys):
        code, out, _ = run_main(["sweep", "--q", "4..6", "--even-only",
                                 "--entropy-level", "2", "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == ("q,B,kappa_prime_1,bound,subgroup_bound,delta,theorem3,"
                          "prop4,prop5,fan_main,peyriere,peyriere_converged,"
                          "entropy_est,fan_consistency")


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        code, _, err = run_main(["verify", "--suite", "nope"], capsys)
        assert code == 2

    def test_martingale_suite_passes(self, capsys):
        code, data = payload(["verify", "--suite", "martingale", "--q", "3", "--n", "4",
                              "--a", "1", "--p", "1.25,2", "--subsets", "10"], capsys)
        assert code == 0
        assert data["results"]["failed"] == 0
        names = {c["name"] for c in data["checks"]}
        assert "martingale/growth_p=2.0" in names

    def test_non_finite_p_rejected(self, capsys):
        code, _, err = run_main(["verify", "--suite", "martingale", "--p", "1,nan"], capsys)
        assert code == 2
        assert "finite" in err

    def test_overflowing_residual_is_strict_json(self):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        check = CheckResult("x", False, float("inf")).as_dict()
        envelope = cli.ReportEnvelope("0", {}, {}, [check])
        data = json.loads(envelope.to_json(), parse_constant=reject)
        assert data["checks"][0]["residual"] is None
        assert "not finite" in data["checks"][0]["detail"]

    def test_huge_exponent_passes_with_finite_residuals(self, capsys):
        code, data = payload(["verify", "--suite", "martingale", "--q", "3", "--n", "4",
                              "--p", "1e6", "--subsets", "5"], capsys)
        assert code == 0
        names = {c["name"] for c in data["checks"]}
        assert "martingale/growth_p=1000000.0" in names
        for check in data["checks"]:
            assert check["residual"] is not None and math.isfinite(check["residual"])

    def test_checks_csv(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "martingale", "--q", "3", "--n",
                                 "3", "--subsets", "5", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "name,passed,residual,detail"


class TestEnvelope:
    def test_determinism_excluding_wall_time(self, capsys):
        args = ["verify", "--suite", "martingale", "--q", "3", "--n", "4",
                "--subsets", "20", "--seed", "7"]
        _, first = payload(args, capsys)
        _, second = payload(args, capsys)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_round_trip_keys(self, capsys):
        _, data = payload(["bound", "--q", "4", "--b", "2"], capsys)
        assert set(data) == {"version", "config", "results", "checks", "wall_time_s"}
        assert data["config"]["command"] == "bound"

    @pytest.mark.parametrize("error,code,prefix", [
        (PreconditionError("ill-posed"), 2, "error: ill-posed"),
        (NumericalError("diverged"), 4, "numerical error: diverged"),
    ])
    def test_library_error_exit_codes(self, monkeypatch, capsys, error, code, prefix):
        def failing(config):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "bound", failing)
        status, out, err = run_main(["bound", "--q", "4", "--b", "2"], capsys)
        assert status == code
        assert out == ""
        assert err.startswith(prefix)

    def test_failed_check_gives_exit_one(self):
        envelope = cli.ReportEnvelope("0", {}, {}, [{"passed": False, "name": "x",
                                                     "residual": None, "detail": ""}])
        assert not envelope.all_passed

    def test_output_file_and_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPECBOUND_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_main(["bound", "--q", "4", "--b", "2", "--format", "json",
                                 "--output", "report.json"], capsys)
        assert code == 0
        assert out == ""
        written = json.loads((tmp_path / "report.json").read_text())
        assert abs(written["results"]["table"][0]["bound"] - 0.5) <= 1e-12


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "specbound", "bound", "--q", "4",
                           "--b", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bound=0.5" in proc.stdout
