import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time

import pytest

from cli_child import REPORT_PEAK_RSS, loaded_after_import, peak_rss_kb, run_cli
from specbound import cli
from specbound import kappa_bound as kb
from specbound import riesz_products as rp
from specbound import verify
from specbound.errors import NumericalError, PreconditionError, ResourceLimitError
from specbound.verify import CheckResult


def run_main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def half_band(q):
    h = q // 4
    return ",".join(str(m) for m in [*range(1, h + 1), *range(q - h, q)])


def payload(argv, capsys):
    code, out, _ = run_main(argv + ["--format", "json"], capsys)
    return code, json.loads(out)


# the verify flags each suite reads, a small value for each, and sizes that
# keep every suite fast
SUITE_READS = {
    "kappa": {"--seed", "--q-max"},
    "riesz-identities": {"--seed", "--q-max"},
    "martingale": {"--seed", "--q", "--a", "--n", "--p"},
}
FLAG_VALUES = {"--seed": "1", "--q": "3", "--q-max": "4", "--a": "0.5", "--n": "3", "--p": "2"}
TINY_SUITE = {"kappa": {"--q-max": "4"}, "riesz-identities": {"--q-max": "4"},
              "martingale": {"--n": "3"}}


class TestBoundCommand:
    def test_q4_b2(self, capsys):
        code, data = payload(["bound", "--q", "4", "--b", "2"], capsys)
        assert code == 0
        row = data["results"]["table"][0]
        assert abs(row["bound"] - 0.5) <= 1e-12
        assert row["B"] == "2"
        # H = 2*Z_4 = {0, 2} is reported by its generator, not listed
        assert data["results"]["subgroup_generator"] == 2
        assert "subgroup" not in data["results"]
        assert data["results"]["proper_inclusion"] is False

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
        # half-bands at q=44 (2934559 dihedral orbits) and q=48, refused on the
        # Burnside count before any orbit is generated
        for q in (44, 48):
            start = time.monotonic()
            code, _, err = run_main(["bound", "--q", str(q), "--b", half_band(q)], capsys)
            assert code == 3
            assert "resource" in err.lower()
            assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("q", ["1000000000", "99999999999999999999"])
    def test_basis_guard_exit_code(self, q, capsys):
        # q x d floats are refused before the basis allocates anything; past
        # int64, numpy used to raise a ValueError traceback
        start = time.monotonic()
        code, _, err = run_main(["bound", "--q", q, "--b", "1"], capsys)
        assert code == 3
        assert err.startswith("resource guard: floats in the subspace basis for q=" + q)
        assert time.monotonic() - start < 1.0

    def test_half_band_q24(self, capsys):
        code, data = payload(["bound", "--q", "24", "--b", half_band(24)], capsys)
        assert code == 0
        assert data["results"]["vertex_count"] == 24752
        assert data["results"]["vertex_source"] == "gale"

    def test_vertex_source(self, capsys):
        for b, source in (("1,3", "gale"), ("2", "exhaustive")):
            _, data = payload(["bound", "--q", "4", "--b", b], capsys)
            assert data["results"]["vertex_source"] == source

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
    # the Riesz comparison table at one q, which `sweep --q Q` reports
    def test_q4_table(self, capsys):
        code, data = payload(["sweep", "--q", "4", "--a", "1"], capsys)
        assert code == 0
        row = data["results"]["table"][0]
        assert abs(row["theorem3"] - 0.5) <= 1e-12
        assert row["peyriere_converged"] is True

    def test_q3_prop4_absent(self, capsys):
        code, data = payload(["sweep", "--q", "3", "--a", "1"], capsys)
        assert code == 0
        row = data["results"]["table"][0]
        assert row["prop4"] is None
        assert abs(row["theorem3"]) <= 1e-12
        assert row["prop5"] < 0

    def test_lebesgue_peyriere_exact(self, capsys):
        code, data = payload(["sweep", "--q", "4", "--a", "0"], capsys)
        assert code == 0
        assert data["results"]["table"][0]["peyriere"] == 1.0

    def test_entropy_guard_fires_before_other_columns(self, capsys, monkeypatch):
        # q > 10^6 fits no entropy level; the guard must trip before the
        # Peyriere grid or prop4's O(q)-piece log integral is evaluated
        def forbidden(*args, **kwargs):
            raise AssertionError("column computed before the entropy guard")

        monkeypatch.setattr(rp, "peyriere_dimension", forbidden)
        monkeypatch.setattr(rp, "log_integral", forbidden)
        code, out, err = run_main(["sweep", "--q", "1000001"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("resource guard: interval masses q**level = 1000001, over")

    def test_riesz_command_retired(self, capsys):
        # `sweep --q Q` reports the row that the retired `riesz --q Q` did
        code, out, err = run_main(["riesz", "--q", "4"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("specbound: error: argument command: invalid choice: 'riesz'")
        assert err.count("\n") == 1


class TestOversizedInputs:
    # sizes whose power (3**n grid points) or decimal form (past 4300 digits)
    # is too large to build or print trip their guard before any work: exit 3,
    # with one stderr line, where main raised a ValueError or ran for minutes
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "martingale", "--n", "10000000"],
        ["verify", "--suite", "martingale", "--n", "100000000"],
        ["verify", "--suite", "martingale", "--q", "9" * 4000, "--n", "2"],
        ["sweep", "--q", "3.." + "9" * 4000],
    ], ids=["n_1e7", "n_1e8", "q_4000_nines", "sweep_to_4000_nines"])
    def test_exit_3_at_once(self, argv, capsys):
        start = time.monotonic()
        code, out, err = run_main(argv, capsys)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("resource guard: ") and err.count("\n") == 1


NINES = "9" * 4000
NINES_PAST_INT = "9" * 5000  # past the 4300 digits int() reads


class TestLongArguments:
    # a 4000-digit integer or a 4000-character text in a message is shown by
    # its size: one short stderr line, with the exit code of the same message
    # for a normal-size value.  argparse's own usage errors, here on a value
    # int() cannot read, an unknown option or a retired one, do the same
    @pytest.mark.parametrize("argv,code,message", [
        (["bound", "--q", NINES], 3, "resource guard: floats in the subspace basis for "
         "q=a 13288-bit number and 0 residues = a 13288-bit number, over the 1e+07 budget"),
        (["bound", "--q", "10", "--b", NINES], 2,
         "error: residue a 13288-bit number outside 1..9"),
        (["bound", "--q", "10", "--b", "1," + "x" * 4000], 2,
         "error: cannot parse residue list a 4002-character text"),
        (["bound", "--q", NINES_PAST_INT], 2,
         "specbound bound: error: argument --q: invalid int value: a 5000-character text"),
        (["bound", "--q", "4", "--zzz", NINES_PAST_INT], 2,
         "specbound: error: unrecognized arguments: --zzz a 5000-character text"),
        (["verify", "--suite", NINES_PAST_INT], 2,
         "specbound verify: error: argument --suite: invalid choice: a 5000-character text "
         "(choose from 'kappa', 'riesz-identities', 'martingale', 'all')"),
        (["verify", "--suite", "martingale", "--subsets", NINES], 2,
         "specbound: error: unrecognized arguments: --subsets a 4000-character text"),
        (["verify", "--suite", "martingale", "--subsets", "-" + NINES], 2,
         "specbound: error: unrecognized arguments: --subsets a 4001-character text"),
        (["verify", "--suite", "martingale", "--n", "-" + NINES], 2,
         "error: need at least one level, got a negative 13288-bit number"),
        (["verify", "--suite", "martingale", "--p", "x" * 4000], 2,
         "error: cannot parse p list a 4000-character text"),
        (["verify", "--suite", "riesz-identities", "--q-max", NINES], 2,
         "error: riesz identities need q_max in 4..512, past which the Chebyshev node product "
         "underflows, got q_max=a 13288-bit number"),
        (["verify", "--suite", "kappa", "--q-max", "-" + NINES], 2,
         "error: kappa suite needs q_max >= 3, got a negative 13288-bit number"),
        (["verify", "--suite", "all", "--seed", NINES], 2,
         "error: seed must be in 0..2**64-1, got a 13288-bit number"),
        (["sweep", "--q", "4", "--zzz", "-" + NINES], 2,
         "specbound: error: unrecognized arguments: --zzz a 4001-character text"),
        (["sweep", "--q", "-" + NINES], 2,
         "error: q range must start at 1 or more, got a 4001-character text"),
        (["sweep", "--q", NINES + "..3"], 2, "error: empty q range a 4003-character text"),
        (["sweep", "--q", "3..5", "--step", NINES + "x"], 2,
         "error: cannot parse step a 4001-character text"),
    ], ids=["bound_q", "bound_b", "bound_b_text", "bound_q_past_int", "unknown_option",
            "suite_choice", "subsets", "subsets_negative", "n_negative",
            "p_text", "riesz_q_max", "kappa_q_max_negative", "seed", "unknown_option_negative",
            "sweep_q_negative", "sweep_q_text", "sweep_step_text"])
    def test_one_short_line(self, argv, code, message, capsys):
        start = time.monotonic()
        assert run_main(argv, capsys) == (code, "", message + "\n")
        assert time.monotonic() - start < 1.0

    def test_normal_size_wording_kept(self, capsys):
        assert run_main(["sweep", "--q", "-5"], capsys) == (
            2, "", "error: q range must start at 1 or more, got '-5'\n")
        assert run_main(["sweep", "--q", "3..x"], capsys) == (
            2, "", "error: cannot parse q range '3..x'\n")
        big = str(2 ** 128 - 1)  # 39 digits, the longest shown in full
        assert run_main(["verify", "--suite", "all", "--seed", big], capsys)[2] == (
            f"error: seed must be in 0..2**64-1, got {big}\n")


class TestSweepCommand:
    def test_multiplicative_range(self, capsys):
        code, data = payload(["sweep", "--q", "8..128", "--step", "x2"], capsys)
        assert code == 0
        table = data["results"]["table"]
        assert [row["q"] for row in table] == [8, 16, 32, 64, 128]
        for row in table:
            assert row["fan_consistency"] <= 10.0

    @pytest.mark.parametrize("a", ["0.5", "0.8"])
    def test_below_unit_amplitude_passes(self, a, capsys):
        # the two-sided fan gap exceeds 10 at q=64 and 128 here, the
        # one-sided rule for |a| < 1 does not
        code, data = payload(["sweep", "--q", "8..128", "--step", "x2", "--a", a], capsys)
        assert code == 0
        assert data["results"]["table"][-1]["fan_consistency"] > 10.0
        assert all(c["passed"] for c in data["checks"])

    @pytest.mark.parametrize("a", ["1", "0.5"])
    def test_one_theorem3_sum_per_row(self, a, capsys, monkeypatch):
        # the fan-consistency column and check read the row's theorem3 and
        # fan_main: one O(q) entropy sum per row
        calls = []
        objective = rp.entropy_objective
        monkeypatch.setattr(rp, "entropy_objective",
                            lambda *args: calls.append(args) or objective(*args))
        code, _, _ = run_main(["sweep", "--q", "8..128", "--step", "x2", "--a", a,
                               "--format", "csv"], capsys)
        assert code == 0
        assert len(calls) == 5

    @pytest.mark.parametrize("q,step", [("3..1600000", "x2"), ("500000..1000001", "500001")])
    def test_range_past_entropy_grid_exits_at_once(self, q, step, capsys, monkeypatch):
        # the last q fits no entropy grid: the guard fires before the first row
        def forbidden(*args, **kwargs):
            raise AssertionError("row computed before the entropy guard")

        monkeypatch.setattr(rp, "bound_table_row", forbidden)
        code, out, err = run_main(["sweep", "--q", q, "--step", step], capsys)
        assert (code, out) == (3, "")
        last = cli._parse_range(q, step)[-1]
        assert err == f"resource guard: interval masses q**level = {last}, over the 1e+06 budget\n"

    @pytest.mark.parametrize("q,step", [("1", "1"), ("1..1", "1"), ("1..2", "2"), ("1..2", "1"),
                                        ("1..1600000", "x2")])
    def test_range_below_base_is_usage_error(self, q, step):
        # every q is checked as a base before the last one's entropy level is
        # sought: at q = 1 that search would never end.  A fresh interpreter
        # under a timeout turns a hang into a failure
        proc = run_cli(["sweep", "--q", q, "--step", step], "", capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: base must be an integer >= 3, got 1\n"

    def test_keeps_one_polytope(self, capsys):
        # a finished row's polytope (its q x 2 basis is 16 MB at q = 10^6) is
        # not kept for the rest of the range
        code, _, _ = run_main(["sweep", "--q", "8..128", "--step", "x2", "--format", "csv"], capsys)
        assert code == 0
        assert kb.FeasiblePolytope.from_residues.cache_info().currsize == 1

    def test_even_only(self, capsys):
        # an even start and step 2 give the even q of the range
        code, data = payload(["sweep", "--q", "4..9", "--step", "2"], capsys)
        assert code == 0
        assert [row["q"] for row in data["results"]["table"]] == [4, 6, 8]
        for row in data["results"]["table"]:
            assert row["prop4"] is not None

    def test_empty_range(self, capsys):
        code, _, err = run_main(["sweep", "--q", "9..4"], capsys)
        assert code == 2

    @pytest.mark.parametrize("q,step", [("0..5", "x2"), ("-3..5", "1")])
    def test_nonpositive_start_is_usage_error(self, q, step, capsys):
        # a multiplicative walk from 0 or below never passes the end of the range
        code, out, err = run_main(["sweep", f"--q={q}", "--step", step], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: q range must start at 1 or more, got {q!r}\n"

    @pytest.mark.parametrize("step", ["1", "x2"])
    def test_range_budget_exit_code(self, step, capsys):
        # 10^12 rows, or 39 rows up to q = 8e11: refused before the range is built
        start = time.monotonic()
        code, out, err = run_main(["sweep", "--q", "3..1000000000000", "--step", step], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("resource guard: the sweep's q values plus 25000 per row = ")
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("step", [1, 7])
    def test_range_budget_matches_row_sum(self, step):
        # the guard's closed-form count and sum against the rows themselves
        qs = []
        for q in itertools.count(3, step):
            if sum(qs) + q + cli.SWEEP_ROW_Q * (len(qs) + 1) > cli.MAX_SWEEP_Q:
                break
            qs.append(q)
        assert cli._parse_range(f"3..{qs[-1]}", str(step)) == tuple(qs)
        with pytest.raises(ResourceLimitError):
            cli._parse_range(f"3..{q}", str(step))

    def test_csv_schema(self, capsys):
        code, out, _ = run_main(["sweep", "--q", "4..6", "--step", "2", "--format", "csv"],
                                capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == ("q,B,kappa_prime_1,bound,subgroup_bound,delta,theorem3,"
                          "prop4,prop5,fan_main,peyriere,peyriere_converged,"
                          "entropy_est,fan_consistency")


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_martingale_suite_passes(self, capsys):
        code, data = payload(["verify", "--suite", "martingale", "--q", "3", "--n", "4",
                              "--a", "1", "--p", "1.25,2"], capsys)
        assert code == 0
        assert data["results"]["failed"] == 0
        names = {c["name"] for c in data["checks"]}
        assert "martingale/growth_p=2.0" in names

    @pytest.mark.parametrize("options", [
        ["--suite", "martingale", "--n", "0"],
        ["--suite", "martingale", "--q", "0"],
        ["--suite", "kappa", "--q-max", "0"],
        ["--suite", "kappa", "--q-max", "2"],
        ["--suite", "riesz-identities", "--q-max", "3"],
    ])
    def test_empty_range_is_usage_error(self, capsys, options):
        # zero values reach the suites' own guards instead of their defaults
        code, out, err = run_main(["verify"] + options, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_repeated_exponent_is_usage_error(self, capsys):
        # a repeated exponent would print its growth check twice and weigh
        # the set-average chain's rotation toward it
        code, out, err = run_main(["verify", "--suite", "martingale", "--q", "3", "--n", "3",
                                   "--p", "2,2.0"], capsys)
        assert (code, out, err) == (2, "", "error: exponent 2.0 is repeated in p\n")

    def test_subset_budget_exit_code(self, capsys):
        # the chain's 100 subsets each cost a pass over the grid, so the grid's
        # own guard prices them: one level past it exits 3 before any work
        start = time.monotonic()
        code, out, err = run_main(["verify", "--suite", "martingale", "--q", "3", "--n", "15"],
                                  capsys)
        assert (code, out) == (3, "")
        assert err == "resource guard: grid points q**N = 3**15, over the 1e+07 budget\n"
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("suite,flag", itertools.product(SUITE_READS, FLAG_VALUES))
    def test_option_routing(self, capsys, monkeypatch, suite, flag):
        # a flag reaches the suites whose keyword it names; given to a suite
        # that does not read it, it is a usage error before any suite runs
        received = []
        run_suite = verify.SUITES[suite]

        @functools.wraps(run_suite)
        def recorded(**kwargs):
            received.append(kwargs)
            return run_suite(**kwargs)

        monkeypatch.setitem(verify.SUITES, suite, recorded)
        options = {**TINY_SUITE[suite], flag: FLAG_VALUES[flag]}
        code, out, err = run_main(["verify", "--suite", suite, *itertools.chain(*options.items())],
                                  capsys)
        if flag in SUITE_READS[suite]:
            assert code == 0
            assert flag[2:].replace("-", "_") in received[0]
        else:
            assert (code, out, received) == (2, "", [])
            assert err == f"error: suite {suite!r} does not read {flag}\n"

    def test_all_suites_read_every_option(self, capsys):
        code, data = payload(["verify", "--suite", "all", "--q-max", "5", "--q", "3",
                              "--a", "0.5", "--n", "3", "--p", "2"], capsys)
        assert code == 0
        assert data["results"]["failed"] == 0

    def test_kappa_work_budget_exit_code(self, capsys):
        # every symmetric B with q <= 24 needs about 1e10 vertex-subset solves
        start = time.monotonic()
        code, out, err = run_main(["verify", "--suite", "kappa", "--q-max", "24"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("resource guard: ")
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("seed,code", [
        ("-1", 2), ("0", 0), (str(2 ** 64 - 1), 0), (str(2 ** 64), 2),
    ])
    def test_seed_range(self, capsys, seed, code):
        # the stream takes seeds 0..2**64-1; outside that range is a usage error
        got, out, err = run_main(["verify", "--suite", "kappa", "--q-max", "4", "--seed", seed],
                                 capsys)
        assert got == code
        if code == 2:
            assert out == ""
            assert err.startswith("error: seed must be in 0..2**64-1") and err.count("\n") == 1

    def test_riesz_identities_q_max_limit(self, capsys):
        # refused by the suite itself, before its quadrature runs
        code, out, err = run_main(["verify", "--suite", "riesz-identities", "--q-max", "514"],
                                  capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: riesz identities need q_max in 4..512, past which the Chebyshev "
                       "node product underflows, got q_max=514\n")

    def test_non_finite_p_rejected(self, capsys):
        code, _, err = run_main(["verify", "--suite", "martingale", "--p", "1,nan"], capsys)
        assert code == 2
        assert "finite" in err

    def test_overflowing_residual_is_strict_json(self, monkeypatch, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        monkeypatch.setitem(cli.COMMANDS, "bound",
                            lambda options: ({}, [CheckResult("x", float("inf"), 0.0)]))
        code, out, _ = run_main(["bound", "--q", "4", "--format", "json"], capsys)
        assert code == 1
        data = json.loads(out, parse_constant=reject)
        assert data["checks"][0]["residual"] is None
        assert "not finite" in data["checks"][0]["detail"]

    def test_huge_exponent_passes_with_finite_residuals(self, capsys):
        code, data = payload(["verify", "--suite", "martingale", "--q", "3", "--n", "4",
                              "--p", "1e6"], capsys)
        assert code == 0
        names = {c["name"] for c in data["checks"]}
        assert "martingale/growth_p=1000000.0" in names
        for check in data["checks"]:
            assert check["residual"] is not None and math.isfinite(check["residual"])

    def test_checks_csv(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "martingale", "--q", "3", "--n",
                                 "3", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "name,passed,residual,bound,detail"


class TestPassRule:
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "all", "--seed", "0"],
        ["bound", "--q", "14", "--b", "2,4,10,12"],
        ["sweep", "--q", "4"],
        ["sweep", "--q", "8..32", "--step", "x2", "--a", "0.5"],  # a negative fan gap
    ])
    def test_passed_is_residual_at_most_bound(self, argv, capsys):
        # every check row reports a finite bound, and passes exactly when its
        # residual is a number at most that bound, or when it had no cases
        code, data = payload(argv, capsys)
        checks = data["checks"]
        assert checks
        for check in checks:
            assert isinstance(check["bound"], float) and math.isfinite(check["bound"]), check
            residual = check["residual"]
            expected = check["detail"] == "no cases" if residual is None else residual <= check["bound"]
            assert check["passed"] is expected, check
        assert code == (0 if all(c["passed"] for c in checks) else 1)
        if "--a" in argv:  # the range at a = 0.5
            fan = [c for c in checks if c["name"].endswith("/fan_consistency_bounded")]
            assert len(fan) == 3 and all(c["residual"] < 0 and c["passed"] for c in fan)


class TestEnvelope:
    def test_determinism_excluding_wall_time(self, capsys):
        args = ["verify", "--suite", "martingale", "--q", "3", "--n", "4", "--seed", "7"]
        _, first = payload(args, capsys)
        _, second = payload(args, capsys)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_round_trip_keys(self, capsys):
        _, data = payload(["bound", "--q", "4", "--b", "2"], capsys)
        assert set(data) == {"version", "config", "results", "checks", "wall_time_s"}
        assert data["config"]["command"] == "bound"

    @pytest.mark.parametrize("argv,keys", [
        (["bound", "--q", "4", "--b", "2"], {"q", "b"}),
        (["bound", "--q", "5"], {"q"}),
        (["sweep", "--q", "4"], {"q_range", "a"}),
        (["sweep", "--q", "4..5"], {"q_range", "a"}),
        (["verify", "--suite", "kappa", "--q-max", "4"], {"suite", "q_max", "seed"}),
        (["verify", "--suite", "martingale", "--q", "3", "--n", "3", "--p", "2", "--a", "0.5"],
         {"suite", "q", "n", "p", "a", "seed"}),
    ])
    def test_config_lists_set_options_and_parser_defaults(self, argv, keys, capsys):
        # options left unset, such as bound's --b, are not listed
        code, out, _ = run_main(argv + ["--format", "json"], capsys)
        assert code == 0
        assert set(json.loads(out)["config"]) == {"command", "output_format"} | keys

    @pytest.mark.parametrize("command", [
        ["bound", "--q", "4", "--b", "2"],
        ["sweep", "--q", "4"],
        ["sweep", "--q", "4..5"],
    ])
    def test_seed_is_a_verify_option(self, command):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("error,code,prefix", [
        (PreconditionError("ill-posed"), 2, "error: ill-posed"),
        (NumericalError("diverged"), 4, "numerical error: diverged"),
        (MemoryError(), 3, "resource guard: out of memory"),
    ])
    def test_library_error_exit_codes(self, monkeypatch, capsys, error, code, prefix):
        def failing(config):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "bound", failing)
        status, out, err = run_main(["bound", "--q", "4", "--b", "2"], capsys)
        assert status == code
        assert out == ""
        assert err.startswith(prefix)

    def test_failed_check_gives_exit_one(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.COMMANDS, "bound", lambda options: (
            {}, [CheckResult("x", None, 0.0), CheckResult("y", 1.0, 0.5, "too large")]))
        code, out, err = run_main(["bound", "--q", "4"], capsys)
        assert code == 1
        assert "[PASS] x  bound=0.000e+00" in out
        assert "[FAIL] y  residual=1.000e+00  bound=5.000e-01" in out
        assert "too large" in out and err == ""

    @pytest.mark.parametrize("argv", [
        ["bound", "--q", "8", "--b", "1,7"],  # a band
        ["bound", "--q", "8", "--b", "2,4,6"],  # exhaustive enumeration
        ["bound", "--q", "5"],  # empty B
        ["sweep", "--q", "4"],
        ["sweep", "--q", "3..4"],
        ["verify", "--suite", "all"],
    ])
    def test_report_holds_only_json_types(self, argv, monkeypatch, capsys):
        # render encodes the report without a default hook, so every value a
        # command returns must already be a plain JSON type: a numpy scalar
        # would print as np.float64(...) in the CSV and text output
        reports = []
        render = cli.render

        def recorded(envelope, fmt):
            reports.append(envelope)
            return render(envelope, fmt)

        monkeypatch.setattr(cli, "render", recorded)
        for fmt in ("json", "csv", "text"):
            code, out, _ = run_main(argv + ["--format", fmt], capsys)
            assert code == 0 and "np." not in out
        json.dumps(reports[0], allow_nan=False)

        def leaves(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    assert type(key) is str
                    yield from leaves(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for report in reports:
            for leaf in leaves(report):
                assert type(leaf) in (str, int, float, bool, type(None)), (leaf, type(leaf))

    def test_unwritable_stdout_is_usage_error(self, monkeypatch, capsys):
        # a closed pipe on stdout
        def closed(text):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys.stdout, "write", closed)
        code, out, err = run_main(["bound", "--q", "4", "--b", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write report to stdout: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["bound", "--q", "4", "--b", "2"],
        ["verify", "--suite", "kappa", "--q-max", "4"],
        ["sweep", "--q", "4"],
        ["sweep", "--q", "4..5"],
    ])
    def test_output_option_is_usage_error(self, command, tmp_path, monkeypatch, capsys):
        # every report goes to stdout; there is no option to write a file
        monkeypatch.chdir(tmp_path)
        code, out, err = run_main(command + ["--output", "r.json"], capsys)
        assert code == 2
        assert out == ""
        assert err == "specbound: error: unrecognized arguments: --output r.json\n"
        assert list(tmp_path.iterdir()) == []


def test_import_leaves_csv_unloaded():
    # only a CSV report loads the csv module
    assert loaded_after_import("cli", ["csv"]) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize("sink", ["full", "closed pipe"])
@pytest.mark.parametrize("argv", [
    ["bound", "--q", "4", "--b", "2"],  # fits the stdout buffer
    ["bound", "--q", "2000", "--b", "1", "--format", "json"],  # does not
])
def test_unwritable_stdout_exits_two_at_once(sink, argv):
    # a buffered stdout fails at the flush; left to the interpreter's flush at
    # exit, the same failure printed two lines and exited 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if sink == "full":
        out = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, out = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "specbound", *argv], stdout=out,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write report to stdout: ")
    assert proc.stderr.count("\n") == 1


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "specbound", "bound", "--q", "4",
                           "--b", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bound=0.5" in proc.stdout



@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_wide_modulus_bound_memory():
    # B = {1, 4999}: one dihedral orbit of 5000 vertices of 5000 coordinates;
    # building the whole vertex set took about 1 GB of peak RSS
    proc = run_cli(["bound", "--q", "5000", "--b", "1", "--format", "json"], REPORT_PEAK_RSS,
                   capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["results"]["vertex_count"] == 5000
    peak_kb = peak_rss_kb(proc)
    assert peak_kb <= 100 * 1024, f"peak RSS {peak_kb} KiB exceeds 100 MB"
