"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 2-7, 9 and 10 assert on the named checks of the
``verify`` suites, and criterion 8 on those of the ``sweep --q 4`` row, which
hold their tolerances; criterion 1 holds its own here.  Criterion 11 runs every
request of the benchmark's reference through ``cli.main`` and applies the
benchmark's own gate (``perfbench/gate.py``) against ``perfbench/reference.json``.
Tolerances must not be loosened.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from specbound import cli
from specbound import kappa_bound as kb
from specbound import verify
from specbound import zq_spectral as zq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import gate  # noqa: E402
import pass_worker  # noqa: E402
import workloads  # noqa: E402

class Criterion:
    """Collects assertions, then prints one line and fails atomically."""

    def __init__(self, name: str, budget_s: float | None = None):
        self.name = name
        self.budget_s = budget_s
        self.problems: list[str] = []
        self.start = time.monotonic()

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    def expect_suite_checks(self, names: list[str], suite, **kwargs):
        """Require the named checks of one verify suite run to be present and pass."""
        checks = {check.name: check for check in suite(**kwargs)}
        for name in names:
            check = checks.get(name)
            self.expect(check is not None, f"{name}: no such check")
            if check is not None:
                self.expect(check.passed, f"{name}: residual {check.residual} ({check.detail})")

    def done(self):
        elapsed = time.monotonic() - self.start
        status = "PASS" if not self.problems else "FAIL"
        budget = f" (budget {self.budget_s:.0f}s)" if self.budget_s else ""
        print(f"[{status}] {self.name}  [{elapsed:.2f}s{budget}]")
        for problem in self.problems:
            print(f"       - {problem}")
        if self.budget_s is not None:
            assert elapsed < self.budget_s, f"{self.name}: runtime {elapsed:.2f}s over budget"
        assert not self.problems, f"{self.name}: {self.problems}"


def test_criterion_01_q4_fixtures():
    crit = Criterion("1. q=4 fixtures: bound 1/2 with the documented extremal witnesses",
                     budget_s=1.0)
    expected_witnesses = {
        (2,): [np.array([1, -1, 1, -1]), np.array([-1, 1, -1, 1])],
        (1, 3): [np.array(v) for v in ([1, 1, -1, -1], [-1, -1, 1, 1],
                                       [1, -1, -1, 1], [-1, 1, 1, -1])],
    }
    for members, witnesses in expected_witnesses.items():
        result = kb.dimension_bound(zq.ResidueSet(4, members))
        crit.expect(abs(result.bound - 0.5) <= 1e-12,
                    f"B={members}: bound {result.bound!r} != 0.5 within 1e-12")
        witness = np.array(result.witness_vertex)
        crit.expect(any(np.max(np.abs(witness - w)) <= 1e-9 for w in witnesses),
                    f"B={members}: witness {witness} not among the extremal points")
    crit.done()


def test_criterion_02_closed_form_cross_validation():
    crit = Criterion("2. closed-form growth derivative matches vertex enumeration, q=3..12",
                     budget_s=10.0)
    # |closed form - vertex value| <= 1e-9 for q=3..12
    crit.expect_suite_checks(["riesz/closed_form_matches_vertex_solver"],
                             verify.riesz_identity_suite, q_max=32)
    crit.done()


def test_criterion_03_sum_integral_identity():
    crit = Criterion("3. entropy-sum/log-integral identity and node-product factorization",
                     budget_s=10.0)
    # even q=4..32: identity residual <= 1e-7, factorization relerr <= 1e-9 on 1001 points
    crit.expect_suite_checks(["riesz/sum_integral_identity",
                              "riesz/chebyshev_factorization"],
                             verify.riesz_identity_suite, q_max=32)
    crit.done()


def test_criterion_04_subgroup_bound_consistency():
    crit = Criterion("4. certified bound dominates the subgroup bound (strictly when proper)",
                     budget_s=30.0)
    # every symmetric B for q=3..12: bound >= subgroup - 1e-12, gain >= 1e-6 when proper
    crit.expect_suite_checks(["kappa/bound_dominates_subgroup",
                              "kappa/strict_gain_when_proper"],
                             verify.kappa_suite, q_max=12)
    crit.done()


def test_criterion_05_martingale_suite():
    crit = Criterion("5. martingale suite (projections, subspace membership, growth, "
                     "set averages) for q=3,4 at depth 6", budget_s=60.0)
    for q in (3, 4):
        # B = {1, q-1}, a=1; projection and membership residuals <= 1e-10 * sup f,
        # growth at p = 1.25, 2, 4 with no step or atom violated, and the
        # set-average chain on every subset of the grid at each of them
        crit.expect_suite_checks(["martingale/spectral_projection",
                                  "martingale/differences_in_admissible_subspace",
                                  "martingale/growth_p=1.25",
                                  "martingale/growth_p=2.0",
                                  "martingale/growth_p=4.0",
                                  "martingale/set_average_chain"],
                                 verify.martingale_suite, q=q, n=6)
    crit.done()


def test_criterion_06_left_derivative_sandwich():
    crit = Criterion("6. backward-difference quotients sandwich the left derivative, q<=8")
    # every symmetric B (empty included) for q=3..8: the h=1e-2, 1e-3, 1e-4 quotients
    # and kappa'(1) rise in that order within 1e-10, and the h=1e-4 one is within 1e-3
    crit.expect_suite_checks(["kappa/fd_quotients_increase_to_derivative",
                              "kappa/fd_quotient_close_at_1e-4"],
                             verify.kappa_suite, q_max=8)
    crit.done()


def test_criterion_07_fan_term_agreement():
    crit = Criterion("7. asymptotic main-term agreement across the q sweep")
    # |theorem3 - fan main term| * q * log q <= 10 for q = 8, 16, ..., 128
    crit.expect_suite_checks(["riesz/fan_main_term_agreement"],
                             verify.riesz_identity_suite, q_max=32)
    crit.done()


def test_criterion_08_dimension_proxies_dominate():
    crit = Criterion("8. certified bound sits below the converged dimension proxies (q=4)")
    # the checks of the row that `sweep --q 4` reports, at slacks
    # rp.PEYRIERE_SLACK and rp.ENTROPY_SLACK; the Peyriere one is there only
    # when that estimate converged
    crit.expect_suite_checks(["riesz/q=4/certified_below_peyriere",
                              "riesz/q=4/certified_below_entropy"],
                             lambda: cli.cmd_sweep({"q_range": (4,), "a": 1.0})[1])
    crit.done()


def test_criterion_09_auxiliary_function_bounds():
    crit = Criterion("9. auxiliary derivative bound, Lipschitz window, 1-Lipschitz entropy")
    # exact derivative sup <= 2 and L in [1.2, 1.25] (both 1.2257873768428666, from
    # the closed form), Lipschitz excess <= 1e-6 on every neighbouring pair of
    # 20001 evenly spaced amplitudes in [-1, 1]
    crit.expect_suite_checks(["riesz/derivative_bounded_by_2",
                              "riesz/lipschitz_constant_in_window",
                              "riesz/factor_entropy_1_lipschitz"],
                             verify.riesz_identity_suite)
    crit.done()


def test_criterion_10_counterexample_fixture():
    crit = Criterion("10. complex atomic counterexample: restricted spectrum, q atoms")
    # q=4, l=1: spectrum inside C_{l}, q atoms of modulus 1/q within 1e-12,
    # some atom weight with imaginary part above 0.1/q
    check = verify._counterexample_check(4, 1)
    crit.expect(check.passed, f"counterexample check failed: residual {check.residual}")
    print(f"       note: {check.detail}")
    crit.done()


def test_criterion_11_reference_parity():
    crit = Criterion("11. every benchmark reference request passes the benchmark's gate")
    # each request as the benchmark's worker runs it, with --format json; the
    # gate compares the exit code, the check list, the exact vertex_count and
    # each table field within gate.TOLERANCES, and forgives a failure only
    # when gate.known_defect names it
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    requests = workloads.reference_requests()
    crit.expect({workloads.reference_key(argv) for argv in requests} == set(reference),
                "the requests and the stored reference differ")
    for argv in requests:
        outcome = pass_worker.run_request(cli.main, argv)
        for reason, defect in gate.check_request(outcome, reference):
            crit.expect(defect is not None, f"{' '.join(argv)}: {reason}")
    crit.done()
