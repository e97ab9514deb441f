"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 2, 3, 4, 6, 7 and 9 assert on the named checks
of the ``verify`` suites, which hold their tolerances; the others hold theirs
here.  Tolerances must not be loosened.
"""

import time

import numpy as np

from specbound import gv_martingale as gv
from specbound import kappa_bound as kb
from specbound import riesz_products as rp
from specbound import verify
from specbound import zq_spectral as zq

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
        """Require the named checks of one verify suite run to pass."""
        checks = {check.name: check for check in suite(**kwargs)}
        for name in names:
            check = checks[name]
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
        result = kb.dimension_bound(zq.ResidueSet.of(4, members))
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
                             verify.riesz_identity_suite, q_max=32, seed=0)
    crit.done()


def test_criterion_03_sum_integral_identity():
    crit = Criterion("3. entropy-sum/log-integral identity and node-product factorization",
                     budget_s=10.0)
    # even q=4..32: identity residual <= 1e-7, factorization relerr <= 1e-9 on 100 points
    crit.expect_suite_checks(["riesz/sum_integral_identity",
                              "riesz/chebyshev_factorization"],
                             verify.riesz_identity_suite, q_max=32, seed=0)
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
        params = rp.RieszParams(1.0, q)
        b = zq.ResidueSet.of(q, [1, q - 1])
        grid = gv.QadicGrid(q, 6)
        spec = rp.riesz_spectrum(params, 6)
        seq = gv.martingale_from_spectrum(spec, grid)
        sup = max(1.0, float(np.abs(seq.level_values(6)).max()))
        for k in range(7):
            residual = gv.spectral_projection_check(spec, grid, k, seq=seq)
            crit.expect(residual <= 1e-10 * sup,
                        f"q={q} k={k}: projection residual {residual:.3e}")
        membership = gv.wb_membership_check(seq, b)
        crit.expect(membership <= 1e-10 * sup,
                    f"q={q}: subspace membership residual {membership:.3e}")
        for p in (1.25, 2.0, 4.0):
            report = gv.growth_check(seq, b, p)
            crit.expect(report.passed and report.worst_atom_slack >= 0.0,
                        f"q={q} p={p}: growth failures {report.failures[:2]}")
        rng = np.random.default_rng(0)
        for i in range(100):
            count = int(rng.integers(1, grid.size))
            subset = rng.choice(grid.size, size=count, replace=False)
            report = gv.set_average_check(seq, subset, 2.0, b)
            crit.expect(report.passed, f"q={q}: subset {i} failed the average chain")
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
                             verify.riesz_identity_suite, q_max=32, seed=0)
    crit.done()


def test_criterion_08_dimension_proxies_dominate():
    crit = Criterion("8. certified bound sits below the converged dimension proxies (q=4)")
    estimate = rp.peyriere_dimension(rp.RieszParams(1.0, 4), 8, 4 ** 10)
    crit.expect(estimate.converged, "integral-identity estimate did not converge")
    crit.expect(estimate.estimate >= rp.bound_theorem3(4) - 0.02,
                f"estimate {estimate.estimate:.4f} below certified bound - 0.02")
    entropy = rp.entropy_dimension_estimate(rp.RieszParams(1.0, 4), 10, 5)
    crit.expect(entropy >= 0.45, f"entropy proxy {entropy:.4f} < 0.45")
    crit.done()


def test_criterion_09_auxiliary_function_bounds():
    crit = Criterion("9. auxiliary derivative bound, Lipschitz window, 1-Lipschitz entropy")
    # derivative sup <= 2, L in [1.2, 1.25], Lipschitz excess <= 1e-6 on 10^4 seeded pairs
    crit.expect_suite_checks(["riesz/derivative_bounded_by_2",
                              "riesz/lipschitz_constant_in_window",
                              "riesz/factor_entropy_1_lipschitz"],
                             verify.riesz_identity_suite, seed=1)
    crit.done()


def test_criterion_10_counterexample_fixture():
    crit = Criterion("10. complex atomic counterexample: restricted spectrum, q atoms")
    q, l = 4, 1
    spec = zq.counterexample_measure(q, l)
    b = zq.ResidueSet.of(q, [l])
    crit.expect(all(zq.in_cb(int(n), b) for n, _ in spec.items()),
                "a frequency escapes the restricted set")
    profile = np.array([1.0 if r == l else 0.0 for r in range(q)], dtype=complex)
    weights = zq.inverse_dft_zq(profile)
    crit.expect(int(np.sum(np.abs(weights) > 1e-12)) == q,
                f"expected {q} atoms, got {np.sum(np.abs(weights) > 1e-12)}")
    crit.expect(bool(np.max(np.abs(weights.imag)) > 0.1 / q),
                "atom weights are unexpectedly real")
    check = verify._counterexample_check(q, l)
    crit.expect(check.passed, "packaged counterexample check failed")
    print(f"       note: {check.detail}")
    crit.done()
