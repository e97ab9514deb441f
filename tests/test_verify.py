import math
import subprocess
import sys

import pytest

from cli_child import REPORT_PEAK_RSS, peak_rss_kb, run_cli
from oracles import outer_product_sibling_residual
from specbound import gv_martingale as gv
from specbound import kappa_bound as kb
from specbound import riesz_products as rp
from specbound import verify
from specbound import zq_spectral as zq
from specbound.errors import ResourceLimitError


class TestSymmetricEnumeration:
    def test_counts(self):
        # reflection orbits: floor((q-1)/2) pairs plus a fixed point for even q;
        # the empty set comes first
        assert len(list(verify.symmetric_residue_sets(3))) == 2
        assert len(list(verify.symmetric_residue_sets(4))) == 4
        assert len(list(verify.symmetric_residue_sets(10))) == 32
        assert next(verify.symmetric_residue_sets(4)).members == frozenset()

    def test_all_symmetric(self):
        for b in verify.symmetric_residue_sets(9):
            assert b.symmetric

    def test_deterministic_order(self):
        first = [sorted(b.members) for b in verify.symmetric_residue_sets(8)]
        second = [sorted(b.members) for b in verify.symmetric_residue_sets(8)]
        assert first == second


class TestSuites:
    def test_kappa_suite_passes(self):
        checks = verify.kappa_suite(q_max=7)
        assert checks and all(c.passed for c in checks)

    def test_kappa_suite_enumerates_no_band(self, monkeypatch):
        # a band's checks read its orbit representatives, the rows its bound
        # maximizes over; only the other B are enumerated exhaustively
        enumerated = []
        polytope_vertices = kb.polytope_vertices

        def recorded(polytope):
            enumerated.append(polytope.band)
            return polytope_vertices(polytope)

        monkeypatch.setattr(kb, "polytope_vertices", recorded)
        # the last polytope built stays cached, with its vertices: start from
        # none enumerated
        kb.FeasiblePolytope.from_residues.cache_clear()
        checks = verify.kappa_suite(q_max=8)
        assert all(c.passed for c in checks)
        assert enumerated and set(enumerated) == {None}

    def test_kappa_suite_reads_one_kappa_per_residue_set(self, monkeypatch):
        # the single-step exponents 1/p and the difference steps 1 - h share
        # one call: 42 symmetric B with q <= 8, the empty ones included
        calls = []
        kappa = kb.kappa

        def counted(theta, polytope):
            calls.append(polytope.q)
            return kappa(theta, polytope)

        monkeypatch.setattr(kb, "kappa", counted)
        assert all(c.passed for c in verify.kappa_suite(q_max=8))
        assert len(calls) == sum(len(list(verify.symmetric_residue_sets(q)))
                                 for q in range(3, 9)) == 42

    def test_single_step_margin_reports_an_under_reported_kappa(self, monkeypatch):
        # e^kappa(1/p) is attained at a vertex, so 0.05 less leaves some mix
        # above the right side: the residual is that excess, not a flag
        checks = {c.name: c for c in verify.kappa_suite(q_max=5)}
        single_step = checks["kappa/single_step_reformulation"]
        assert single_step.passed and single_step.residual < 0
        kappa = kb.kappa
        monkeypatch.setattr(kb, "kappa", lambda theta, polytope: kappa(theta, polytope) - 0.05)
        checks = {c.name: c for c in verify.kappa_suite(q_max=5)}
        single_step = checks["kappa/single_step_reformulation"]
        assert not single_step.passed and single_step.residual > 0

    def test_riesz_suite_passes(self):
        checks = verify.riesz_identity_suite(q_max=8)
        assert checks and all(c.passed for c in checks)

    def test_prop4_gap_matches_derived_formula(self):
        checks = {c.name: c for c in verify.riesz_identity_suite(q_max=64)}
        prop4 = checks["riesz/prop4_sign_discrepancy_report"]
        assert prop4.passed and prop4.residual <= 1e-12
        assert "q=4: +0.057305" in prop4.detail and "q=64: " in prop4.detail

    def test_martingale_suite_passes(self):
        checks = verify.martingale_suite(q=4, a=1.0, n=4)
        assert checks and all(c.passed for c in checks)

    def test_set_average_detail_names_the_exponent(self):
        # the chain needs p > 1, so p = 1 runs at p = 2, and the detail says so
        checks = {c.name: c for c in verify.martingale_suite(q=3, n=4, p=(1.0,))}
        chain = checks["martingale/set_average_chain"]
        assert chain.passed and chain.detail.startswith("#C=") and chain.detail.endswith(" (p=2.0)")

    def test_set_average_chain_reports_its_least_slack(self, monkeypatch):
        # one report per distinct exponent (1 and 2 share p = 2); the residual is
        # minus the least slack of both comparisons, and the detail names the
        # size and exponent that have it
        reports = []
        set_average_check = gv.set_average_check

        def recorded(seq, growth):
            reports.append((growth.p, set_average_check(seq, growth)))
            return reports[-1][1]

        monkeypatch.setattr(gv, "set_average_check", recorded)
        checks = {c.name: c for c in verify.martingale_suite(q=3, n=5, p=(1.0, 1.25, 2.0, 4.0))}
        chain = checks["martingale/set_average_chain"]
        assert [p for p, _ in reports] == [2.0, 1.25, 4.0] and chain.passed
        slack, size, p = min((s, k, p) for p, r in reports
                             for s, k in ((r.hoelder_slack, r.hoelder_size), (r.growth_slack, r.growth_size)))
        assert chain.residual == -slack < 0
        assert chain.detail == f"#C={size} (p={p})"

    def test_flat_density_passes_the_chain(self):
        # a = 0 gives f = 1: at the full grid the Hoelder side exceeds the
        # average only by the allowance, 1e-9 * ||f||_p plus the floor, which
        # the prefix sums' round-off over 10**6 points must not use up
        checks = {c.name: c for c in verify.martingale_suite(q=1000, n=2, a=0.0)}
        chain = checks["martingale/set_average_chain"]
        assert chain.passed and chain.detail.startswith("#C=1000000 ")

    def test_martingale_suite_reads_one_kappa_per_exponent(self, monkeypatch):
        # the set-average chain reads the growth report at its exponent, so
        # it adds no kappa to the growth checks at 1.25, 2 and 4
        calls = []
        kappa = gv.kappa

        def counted(theta, polytope):
            calls.append(theta)
            return kappa(theta, polytope)

        monkeypatch.setattr(gv, "kappa", counted)
        assert all(c.passed for c in verify.martingale_suite())
        assert sorted(calls) == [0.25, 0.5, 0.8]

    def test_martingale_suite_seeded(self):
        one = verify.martingale_suite(q=3, a=0.8, n=4, seed=42)
        two = verify.martingale_suite(q=3, a=0.8, n=4, seed=42)
        assert [c.as_dict() for c in one] == [c.as_dict() for c in two]

    def test_kappa_budget_counts_every_subset_solve(self, monkeypatch):
        # the total must equal C(q, d_B) summed over the sets the suite enumerates
        # exhaustively: a band's vertices come from its sine products
        total = sum(math.comb(q, zq.wb_basis(b).dim) for q in range(3, 8)
                    for b in verify.symmetric_residue_sets(q)
                    if kb.FeasiblePolytope.from_residues(b).band is None)
        monkeypatch.setattr(verify, "MAX_KAPPA_SUBSETS", total - 1)
        with pytest.raises(ResourceLimitError):
            verify.kappa_suite(q_max=7)
        monkeypatch.setattr(verify, "MAX_KAPPA_SUBSETS", total)
        assert all(c.passed for c in verify.kappa_suite(q_max=7))

    def test_check_names_are_namespaced(self):
        for c in verify.kappa_suite(q_max=5):
            assert c.name.startswith("kappa/")


class TestCollapse:
    def test_worst_picks_largest(self):
        result = verify._worst("x", [(0.1, "a"), (0.9, "b"), (0.3, "c")], 1.0)
        assert result.passed and result.residual == 0.9 and result.detail == "b"

    def test_worst_keeps_nan(self):
        # a NaN case is the worst wherever it sits, and fails
        result = verify._worst("x", [(0.2, "a"), (math.nan, "b"), (0.9, "c")], 1.0)
        assert not result.passed and math.isnan(result.residual) and result.detail == "b"

    def test_empty_entries_pass(self):
        result = verify._worst("x", [], 1.0)
        assert result.passed and result.residual is None and result.detail == "no cases"


class TestCheckResult:
    def test_passes_when_residual_is_at_most_its_bound(self):
        assert verify.CheckResult("x", 1.0, 1.0).passed
        assert not verify.CheckResult("x", 1.5, 1.0).passed
        assert verify.CheckResult("x", -2e-6, -1e-6).passed
        assert verify.CheckResult("x", None, 0.0, "no cases").passed

    @pytest.mark.parametrize("residual", [math.nan, math.inf])
    def test_non_finite_residual_fails(self, residual):
        check = verify.CheckResult("x", residual, 0.0, "why")
        assert not check.passed
        assert check.as_dict() == {"name": "x", "passed": False, "residual": None, "bound": 0.0,
                                   "detail": f"why (residual {residual} is not finite)"}


class TestCounterexampleCheck:
    def test_documenting_detail(self):
        check = verify._counterexample_check(4, 1)
        assert check.passed
        assert "non-negativity" in check.detail

    def test_other_modulus(self):
        assert verify._counterexample_check(5, 2).passed


class TestDftLemmaResidual:
    @pytest.mark.parametrize("q,depth", [(3, 6), (4, 6), (5, 6), (7, 5)])
    def test_matches_outer_product_reference(self, q, depth):
        grid = gv.QadicGrid(q, depth)
        seq = gv.martingale_levels(rp.riesz_spectrum(rp.RieszParams(1.0, q), depth), grid)
        assert abs(gv.sibling_synthesis_check(seq) - outer_product_sibling_residual(seq)) <= 1e-12
        # a source that does not match the levels gives an O(1) residual, and
        # both syntheses must report the same one
        other = gv.MartingaleSequence(grid, seq.class_values,
                                      rp.riesz_spectrum(rp.RieszParams(0.5, q), depth))
        residual = gv.sibling_synthesis_check(other)
        assert residual > 0.1
        assert abs(residual - outer_product_sibling_residual(other)) <= 1e-12


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status; RLIMIT_AS caps address space only on Linux")
@pytest.mark.parametrize("q,depth", [(3, 10), (100, 3)])
def test_martingale_suite_fits_in_1gb(q, depth):
    # the sibling synthesis must stay O(grid size): a (frequencies x classes)
    # phase matrix needs ~12 GB at (3, 10), a (q, q**k) bin array 1.6 GB at (100, 3).
    # The child reports its own peak RSS.  The 4 GiB address-space cap only
    # makes such a regression fail fast instead of swapping.
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))

    proc = run_cli(["verify", "--suite", "martingale", "--q", str(q), "--n", str(depth)],
                   REPORT_PEAK_RSS, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                   preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    peak_kb = peak_rss_kb(proc)
    assert peak_kb <= 2 ** 20, f"peak RSS {peak_kb} KiB exceeds 1 GiB"
