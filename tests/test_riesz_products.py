import math

import numpy as np
import pytest

from specbound import draws
from specbound import kappa_bound as kb
from specbound import riesz_products as rp
from specbound import verify
from specbound import zq_spectral as zq
from specbound.errors import InvalidInputError, NumericalError, ResourceLimitError
from specbound.quadrature import tanh_sinh_full
from specbound.spectrum import SparseSpectrum

from cli_child import loaded_after_import
from oracles import direct_synthesis, lowered_table_row_sizes, per_piece_log_integral

LOG2 = math.log(2.0)

# frozen quadrature oracle values (adaptive reference integrator, abs err < 1e-12)
LOG_INTEGRAL_REFERENCE = {
    4: -1.735821675618,
    6: -3.423923508494,
    8: -4.982356508908,
    16: -10.803322608538,
    32: -22.036488679694,
}


def dict_riesz_spectrum(params, depth):
    """The dict-built riesz_spectrum the array construction replaced, as the reference."""
    half = params.a / 2.0
    coeffs = {0: 1.0}
    for k in range(depth):
        step = params.q ** k
        nxt = {}
        for n, c in coeffs.items():
            nxt[n] = nxt.get(n, 0.0) + c
            side = c * half
            nxt[n + step] = nxt.get(n + step, 0.0) + side
            nxt[n - step] = nxt.get(n - step, 0.0) + side
        coeffs = nxt
    coeffs = {n: c for n, c in coeffs.items() if c != 0.0}
    return SparseSpectrum.from_dict(coeffs)


class TestRieszSpectrum:
    @pytest.mark.parametrize("a", [0.0, 0.3, -0.3, 1.0, -1.0])
    @pytest.mark.parametrize("q", [3, 4, 7])
    def test_matches_dict_reference(self, q, a):
        params = rp.RieszParams(a, q)
        for depth in range(8):
            spec = rp.riesz_spectrum(params, depth)
            ref = dict_riesz_spectrum(params, depth)
            assert np.array_equal(spec.frequencies, ref.frequencies)
            assert spec.coefficients.tobytes() == ref.coefficients.tobytes()

    def test_int64_overflow_guard(self):
        # at q = 1448, depth 7 the top step q**6 fits int64 but the largest
        # frequency q**6 + ... + 1 does not; at q = 1447 it still fits
        with pytest.raises(InvalidInputError):
            rp.riesz_spectrum(rp.RieszParams(1.0, 1448), 7)
        params = rp.RieszParams(1.0, 1447)
        spec = rp.riesz_spectrum(params, 7)
        assert spec.max_abs_frequency == (1447 ** 7 - 1) // 1446 > 2 ** 62
        assert np.array_equal(spec.frequencies, dict_riesz_spectrum(params, 7).frequencies)

    def test_zero_amplitude(self):
        spec = rp.riesz_spectrum(rp.RieszParams(0.0, 3), 5)
        assert dict(zip(spec.frequencies.tolist(), spec.coefficients.tolist())) == {0: 1.0}

    def test_depth_one(self):
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, 3), 1)
        assert dict(zip(spec.frequencies.tolist(), spec.coefficients.tolist())) == {
            -1: 0.5, 0: 1.0, 1: 0.5}

    def test_depth_two(self):
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, 3), 2)
        assert spec.frequencies.tolist() == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
        assert spec.coefficient(4) == 0.25

    def test_term_count_and_symmetry(self):
        spec = rp.riesz_spectrum(rp.RieszParams(0.7, 4), 6)
        assert len(spec) == 3 ** 6
        assert spec.is_conjugate_symmetric()
        assert spec.coefficient(0) == 1.0

    def test_support_in_restricted_set(self):
        for q in (3, 4, 5):
            b = zq.ResidueSet.of(q, [1, q - 1])
            spec = rp.riesz_spectrum(rp.RieszParams(1.0, q), 5)
            assert zq.in_cb(spec.frequencies, b).all()

    def test_depth_guard(self):
        with pytest.raises(ResourceLimitError):
            rp.riesz_spectrum(rp.RieszParams(1.0, 3), 15)

    def test_params_validation(self):
        with pytest.raises(InvalidInputError):
            rp.RieszParams(1.5, 3)
        with pytest.raises(InvalidInputError):
            rp.RieszParams(0.5, 2)


class TestPartialProduct:
    def test_maximal_point(self):
        for depth in (1, 3, 5):
            values = rp.partial_product_values(rp.RieszParams(1.0, 3), depth, 10)
            assert abs(values[0] - 2.0 ** depth) <= 1e-12

    def test_unit_mean_on_aligned_grid(self):
        params = rp.RieszParams(0.9, 3)
        values = rp.partial_product_values(params, 4, 3 ** 4 * 2)
        assert abs(values.mean() - 1.0) <= 1e-10

    def test_two_path_agreement(self):
        rng = np.random.default_rng(5)
        for q, depth in [(3, 4), (4, 3), (5, 3)]:
            params = rp.RieszParams(float(rng.uniform(-1, 1)), q)
            spec = rp.riesz_spectrum(params, depth)
            x = rng.uniform(0, 1, size=64)
            direct = np.ones_like(x)
            for k in range(depth):
                direct *= 1.0 + params.a * np.cos(2 * np.pi * q ** k * x)
            synthesized = direct_synthesis(spec, x)
            assert np.max(np.abs(synthesized.imag)) <= 1e-10
            assert np.max(np.abs(synthesized.real - direct)) <= 1e-10
        # and on the unit grid via the dedicated evaluator
        params = rp.RieszParams(1.0, 3)
        spec = rp.riesz_spectrum(params, 4)
        grid_vals = rp.partial_product_values(params, 4, 243)
        synth = direct_synthesis(spec, np.arange(243) / 243).real
        assert np.max(np.abs(grid_vals - synth)) <= 1e-10

    def test_nonnegative(self):
        values = rp.partial_product_values(rp.RieszParams(1.0, 4), 6, 4096)
        assert values.min() >= -1e-12


class TestClosedForms:
    def test_theorem3_small_q(self):
        assert abs(rp.bound_theorem3(3)) <= 1e-12
        assert abs(rp.bound_theorem3(4) - 0.5) <= 1e-12

    def test_theorem3_exact_at_small_q(self):
        # the summands that vanish at the endpoint are exactly 0, not an
        # angle's round-off through x log x
        assert rp.bound_theorem3(4) == 0.5
        assert abs(rp.bound_theorem3(3)) <= 1e-15

    def test_theorem3_matches_direct_sum(self):
        # the closed form through kappa_prime_riesz, against the endpoint sum divided once
        for q in range(3, 200):
            direct = 1.0 - float(rp.entropy_objective(q, math.pi / q)) / (q * math.log(q))
            assert abs(rp.bound_theorem3(q) - direct) <= 2 * np.spacing(1.0)

    def test_kappa_prime_riesz_values(self):
        assert abs(rp.kappa_prime_riesz(3) + math.log(3)) <= 1e-12
        assert abs(rp.kappa_prime_riesz(4) + LOG2) <= 1e-12

    def test_matches_vertex_enumeration(self):
        # the exhaustive solver (no residue set), not the band's own sine products
        for q in range(3, 13):
            p = kb.FeasiblePolytope(zq.wb_basis(zq.ResidueSet.of(q, [1, q - 1])))
            assert p.vertex_source == "exhaustive"
            assert abs(rp.kappa_prime_riesz(q) - kb.kappa_prime_1(p).value) <= 1e-9

    def test_entropy_objective_at_endpoint_matches_profile_sum(self):
        # at phi = pi/q the summands j = 0 and q-1 vanish; the other q-2 are the
        # profile 1 - cos((2j+1)*pi/q)/cos(pi/q), j = 1..q-2, none clipped
        for q in range(3, 10):
            j = np.arange(1, q - 1)
            profile = 1.0 - np.cos((2 * j + 1) * np.pi / q) / math.cos(math.pi / q)
            endpoint = rp.entropy_objective(q, math.pi / q)
            assert abs(endpoint - np.sum(kb.xlogx(profile))) <= 1e-9

    def test_endpoint_optimality(self):
        for q in range(3, 13):
            assert rp.endpoint_optimality_gap(q) <= 1e-9

    def test_entropy_objective_matches_scalar_loop(self):
        def scalar_objective(q, phi):
            # the residues centered on 0, in the order 0, 1, ..., -1
            j = np.array([r - q if 2 * r > q else r for r in range(q)])
            t = 1.0 - np.cos(2.0 * np.pi * j / q + phi) / math.cos(phi)
            return float(np.sum(kb.xlogx(np.clip(t, 0.0, None))))

        for q in range(3, 13):
            phis = np.linspace(-np.pi / q, np.pi / q, 1001)
            values = np.array([scalar_objective(q, float(phi)) for phi in phis])
            np.testing.assert_array_equal(rp.entropy_objective(q, phis), values)
            np.testing.assert_array_equal(rp.entropy_objective(q, phis.reshape(7, 143)),
                                          values.reshape(7, 143))
            gap = float(values[1:-1].max() - max(values[0], values[-1]))
            assert rp.endpoint_optimality_gap(q) == gap
            endpoint = rp.entropy_objective(q, math.pi / q)
            assert isinstance(endpoint, float) and endpoint == scalar_objective(q, math.pi / q)


class TestLogIntegral:
    @pytest.mark.parametrize("q", sorted(LOG_INTEGRAL_REFERENCE))
    def test_against_reference(self, q):
        assert abs(rp.log_integral(q) - LOG_INTEGRAL_REFERENCE[q]) <= 1e-8

    def test_sign(self):
        for q in (4, 6, 10, 20):
            assert rp.log_integral(q) <= 0.0

    def test_odd_q_rejected(self):
        with pytest.raises(InvalidInputError):
            rp.log_integral(5)

    def test_matches_per_piece_oracle(self):
        for q in [*range(4, 65, 2), 100, 1000]:
            oracle = per_piece_log_integral(q)
            assert abs(rp.log_integral(q) - oracle) <= 1e-12 * abs(oracle), q

    @pytest.mark.parametrize("q", [10002, 20000])
    def test_matches_per_piece_oracle_at_large_q(self, q):
        # the oracle's own error grows with its q/4 pieces: against a
        # 30-digit mpmath evaluation it is off by 1.04e-12 at q=10002 and 1.57e-12
        # at q=20000, the folded form by 6.2e-15
        oracle = per_piece_log_integral(q)
        assert abs(rp.log_integral(q) - oracle) <= 2e-12 * abs(oracle)

    def test_integrated_once_per_q(self, monkeypatch):
        # the identity, prop4 and its gap share one integral per even q, and
        # each is one tanh-sinh quadrature: 7 for q = 4..16, not 21
        pieces = []

        def counted(*args, **kwargs):
            pieces.append(args[1:])
            return tanh_sinh_full(*args, **kwargs)

        monkeypatch.setattr(rp, "tanh_sinh_full", counted)
        rp.log_integral.cache_clear()
        verify.riesz_identity_suite(q_max=16)
        assert rp.log_integral.cache_info().misses == 7
        assert len(pieces) == 7


class TestChebyshevIdentity:
    def test_residual_small(self):
        assert rp.chebyshev_identity_residual(4) <= 1e-8
        assert rp.chebyshev_identity_residual(16) <= 1e-7

    def test_factorization_at_zero(self):
        # T_2(0)**2 * 2**-2 = 1/4 equals the product of |0 - cos((2j+1)pi/4)|
        nodes = np.cos((2 * np.arange(4) + 1) * np.pi / 4)
        prod = np.prod(np.abs(0.0 - nodes))
        t2 = np.cos(2 * np.arccos(0.0))
        assert abs(2.0 ** (-2) * t2 ** 2 - prod) <= 1e-15

    def test_factorization_random_points(self):
        # the riesz suite's amplitudes: at seed 468110 it draws a = -0.8314,
        # 3.8e-5 from a node of q = 14; both sides are near 0 there, and a
        # mismatch relative to |lhs| reached 1.15e-9
        for seed in (0, 468110):
            a = draws.Stream(seed).uniform(-1.0, 1.0, size=verify.CHEBYSHEV_POINTS)
            for q in (4, 8, 12, 14, 16, 32):
                assert rp.chebyshev_product_relerr(q, a) <= 1e-9

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            rp.chebyshev_identity_residual(5)


class TestDisplayedBounds:
    def test_prop4_frozen_values(self):
        assert abs(rp.bound_prop4(4) - 0.5573049591110361) <= 1e-9
        assert abs(rp.bound_prop4(16) - 0.8340363422606787) <= 1e-9

    def test_prop4_near_theorem3_for_moderate_q(self):
        assert abs(rp.bound_prop4(16) - rp.bound_theorem3(16)) <= 0.2

    def test_prop4_sign_discrepancy_is_visible(self):
        # the displayed form comes out *above* the certified bound at q=4;
        # the two candidate sign conventions are reported, never reconciled
        assert rp.bound_prop4(4) > rp.bound_theorem3(4)

    def test_prop4_odd_q_rejected(self):
        with pytest.raises(InvalidInputError):
            rp.bound_prop4(7)

    def test_prop5_frozen_value(self):
        assert abs(rp.bound_prop5(3) + 4.002349856189054) <= 1e-12

    def test_prop5_below_theorem3(self):
        for q in (3, 4, 8, 16, 64, 128):
            assert rp.bound_prop5(q) <= rp.bound_theorem3(q) + 1e-12


class TestFanTerm:
    def test_endpoint_amplitude(self):
        for q in (3, 4, 16):
            expected = 1.0 - (1.0 - LOG2) / math.log(q)
            assert rp.fan_main_term(rp.RieszParams(1.0, q)) == expected
            assert rp.fan_main_term(rp.RieszParams(-1.0, q)) == expected

    def test_zero_amplitude(self):
        assert rp.fan_main_term(rp.RieszParams(0.0, 7)) == 1.0

    def test_fan_consistency_bounded_at_unit_amplitude(self):
        # at |a| = 1 the gap is two-sided
        for q in (8, 16, 32, 64, 128):
            for a in (1.0, -1.0):
                params = rp.RieszParams(a, q)
                theorem3, fan_main = rp.bound_theorem3(q), rp.fan_main_term(params)
                gap = abs(theorem3 - fan_main)
                assert rp.fan_gap(params, theorem3, fan_main) == gap * q * math.log(q)
                assert rp.fan_gap(params, theorem3, fan_main) <= rp.FAN_CONSISTENCY_ALLOWANCE
        assert rp.fan_gap(rp.RieszParams(1.0, 8), 0.5, 0.6) == (0.6 - 0.5) * 8 * math.log(8) > 0

    def test_fan_consistency_one_sided_below_unit_amplitude(self):
        # theorem3 does not move with a, fan_main does: the two-sided gap
        # outgrows the allowance, theorem3 - fan_main stays below it
        for a in (0.5, -0.5, 0.8):
            params = rp.RieszParams(a, 128)
            theorem3, fan_main = rp.bound_theorem3(128), rp.fan_main_term(params)
            assert abs(theorem3 - fan_main) * 128 * math.log(128) > 10.0
            assert rp.fan_gap(params, theorem3, fan_main) == (theorem3 - fan_main) * 128 * math.log(128)
            assert rp.fan_gap(params, theorem3, fan_main) < 0

    def test_factor_entropy_matches_quadrature_reference(self):
        # the defining integral over the symmetric half-period, by tanh-sinh
        def integrand(x, a):
            t = 1.0 + a * np.cos(2.0 * np.pi * x)
            return np.where(t > 0, t * np.log(np.maximum(t, np.finfo(float).tiny)), 0.0)

        near_one = 1.0 - 1e-9
        for a in [*np.linspace(-1.0, 1.0, 41), near_one, -near_one]:
            reference = 2.0 * tanh_sinh_full(lambda x: integrand(x, a), 0.0, 0.5, tol=1e-11).value
            assert abs(rp.factor_entropy(float(a)) - reference) <= 1e-13, a

    def test_factor_entropy_elementwise(self):
        amplitudes = np.linspace(-1.0, 1.0, 101)
        values = rp.factor_entropy(amplitudes)
        assert values.shape == amplitudes.shape
        assert np.array_equal(values, [rp.factor_entropy(float(a)) for a in amplitudes])
        with pytest.raises(InvalidInputError):
            rp.factor_entropy(np.array([0.5, 1.5]))
        with pytest.raises(InvalidInputError):
            rp.factor_entropy(np.array([0.5, np.nan]))

    def test_factor_entropy_continuous_at_endpoint(self):
        assert abs(rp.factor_entropy(1.0 - 1e-9) - (1.0 - LOG2)) <= 1e-6

    def test_factor_entropy_lipschitz(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, size=(200, 2))
        for a1, a2 in values:
            assert abs(rp.factor_entropy(a1) - rp.factor_entropy(a2)) <= abs(a1 - a2) + 1e-8


def three_evaluation_peyriere(params, depth, m):
    """The peyriere_dimension the one-pass depth probe replaced, as the reference:
    a separate grid evaluation for the depth probe (depth + 1 on m, else on q*m,
    else depth - 1), one for the estimate and one for the doubled grid."""
    def product(depth, numerators, denominator):
        out = np.ones(numerators.shape[0])
        for k in range(depth):
            phase = (params.q ** k * numerators) % denominator
            out *= 1.0 + params.a * np.cos(2.0 * np.pi * phase / denominator)
        return out

    def raw(depth, m):
        numerators = 2 * np.arange(m, dtype=np.int64) + 1
        t = 1.0 + params.a * np.cos(np.pi * numerators / m)
        log_term = np.where(t > 0, np.log(np.maximum(t, np.finfo(float).tiny)), 0.0)
        weights = product(depth, numerators, 2 * m)
        return 1.0 - float(np.mean(log_term * weights)) / math.log(params.q)

    q = params.q
    base = raw(depth, m)
    if m % q ** (depth + 1) == 0:
        probe = raw(depth + 1, m)
    elif q * m <= rp.MAX_PEYRIERE_GRID:
        probe = raw(depth + 1, q * m)
    else:
        probe = raw(depth - 1, m)
    refined_grid = raw(depth, 2 * m)
    return base, (abs(probe - base) < 0.01) and (abs(refined_grid - base) < 0.01)


def table_row_peyriere_args(q):
    """The (depth, m) that bound_table_row passes to peyriere_dimension."""
    seen = []

    def spy(params, depth, m):
        seen.append((depth, m))
        return rp.PeyriereEstimate(1.0, True)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rp, "peyriere_dimension", spy)
        rp.bound_table_row(rp.RieszParams(0.0, q))
    return seen[0]


PEYRIERE_TABLE_CASES = [(q, a) for q in (3, 4, 5, 8, 16, 32, 64, 128)
                        for a in (-1.0, -0.5, 0.0, 0.5, 0.95, 1.0)]
# amplitudes next to the log singularity, and the first one-level row (q > 707),
# where the reference's doubled grid could decide a flag that is True
PEYRIERE_TABLE_CASES += [(8, 1.0 - 1e-9), (8, -(1.0 - 1e-9)), (708, 0.1)]
# the inputs of the other TestPeyriere tests and of acceptance criterion 8,
# and a three-point grid on which both flags are False
PEYRIERE_DIRECT_CASES = [(0.0, 4, 3, 4 ** 3 * 4), (1.0, 3, 4, 3 ** 4 * 5),
                         (0.5, 4, 4, 4 ** 4 * 5), (-1.0, 5, 4, 5 ** 4 * 5),
                         (1.0, 4, 6, 4 ** 8), (1.0, 4, 8, 4 ** 10), (1.0, 3, 1, 3)]


class TestPeyriere:
    @pytest.mark.parametrize("q, a", PEYRIERE_TABLE_CASES)
    def test_table_row_matches_three_evaluation_reference(self, q, a):
        depth, m = table_row_peyriere_args(q)
        params = rp.RieszParams(a, q)
        assert tuple(rp.peyriere_dimension(params, depth, m)) == \
            three_evaluation_peyriere(params, depth, m)

    @pytest.mark.parametrize("a, q, depth, m", PEYRIERE_DIRECT_CASES)
    def test_matches_three_evaluation_reference(self, a, q, depth, m):
        params = rp.RieszParams(a, q)
        assert tuple(rp.peyriere_dimension(params, depth, m)) == \
            three_evaluation_peyriere(params, depth, m)

    def test_depth_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            rp.peyriere_dimension(rp.RieszParams(1.0, 3), 0, 30)

    @pytest.mark.parametrize("a, q, depth, m", PEYRIERE_DIRECT_CASES)
    def test_one_pass_on_the_grid(self, a, q, depth, m, monkeypatch):
        # the depth - 1 factors and the last one, each once on the m midpoints:
        # no second grid
        points = []
        product_at_phases = rp._product_at_phases

        def counted(params, levels, numerators, denominator):
            points.append(numerators.shape[0])
            return product_at_phases(params, levels, numerators, denominator)

        monkeypatch.setattr(rp, "_product_at_phases", counted)
        rp.peyriere_dimension(rp.RieszParams(a, q), depth, m)
        assert sum(points) == 2 * m

    def test_lebesgue_case_exact(self):
        result = rp.peyriere_dimension(rp.RieszParams(0.0, 4), 3, 4 ** 3 * 4)
        assert result.estimate == 1.0
        assert result.converged

    def test_never_exceeds_one(self):
        for a, q in [(1.0, 3), (0.5, 4), (-1.0, 5)]:
            block = q ** 4
            result = rp.peyriere_dimension(rp.RieszParams(a, q), 4, block * 5)
            assert result.estimate <= 1.0 + 1e-9

    def test_converged_run_dominates_certified_bound(self):
        result = rp.peyriere_dimension(rp.RieszParams(1.0, 4), 6, 4 ** 8)
        assert result.converged
        assert result.estimate >= rp.bound_theorem3(4) - rp.PEYRIERE_SLACK

    def test_grid_alignment_required(self):
        with pytest.raises(InvalidInputError):
            rp.peyriere_dimension(rp.RieszParams(1.0, 3), 4, 100)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            rp.peyriere_dimension(rp.RieszParams(1.0, 3), 16, 3 ** 16)


class TestDerivativeBounds:
    def test_report(self):
        report = rp.g_derivative_bound_check()
        checks = {c.name: c for c in verify.riesz_identity_suite(q_max=4)}
        window = max(1.2 - report.lipschitz_constant, report.lipschitz_constant - 1.25)
        for name, value in [("riesz/derivative_bounded_by_2", report.sup_estimate),
                            ("riesz/lipschitz_constant_in_window", window)]:
            assert checks[name].passed and checks[name].residual == value
        assert abs(report.lipschitz_constant - 1.2257873768) <= 1e-6
        # the global sup is attained on the |a| = 1 slice
        assert abs(report.sup_estimate - report.lipschitz_constant) <= 1e-9

    def test_closed_form_against_dense_grid(self):
        # |a*sin(x)*(1 + log(1 + a*cos x))| on a dense (a, x) grid, with the
        # limit 0 where 1 + a*cos x vanishes, never exceeds the closed-form
        # sup and comes within 1e-6 of it; phi vanishes at both roots
        report = rp.g_derivative_bound_check()
        a = np.linspace(-1.0, 1.0, 201)[:, None]
        x = np.linspace(0.0, 2.0 * np.pi, 20_001)
        sup = 0.0
        for row in a:
            t = 1.0 + row * np.cos(x)
            inner = 1.0 + np.log(np.maximum(t, np.finfo(float).tiny))
            sup = max(sup, float(np.max(np.abs(row * np.sin(x) * inner), where=t > 0, initial=0.0)))
        assert report.sup_estimate - 1e-6 <= sup <= report.sup_estimate
        half = np.linspace(0.0, np.pi / 2.0, 20_001)
        lipschitz = float(np.max(np.sin(half) * (1.0 + np.log1p(np.cos(half)))))
        assert report.lipschitz_constant - 1e-6 <= lipschitz <= report.lipschitz_constant
        assert abs(report.lipschitz_constant - 1.2257873768428666) <= 1e-13

        def phi(t):
            return (1.0 - t) * (1.0 + math.log(t)) + 2.0 - t

        def g(t):
            return math.sqrt(t * (2.0 - t)) * (1.0 + math.log(t))

        for t, value in [(0.047371830785195676, -0.6233988411460388),
                         (1.4248028047748558, report.lipschitz_constant)]:
            assert abs(phi(t)) <= 4 * np.finfo(float).eps
            assert abs(g(t) - value) <= 1e-13


class TestEntropyEstimate:
    def test_uniform_measure(self):
        for level in (1, 3, 5):
            value = rp.entropy_dimension_estimate(rp.RieszParams(0.0, 4), 10, level)
            assert abs(value - 1.0) <= 1e-12

    def test_frozen_q4_value(self):
        value = rp.entropy_dimension_estimate(rp.RieszParams(1.0, 4), 10, 5)
        assert abs(value - 0.787552142) <= 1e-8

    def test_masses_sum_to_one(self):
        from specbound.spectrum import uniform_interval_masses
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, 3), 8)
        masses = uniform_interval_masses(spec, 3 ** 4)
        assert abs(masses.sum() - 1.0) <= 1e-10
        assert masses.min() >= -1e-10

    def test_corrupted_spectrum_raises(self):
        bad = SparseSpectrum.from_dict({0: 1.0, 1: 0.75, -1: 0.75})
        from specbound.spectrum import uniform_interval_masses
        masses = uniform_interval_masses(bad, 9)
        assert masses.min() < -1e-10  # sanity: the signed density truly dips
        with pytest.raises(NumericalError):
            rp._level_entropy(bad, 3, 2)

    def test_guards(self):
        with pytest.raises(InvalidInputError):
            rp.entropy_dimension_estimate(rp.RieszParams(1.0, 3), 2, 4)  # depth < level
        with pytest.raises(InvalidInputError):
            rp.entropy_dimension_estimate(rp.RieszParams(1.0, 3), 2, 0)
        with pytest.raises(ResourceLimitError):
            rp.entropy_dimension_estimate(rp.RieszParams(1.0, 10), 8, 7)


class TestBoundTable:
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 10, 31, 99, 100, 101, 707, 708, 999, 1000, 1001,
                                   10 ** 6, 10 ** 6 + 1])
    def test_sizes_match_lowering_loops(self, q, monkeypatch):
        # the capped sizes are the ones the lowering loops reached; where no
        # level fits the grid budget, its guard fires before any column
        seen = []
        monkeypatch.setattr(rp, "entropy_dimension_estimate",
                            lambda params, depth, level: seen.append((level, depth)) or 0.5)
        monkeypatch.setattr(rp, "peyriere_dimension",
                            lambda params, depth, m: seen.append(depth) or rp.PeyriereEstimate(0.5, True))
        if q > rp.MAX_ENTROPY_GRID:
            with pytest.raises(ResourceLimitError, match=rf"^interval masses q\*\*level = {q}, over"):
                rp.bound_table_row(rp.RieszParams(1.0, q))
            assert seen == []
            return
        rp.bound_table_row(rp.RieszParams(1.0, q))
        level, spectrum_depth, depth = lowered_table_row_sizes(q)
        assert seen == [(level, spectrum_depth), depth]

    def test_max_entropy_level(self):
        for q, level in ((4, 9), (1000, 2), (10 ** 6, 1)):
            assert rp.max_entropy_level(rp.RieszParams(1.0, q)) == level
        with pytest.raises(ResourceLimitError, match=r"^interval masses q\*\*level = 1000001, over"):
            rp.max_entropy_level(rp.RieszParams(1.0, 10 ** 6 + 1))

    def test_row_fields(self):
        row = rp.bound_table_row(rp.RieszParams(1.0, 4))
        assert row.prop4 is not None
        assert row.peyriere_converged
        assert abs(row.theorem3 - 0.5) <= 1e-12

    def test_odd_q_has_no_prop4(self):
        row = rp.bound_table_row(rp.RieszParams(1.0, 5))
        assert row.prop4 is None


def test_import_leaves_draws_unloaded():
    # the module takes its random inputs as arguments and draws none itself
    unused = [f"specbound.{m}" for m in ("draws", "gv_martingale", "verify", "cli")]
    assert loaded_after_import("riesz_products", unused) == []
