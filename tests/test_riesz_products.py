import math

import numpy as np
import pytest

from specbound import kappa_bound as kb
from specbound import riesz_products as rp
from specbound import zq_spectral as zq
from specbound.errors import InvalidInputError, NumericalError, ResourceLimitError
from specbound.quadrature import tanh_sinh_full
from specbound.spectrum import SparseSpectrum

LOG2 = math.log(2.0)

# frozen quadrature oracle values (adaptive reference integrator, abs err < 1e-12)
LOG_INTEGRAL_REFERENCE = {
    4: -1.735821675618,
    6: -3.423923508494,
    8: -4.982356508908,
    16: -10.803322608538,
    32: -22.036488679694,
}


class TestRieszSpectrum:
    def test_zero_amplitude(self):
        spec = rp.riesz_spectrum(rp.RieszParams(0.0, 3), 5)
        assert dict(spec.items()) == {0: 1.0}

    def test_depth_one(self):
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, 3), 1)
        assert dict(spec.items()) == {-1: 0.5, 0: 1.0, 1: 0.5}

    def test_depth_two(self):
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, 3), 2)
        assert sorted(n for n, _ in spec.items()) == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
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
            assert all(zq.in_cb(int(n), b) for n, _ in spec.items())

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
            synthesized = spec.evaluate(x)
            assert np.max(np.abs(synthesized.imag)) <= 1e-10
            assert np.max(np.abs(synthesized.real - direct)) <= 1e-10
        # and on the unit grid via the dedicated evaluator
        params = rp.RieszParams(1.0, 3)
        spec = rp.riesz_spectrum(params, 4)
        grid_vals = rp.partial_product_values(params, 4, 243)
        synth = spec.evaluate(np.arange(243) / 243).real
        assert np.max(np.abs(grid_vals - synth)) <= 1e-10

    def test_nonnegative(self):
        values = rp.partial_product_values(rp.RieszParams(1.0, 4), 6, 4096)
        assert values.min() >= -1e-12


class TestClosedForms:
    def test_theorem3_small_q(self):
        assert abs(rp.bound_theorem3(3)) <= 1e-12
        assert abs(rp.bound_theorem3(4) - 0.5) <= 1e-12

    def test_kappa_prime_riesz_values(self):
        assert abs(rp.kappa_prime_riesz(3) + math.log(3)) <= 1e-12
        assert abs(rp.kappa_prime_riesz(4) + LOG2) <= 1e-12

    def test_matches_vertex_enumeration(self):
        for q in (5, 6, 9, 12):
            p = kb.FeasiblePolytope.from_residues(zq.ResidueSet.of(q, [1, q - 1]))
            assert abs(rp.kappa_prime_riesz(q) - kb.kappa_prime_1(p).value) <= 1e-9

    def test_entropy_objective_at_endpoint_matches_profile_sum(self):
        for q in range(3, 10):
            endpoint = rp.entropy_objective(q, math.pi / q)
            assert abs(endpoint + q * rp.kappa_prime_riesz(q)) <= 1e-9

    def test_endpoint_optimality(self):
        for q in range(3, 13):
            assert rp.endpoint_optimality_gap(q) <= 1e-9

    def test_entropy_objective_matches_scalar_loop(self):
        def scalar_objective(q, phi):
            j = np.arange(q)
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
        for q in (4, 8, 12, 16, 32):
            assert rp.chebyshev_product_relerr(q, seed=0) <= 1e-9

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


class TestPeyriere:
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
        assert result.estimate >= rp.bound_theorem3(4) - 0.02

    def test_grid_alignment_required(self):
        with pytest.raises(InvalidInputError):
            rp.peyriere_dimension(rp.RieszParams(1.0, 3), 4, 100)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            rp.peyriere_dimension(rp.RieszParams(1.0, 3), 16, 3 ** 16)


class TestDerivativeBounds:
    def test_report(self):
        report = rp.g_derivative_bound_check()
        assert report.passed
        assert report.sup_estimate <= 2.0
        assert 1.2 <= report.lipschitz_constant <= 1.25
        assert abs(report.lipschitz_constant - 1.2257873768) <= 1e-6
        # the global sup is attained on the |a| = 1 slice
        assert abs(report.sup_estimate - report.lipschitz_constant) <= 1e-9

    @pytest.mark.parametrize("x_points", [100_000, 4097, 5, 1])
    def test_matches_per_amplitude_loop(self, x_points):
        x = np.linspace(0.0, 2.0 * np.pi, x_points)
        sup = 0.0
        for a in np.linspace(-1.0, 1.0, 21):
            t = 1.0 + a * np.cos(x)
            inner = np.where(t > 0, 1.0 + np.log(np.maximum(t, np.finfo(float).tiny)), 0.0)
            deriv = np.where(t > 0, -a * np.sin(x) * inner, 0.0)
            sup = max(sup, float(np.max(np.abs(deriv))))
        assert rp.g_derivative_bound_check(x_points).sup_estimate == sup


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
        bad = SparseSpectrum.from_dict({0: 1.0, 1: 0.75, -1: 0.75}, q=3)
        from specbound.spectrum import uniform_interval_masses
        masses = uniform_interval_masses(bad, 9)
        assert masses.min() < -1e-10  # sanity: the signed density truly dips
        with pytest.raises(NumericalError):
            rp._level_entropy(bad, 3, 2)

    def test_guards(self):
        with pytest.raises(InvalidInputError):
            rp.entropy_dimension_estimate(rp.RieszParams(1.0, 3), 2, 4)  # depth < level
        with pytest.raises(ResourceLimitError):
            rp.entropy_dimension_estimate(rp.RieszParams(1.0, 10), 8, 7)


class TestBoundTable:
    def test_row_fields(self):
        row = rp.bound_table_row(rp.RieszParams(1.0, 4), entropy_level=3)
        assert row.prop4 is not None
        assert row.peyriere_converged
        assert abs(row.theorem3 - 0.5) <= 1e-12

    def test_odd_q_has_no_prop4(self):
        row = rp.bound_table_row(rp.RieszParams(1.0, 5), entropy_level=2)
        assert row.prop4 is None
