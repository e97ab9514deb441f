import math

import numpy as np
import pytest

from specbound.errors import InvalidInputError, NumericalError
from specbound.quadrature import tanh_sinh_full
from specbound.spectrum import (
    SparseSpectrum,
    centered_interval_masses,
    synthesize_on_grid,
    uniform_interval_masses,
)

from oracles import direct_synthesis


class TestSparseSpectrum:
    def test_sorted_and_deduplicated(self):
        spec = SparseSpectrum.from_dict({3: 1.0, -2: 0.5j, 0: 2.0})
        assert list(spec.frequencies) == [-2, 0, 3] and len(spec) == 3
        with pytest.raises(InvalidInputError):
            SparseSpectrum(np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(AttributeError):  # two slots, no instance dict
            spec.extra = 1

    def test_unsorted_input_rejected(self):
        with pytest.raises(InvalidInputError, match="sorted"):
            SparseSpectrum(np.array([3, -2, 0, 7]), np.array([1.0, 0.5j, 2.0, -1.0]))
        # -5e18 - 5e18 wraps to a positive int64, so a difference would call this sorted
        with pytest.raises(InvalidInputError, match="sorted"):
            SparseSpectrum(np.array([5 * 10 ** 18, -5 * 10 ** 18]), np.array([1.0, 2.0]))
        spec = SparseSpectrum(np.array([-5 * 10 ** 18, 5 * 10 ** 18]), np.array([2.0, 1.0]))
        np.testing.assert_array_equal(spec.frequencies, [-5 * 10 ** 18, 5 * 10 ** 18])

    @pytest.mark.parametrize("freqs", [[-1, 1, 1, 4], [4, 1, -1, 1]])
    def test_duplicates_raise_sorted_or_not(self, freqs):
        with pytest.raises(InvalidInputError, match="duplicate"):
            SparseSpectrum(np.array(freqs), np.ones(len(freqs)))

    def test_coefficient_lookup(self):
        spec = SparseSpectrum.from_dict({5: 1.0 + 2.0j})
        assert spec.coefficient(5) == 1.0 + 2.0j
        assert spec.coefficient(4) == 0.0

    def test_conjugate_symmetry(self):
        good = SparseSpectrum.from_dict({0: 1.0, 2: 0.5 + 0.1j, -2: 0.5 - 0.1j})
        bad = SparseSpectrum.from_dict({0: 1.0, 2: 0.5 + 0.1j, -2: 0.5 + 0.1j})
        assert good.is_conjugate_symmetric()
        assert not bad.is_conjugate_symmetric()

    def test_conjugate_symmetry_unpaired_and_empty(self):
        # an absent mirror frequency pairs with coefficient 0
        assert SparseSpectrum.from_dict({3: 0.0, 0: 1.0}).is_conjugate_symmetric()
        assert not SparseSpectrum.from_dict({3: 1e-3, 0: 1.0}).is_conjugate_symmetric()
        assert SparseSpectrum.from_dict({}).is_conjugate_symmetric()

    @pytest.mark.parametrize("mapping", [
        {0: math.nan},
        {1: math.nan, -1: math.nan},
        {0: 1.0, 2: 0.5, -2: complex(0.5, math.nan)},
    ])
    def test_conjugate_symmetry_fails_closed_on_nan(self, mapping):
        assert not SparseSpectrum.from_dict(mapping).is_conjugate_symmetric()

    def test_evaluate_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        freqs = rng.choice(np.arange(-40, 41), size=15, replace=False)
        coeffs = rng.normal(size=15) + 1j * rng.normal(size=15)
        spec = SparseSpectrum.from_dict(dict(zip(freqs.tolist(), coeffs)))
        x = rng.uniform(0, 1, size=11)
        direct = sum(c * np.exp(2j * np.pi * f * x)
                     for f, c in zip(spec.frequencies, spec.coefficients))
        assert np.max(np.abs(direct_synthesis(spec, x) - direct)) <= 1e-12


class TestGridSynthesis:
    def test_matches_evaluate_below_aliasing(self):
        rng = np.random.default_rng(1)
        spec = SparseSpectrum.from_dict({0: 1.0, 3: 0.5, -3: 0.5, 7: 0.25j, -7: -0.25j})
        m = 32
        values = synthesize_on_grid(spec, m)
        direct = direct_synthesis(spec, np.arange(m) / m)
        assert np.max(np.abs(values - direct)) <= 1e-12

    def test_aliasing_wraps_frequencies(self):
        spec = SparseSpectrum.from_dict({9: 1.0})
        values = synthesize_on_grid(spec, 8)
        expected = np.exp(2j * np.pi * 1 * np.arange(8) / 8)
        assert np.max(np.abs(values - expected)) <= 1e-12


class TestIntervalMasses:
    def test_uniform_masses_by_brute_quadrature(self):
        # oracle: oversampled midpoint rule per interval
        spec = SparseSpectrum.from_dict({0: 1.0, 2: 0.3, -2: 0.3, 5: 0.1j, -5: -0.1j})
        m = 8
        masses = uniform_interval_masses(spec, m)
        fine = 4096
        x = (np.arange(m * fine) + 0.5) / (m * fine)
        density = direct_synthesis(spec, x).real
        brute = density.reshape(m, fine).mean(axis=1) / m
        assert np.max(np.abs(masses - brute)) <= 1e-8
        assert abs(masses.sum() - 1.0) <= 1e-12

    def test_centered_masses_by_brute_quadrature(self):
        spec = SparseSpectrum.from_dict({0: 1.0, 1: 0.5, -1: 0.5})
        m, radius = 6, 0.05
        masses = centered_interval_masses(spec, m, radius)
        for j in range(m):
            xs = np.linspace(j / m - radius, j / m + radius, 20001)
            brute = np.trapezoid(direct_synthesis(spec, xs).real, xs)
            assert abs(masses[j] - brute) <= 1e-8

    def test_requires_real_density(self):
        with pytest.raises(InvalidInputError):
            uniform_interval_masses(SparseSpectrum.from_dict({1: 1.0}), 4)


class TestTanhSinh:
    def test_polynomial(self):
        assert abs(tanh_sinh_full(lambda x: x ** 3, 0.0, 2.0).value - 4.0) <= 1e-12

    def test_log_endpoint_singularity(self):
        # integral of log(x) over (0, 1] = -1
        value = tanh_sinh_full(lambda x: np.log(np.maximum(x, np.finfo(float).tiny)), 0.0, 1.0).value
        assert abs(value + 1.0) <= 1e-11

    def test_both_endpoints_singular(self):
        # integral of log(x(1-x)) over (0,1) = -2
        def f(x):
            t = np.maximum(x * (1 - x), np.finfo(float).tiny)
            return np.log(t)
        assert abs(tanh_sinh_full(f, 0.0, 1.0).value + 2.0) <= 1e-11

    def test_depth_doubling_reported(self):
        result = tanh_sinh_full(np.sin, 0.0, math.pi, tol=1e-9)
        assert abs(result.value - 2.0) <= 1e-12
        # the reported depth is the first one that meets the tolerance
        assert tanh_sinh_full(np.sin, 0.0, math.pi, tol=1e-9, max_level=result.levels) == result
        with pytest.raises(NumericalError):
            tanh_sinh_full(np.sin, 0.0, math.pi, tol=1e-9, max_level=result.levels - 1)

    def test_nonconvergence_raises(self):
        with pytest.raises(NumericalError):
            tanh_sinh_full(lambda x: np.sin(1e6 * x), 0.0, 1.0, tol=1e-15, max_level=3)

    def test_empty_interval(self):
        with pytest.raises(NumericalError):
            tanh_sinh_full(np.sin, 1.0, 1.0)

    @pytest.mark.parametrize("max_level", [0, -1])
    def test_max_level_below_one_rejected_before_evaluation(self, max_level):
        # one level has nothing to compare with; the error message used to
        # read an unset delta and raise UnboundLocalError
        calls = []

        def f(x):
            calls.append(x.size)
            return np.sin(x)

        with pytest.raises(InvalidInputError):
            tanh_sinh_full(f, 0.0, math.pi, max_level=max_level)
        assert calls == []
