import math

import numpy as np
import pytest

from specbound import gv_martingale as gv
from specbound import riesz_products as rp
from specbound import zq_spectral as zq
from specbound.errors import InvalidInputError, PreconditionError, ResourceLimitError
from specbound.spectrum import SparseSpectrum


def sequence_of(spec, grid):
    return gv.martingale_levels(gv.sample_on_grid(spec, grid), grid, source=spec)


def riesz_sequence(q=3, a=1.0, depth=6):
    grid = gv.QadicGrid(q, depth)
    spec = rp.riesz_spectrum(rp.RieszParams(a, q), depth)
    return sequence_of(spec, grid), spec, grid


def sibling_differences(seq, k, cls):
    """Children of the level-(k-1) atom ``cls`` minus its value."""
    return seq.sibling_matrix(k)[:, cls] - seq.class_values[k - 1][cls]


class TestGrid:
    def test_resource_guard(self):
        assert gv.QadicGrid(3, 2).size == 9
        with pytest.raises(ResourceLimitError):
            gv.QadicGrid(10, 8)


class TestSampling:
    def test_constant_spectrum(self):
        grid = gv.QadicGrid(4, 2)
        f = gv.sample_on_grid(SparseSpectrum.from_dict({0: 1.0}), grid)
        assert np.allclose(f, 1.0)

    def test_two_path_against_factor_product(self):
        params = rp.RieszParams(1.0, 3)
        grid = gv.QadicGrid(3, 3)
        spec = rp.riesz_spectrum(params, 2)
        f = gv.sample_on_grid(spec, grid)
        direct = rp.partial_product_values(params, 2, grid.size)
        assert np.max(np.abs(f - direct)) <= 1e-12 * max(1.0, direct.max())

    def test_conjugate_asymmetric_rejected(self):
        grid = gv.QadicGrid(3, 2)
        with pytest.raises(InvalidInputError):
            gv.sample_on_grid(SparseSpectrum.from_dict({0: 1.0, 1: 0.5}), grid)

    def test_aliasing_guard(self):
        grid = gv.QadicGrid(3, 2)
        big = SparseSpectrum.from_dict({0: 1.0, 5: 0.1, -5: 0.1})
        with pytest.raises(InvalidInputError):
            gv.sample_on_grid(big, grid)


class TestLevels:
    def test_constant_function(self):
        grid = gv.QadicGrid(3, 4)
        seq = gv.martingale_levels(np.full(grid.size, 2.5), grid)
        for k in range(5):
            assert np.allclose(seq.class_values[k], 2.5)

    def test_single_harmonic_projects_by_exact_division(self):
        # frequency q**(N-1): survives every level k >= 1, dies at k = 0
        q, n = 3, 4
        grid = gv.QadicGrid(q, n)
        freq = q ** (n - 1)
        spec = SparseSpectrum.from_dict({freq: 0.5, -freq: 0.5})
        f = gv.sample_on_grid(spec, grid)
        seq = gv.martingale_levels(f, grid, source=spec)
        for k in range(1, n + 1):
            assert np.max(np.abs(seq.level_on_grid(k) - f)) <= 1e-12
        assert np.max(np.abs(seq.class_values[0])) <= 1e-12

    def test_level_zero_is_grid_mean(self):
        rng = np.random.default_rng(0)
        grid = gv.QadicGrid(4, 3)
        f = rng.uniform(0, 2, size=grid.size)
        seq = gv.martingale_levels(f, grid)
        assert abs(seq.class_values[0][0] - f.mean()) <= 1e-12

    def test_parent_is_mean_of_children(self):
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        for k in range(1, grid.levels + 1):
            parents = seq.sibling_matrix(k).mean(axis=0)
            assert np.max(np.abs(parents - seq.class_values[k - 1])) <= 1e-12

    def test_matches_direct_coset_average(self):
        # oracle: the one-shot definition f_k(x) = mean of f over x + j/q**(N-k)
        rng = np.random.default_rng(1)
        q, n = 3, 4
        grid = gv.QadicGrid(q, n)
        f = rng.uniform(0, 1, size=grid.size)
        seq = gv.martingale_levels(f, grid)
        for k in range(n + 1):
            direct = np.empty(grid.size)
            shift = q ** k
            count = q ** (n - k)
            for j in range(grid.size):
                direct[j] = np.mean(f[(j + shift * np.arange(count)) % grid.size])
            assert np.max(np.abs(direct - seq.level_on_grid(k))) <= 1e-12

    def test_shape_validation(self):
        grid = gv.QadicGrid(3, 2)
        with pytest.raises(InvalidInputError):
            gv.martingale_levels(np.ones(5), grid)


class TestSpectralProjection:
    def test_leaf_level_is_identity(self):
        seq, spec, grid = riesz_sequence(3, 1.0, 4)
        assert gv.spectral_projection_check(spec, grid, grid.levels, seq=seq) <= 1e-12

    def test_root_level_keeps_only_constant(self):
        seq, spec, grid = riesz_sequence(3, 1.0, 4)
        assert gv.spectral_projection_check(spec, grid, 0, seq=seq) <= 1e-12

    def test_all_levels_random_riesz(self):
        rng = np.random.default_rng(9)
        for q in (3, 4):
            params = rp.RieszParams(float(rng.uniform(-1, 1)), q)
            grid = gv.QadicGrid(q, 5)
            spec = rp.riesz_spectrum(params, 5)
            seq = sequence_of(spec, grid)
            sup = max(1.0, float(np.abs(seq.class_values[grid.levels]).max()))
            for k in range(grid.levels + 1):
                assert gv.spectral_projection_check(spec, grid, k, seq=seq) <= 1e-10 * sup


class TestSiblingDifferences:
    def test_constant_source_gives_zero(self):
        grid = gv.QadicGrid(3, 3)
        seq = gv.martingale_levels(np.ones(grid.size), grid)
        assert np.allclose(sibling_differences(seq, 2, 2), 0.0)

    def test_zero_sum(self):
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        rng = np.random.default_rng(4)
        for _ in range(20):
            level = int(rng.integers(0, grid.levels))
            cls = int(rng.integers(0, 3 ** level))
            assert abs(sibling_differences(seq, level + 1, cls).sum()) <= 1e-12

    def test_matches_digit_filtered_synthesis(self):
        # oracle: rebuild the difference vector from the spectrum by hand, one
        # frequency at a time, for a handful of addresses
        seq, spec, grid = riesz_sequence(3, 1.0, 4)
        q, n = grid.q, grid.levels
        omega = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
        for level, cls in [(0, 0), (1, 1), (2, 7), (3, 11)]:
            k = level + 1
            x0 = cls / grid.size
            e = np.zeros(q, dtype=complex)
            for freq, coeff in spec.items():
                if freq == 0:
                    continue
                v, d = zq.q_valuation(int(freq), q)
                if v == n - k:
                    e[d % q] += coeff * np.exp(2j * np.pi * freq * x0)
            expected = (omega @ e).real
            actual = sibling_differences(seq, k, cls)
            assert np.max(np.abs(expected - actual)) <= 1e-10

    def test_leaf_address_rejected(self):
        # leaves have no children, and the root has no parent
        seq, _, grid = riesz_sequence(3, 1.0, 3)
        for k in (0, grid.levels + 1):
            with pytest.raises(InvalidInputError):
                seq.sibling_matrix(k)


class TestSubspaceMembership:
    def test_riesz_differences_live_in_wb(self):
        for q in (3, 4, 5):
            seq, _, grid = riesz_sequence(q, 1.0, 4)
            sup = float(np.abs(seq.class_values[grid.levels]).max())
            residual = gv.wb_membership_check(seq, zq.ResidueSet.of(q, [1, q - 1]))
            assert residual <= 1e-10 * max(1.0, sup)

    def test_full_set_trivial(self):
        seq, _, _ = riesz_sequence(3, 1.0, 3)
        assert gv.wb_membership_check(seq, zq.ResidueSet.of(3, [1, 2])) <= 1e-10

    def test_spectrum_outside_restriction_raises(self):
        grid = gv.QadicGrid(4, 3)
        spec = SparseSpectrum.from_dict({0: 1.0, 1: 0.25, -1: 0.25})
        seq = sequence_of(spec, grid)
        with pytest.raises(PreconditionError, match="frequency -?1"):
            gv.wb_membership_check(seq, zq.ResidueSet.of(4, [2]))


class TestLpNorm:
    def test_constant(self):
        grid = gv.QadicGrid(3, 3)
        for p in (1.0, 2.0, 4.0):
            assert abs(gv.lp_norm(np.ones(grid.size), p, grid) - 1.0) <= 1e-15

    def test_point_mass(self):
        grid = gv.QadicGrid(3, 3)
        g = np.zeros(grid.size)
        g[5] = 1.0
        assert abs(gv.lp_norm(g, 1.0, grid) - 1.0 / grid.size) <= 1e-18

    def test_p2_matches_direct_sum(self):
        rng = np.random.default_rng(8)
        grid = gv.QadicGrid(4, 3)
        g = rng.normal(size=grid.size)
        direct = math.sqrt(np.sum(g * g) / grid.size)
        assert abs(gv.lp_norm(g, 2.0, grid) - direct) <= 1e-12


class TestGrowth:
    def test_constant_density_has_exponent_slack(self):
        q = 3
        grid = gv.QadicGrid(q, 4)
        spec = SparseSpectrum.from_dict({0: 1.0}, q=q)
        seq = sequence_of(spec, grid)
        report = gv.growth_check(seq, zq.ResidueSet.of(q, [1, 2]), 2.0)
        assert report.passed
        # every level norm is 1, so the per-step slack is exp(kappa) - 1
        assert abs(report.worst_step_slack - (math.exp(report.kappa_theta) - 1.0)) <= 1e-6

    @pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
    def test_riesz_full_run(self, p):
        seq, _, _ = riesz_sequence(3, 1.0, 6)
        report = gv.growth_check(seq, zq.ResidueSet.of(3, [1, 2]), p)
        assert report.passed, report.failures
        assert report.worst_atom_slack >= 0.0

    @pytest.mark.parametrize("q,depth", [(3, 8), (4, 6), (5, 5)])
    def test_riesz_fixtures_across_bases(self, q, depth):
        seq, _, _ = riesz_sequence(q, 1.0, depth)
        b = zq.ResidueSet.of(q, [1, q - 1])
        for p in (1.25, 2.0, 4.0):
            report = gv.growth_check(seq, b, p)
            assert report.passed, (q, p, report.failures)

    def test_p1_is_mass_preservation(self):
        seq, _, grid = riesz_sequence(4, 1.0, 4)
        report = gv.growth_check(seq, zq.ResidueSet.of(4, [1, 3]), 1.0)
        assert report.passed
        assert report.kappa_theta == 0.0
        norms = [seq.level_norm(k, 1.0) for k in range(grid.levels + 1)]
        assert np.max(np.abs(np.diff(norms))) <= 1e-12

    def test_negative_source_rejected(self):
        grid = gv.QadicGrid(3, 3)
        seq = gv.martingale_levels(np.linspace(-1, 1, grid.size), grid)
        with pytest.raises(PreconditionError):
            gv.growth_check(seq, zq.ResidueSet.of(3, [1, 2]), 2.0)

    def test_nan_exponent_rejected(self):
        seq, _, grid = riesz_sequence(3, 1.0, 3)
        with pytest.raises(InvalidInputError):
            gv.growth_check(seq, zq.ResidueSet.of(3, [1, 2]), math.nan)
        with pytest.raises(InvalidInputError):
            gv.lp_norm(np.ones(grid.size), math.nan, grid)


class TestSetAverage:
    def test_full_grid_reduces_to_norm_comparison(self):
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        report = gv.set_average_check(seq, np.arange(grid.size), 2.0,
                                      zq.ResidueSet.of(3, [1, 2]))
        assert report.passed
        f = seq.level_on_grid(grid.levels)
        assert abs(report.average - gv.lp_norm(f, 1.0, grid)) <= 1e-12
        assert abs(report.hoelder_rhs - gv.lp_norm(f, 2.0, grid)) <= 1e-12
        # repeated and unordered indices name the same subset
        shuffled = np.concatenate([np.arange(grid.size)[::-1], np.arange(0, grid.size, 7)])
        assert gv.set_average_check(seq, shuffled, 2.0, zq.ResidueSet.of(3, [1, 2])) == report

    def test_singleton(self):
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        report = gv.set_average_check(seq, [0], 2.0, zq.ResidueSet.of(3, [1, 2]))
        assert report.passed

    def test_empty_subset_rejected(self):
        seq, _, _ = riesz_sequence(3, 1.0, 3)
        with pytest.raises(PreconditionError):
            gv.set_average_check(seq, [], 2.0, zq.ResidueSet.of(3, [1, 2]))

    @pytest.mark.parametrize("bad", [-1, 27])
    def test_index_outside_grid_rejected(self, bad):
        seq, _, _ = riesz_sequence(3, 1.0, 3)
        with pytest.raises(InvalidInputError):
            gv.set_average_check(seq, [5, bad, 5], 2.0, zq.ResidueSet.of(3, [1, 2]))


class TestPlateauSandwich:
    def test_uniform_density_margins(self):
        q, n = 3, 3
        spec = SparseSpectrum.from_dict({0: 1.0}, q=q)
        report = gv.phi_kernel_mass_sandwich(spec, n)
        assert report.passed
        # uniform: inner mass q**-n, smoothed (q+1)/2 * q**-n, outer q**(1-n)
        scale = float(q) ** (-n)
        assert abs(report.min_lower_margin - ((q + 1) / 2 - 1) * scale) <= 1e-12
        assert abs(report.min_upper_margin - (q - (q + 1) / 2) * scale) <= 1e-12

    def test_riesz_fixture(self):
        q, n = 3, 4
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, q), n)
        report = gv.phi_kernel_mass_sandwich(spec, n)
        assert report.passed
        assert report.min_lower_margin >= -1e-10
        assert report.min_upper_margin >= -1e-10

    def test_strictness_away_from_mass(self):
        # at most grid points the sandwich is strict for a non-uniform density
        q, n = 4, 3
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, q), n)
        report = gv.phi_kernel_mass_sandwich(spec, n)
        assert report.passed
        assert report.min_lower_margin >= 0.0  # strictly inside for this fixture
