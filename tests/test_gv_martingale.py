import math

import numpy as np
import pytest

from oracles import full_grid_projection_residual
from specbound import gv_martingale as gv
from specbound import kappa_bound as kb
from specbound import riesz_products as rp
from specbound import verify
from specbound import zq_spectral as zq
from specbound.errors import InvalidInputError, PreconditionError, ResourceLimitError
from specbound.spectrum import SparseSpectrum


def riesz_sequence(q=3, a=1.0, depth=6):
    grid = gv.QadicGrid(q, depth)
    spec = rp.riesz_spectrum(rp.RieszParams(a, q), depth)
    return gv.martingale_levels(spec, grid), spec, grid


def random_real_spectrum(rng, grid):
    """Random conjugate-symmetric coefficients on every |l| < q**N / 2: on an
    odd-q grid its density is an arbitrary real grid function."""
    freqs = np.arange((grid.size + 1) // 2)
    coeffs = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
    coeffs[0] = coeffs[0].real
    return SparseSpectrum(np.concatenate((-freqs[:0:-1], freqs)),
                          np.concatenate((coeffs[:0:-1].conj(), coeffs)))


def sibling_differences(seq, k, cls):
    """Children of the level-(k-1) atom ``cls`` minus its value."""
    return seq.differences(k)[:, cls]


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
        seq = gv.martingale_levels(SparseSpectrum.from_dict({0: 2.5}), grid)
        for k in range(5):
            assert np.allclose(seq.class_values[k], 2.5)

    def test_single_harmonic_projects_by_exact_division(self):
        # frequency q**(N-1): survives every level k >= 1, dies at k = 0
        q, n = 3, 4
        grid = gv.QadicGrid(q, n)
        freq = q ** (n - 1)
        seq = gv.martingale_levels(SparseSpectrum.from_dict({freq: 0.5, -freq: 0.5}), grid)
        f = seq.class_values[n]
        for k in range(1, n + 1):
            assert np.max(np.abs(f.reshape(-1, q ** k) - seq.class_values[k])) <= 1e-12
        assert np.max(np.abs(seq.class_values[0])) <= 1e-12

    def test_level_zero_is_grid_mean(self):
        rng = np.random.default_rng(0)
        grid = gv.QadicGrid(4, 3)
        seq = gv.martingale_levels(random_real_spectrum(rng, grid), grid)
        assert abs(seq.class_values[0][0] - seq.class_values[grid.levels].mean()) <= 1e-12

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
        seq = gv.martingale_levels(random_real_spectrum(rng, grid), grid)
        f = seq.class_values[n]
        for k in range(n + 1):
            direct = np.empty(grid.size)
            shift = q ** k
            count = q ** (n - k)
            for j in range(grid.size):
                direct[j] = np.mean(f[(j + shift * np.arange(count)) % grid.size])
            assert np.max(np.abs(direct.reshape(-1, shift) - seq.class_values[k])) <= 1e-12


class TestSpectralProjection:
    def test_leaf_level_is_identity(self):
        seq, spec, grid = riesz_sequence(3, 1.0, 4)
        assert gv.spectral_projection_check(seq, grid.levels) <= 1e-12

    def test_root_level_keeps_only_constant(self):
        seq, spec, grid = riesz_sequence(3, 1.0, 4)
        assert gv.spectral_projection_check(seq, 0) <= 1e-12

    def test_all_levels_random_riesz(self):
        rng = np.random.default_rng(9)
        for q in (3, 4):
            params = rp.RieszParams(float(rng.uniform(-1, 1)), q)
            grid = gv.QadicGrid(q, 5)
            spec = rp.riesz_spectrum(params, 5)
            seq = gv.martingale_levels(spec, grid)
            sup = max(1.0, float(np.abs(seq.class_values[grid.levels]).max()))
            for k in range(grid.levels + 1):
                assert gv.spectral_projection_check(seq, k) <= 1e-10 * sup

    @pytest.mark.parametrize("q,depth", [(3, 6), (4, 6), (5, 6), (7, 5)])
    def test_matches_full_grid_reference(self, q, depth):
        seq, _, grid = riesz_sequence(q, 1.0, depth)
        for k in range(grid.levels + 1):
            residual = gv.spectral_projection_check(seq, k)
            assert abs(residual - full_grid_projection_residual(seq, k)) <= 1e-12
        # a source that does not match the levels gives an O(1) residual, and
        # both syntheses must report the same one
        other = gv.MartingaleSequence(grid, seq.class_values,
                                      rp.riesz_spectrum(rp.RieszParams(0.5, q), depth))
        residual = gv.spectral_projection_check(other, grid.levels)
        assert residual > 0.1
        assert abs(residual - full_grid_projection_residual(other, grid.levels)) <= 1e-12


class TestSiblingDifferences:
    def test_constant_source_gives_zero(self):
        grid = gv.QadicGrid(3, 3)
        seq = gv.martingale_levels(SparseSpectrum.from_dict({0: 1.0}), grid)
        assert np.allclose(sibling_differences(seq, 2, 2), 0.0)

    def test_zero_sum(self):
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        rng = np.random.default_rng(4)
        for _ in range(20):
            level = int(rng.integers(0, grid.levels))
            cls = int(rng.integers(0, 3 ** level))
            assert abs(sibling_differences(seq, level + 1, cls).sum()) <= 1e-12

    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_zero_sum_at_large_q(self, a):
        # each atom averages its q = 1000 children pairwise; added one strided
        # row after another, they missed the sum by 1.3e-12 (a = 1) and 1.9e-12
        # (a = 0.5) of sup f, past the suite's 1e-12.  fsum adds each exactly.
        seq, _, grid = riesz_sequence(1000, a, 2)
        sup = max(1.0, float(np.max(np.abs(seq.class_values[grid.levels]))))
        for k in range(1, grid.levels + 1):
            sums = [math.fsum(children) for children in seq.differences(k).T.tolist()]
            assert max(map(abs, sums)) <= 1e-12 * sup, k

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
            for freq, coeff in zip(spec.frequencies.tolist(), spec.coefficients.tolist()):
                if freq == 0:
                    continue
                v, d = 0, freq
                while d % q == 0:
                    d //= q
                    v += 1
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
            with pytest.raises(InvalidInputError):
                seq.differences(k)


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
        seq = gv.martingale_levels(SparseSpectrum.from_dict({0: 1.0, 1: 0.25, -1: 0.25}), grid)
        with pytest.raises(PreconditionError, match="frequency -?1"):
            gv.wb_membership_check(seq, zq.ResidueSet.of(4, [2]))


class TestLpNorm:
    """The L_p norm against the uniform grid measure is ``kb.power_mean``."""

    def test_constant(self):
        grid = gv.QadicGrid(3, 3)
        for p in (1.0, 2.0, 4.0):
            assert abs(kb.power_mean(np.ones(grid.size), p) - 1.0) <= 1e-15

    def test_point_mass(self):
        grid = gv.QadicGrid(3, 3)
        g = np.zeros(grid.size)
        g[5] = 1.0
        assert abs(kb.power_mean(g, 1.0) - 1.0 / grid.size) <= 1e-18

    def test_p2_matches_direct_sum(self):
        rng = np.random.default_rng(8)
        grid = gv.QadicGrid(4, 3)
        g = rng.normal(size=grid.size)
        direct = math.sqrt(np.sum(g * g) / grid.size)
        assert abs(kb.power_mean(g, 2.0) - direct) <= 1e-12


class TestGrowth:
    def test_constant_density_has_exponent_slack(self):
        q = 3
        grid = gv.QadicGrid(q, 4)
        seq = gv.martingale_levels(SparseSpectrum.from_dict({0: 1.0}), grid)
        report = gv.growth_check(seq, zq.ResidueSet.of(q, [1, 2]), 2.0)
        assert not report.failures
        # every level norm is 1, so the per-step slack is exp(kappa) - 1
        assert abs(report.worst_step_slack - (math.exp(report.kappa_theta) - 1.0)) <= 1e-6

    @pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
    def test_riesz_full_run(self, p):
        seq, _, _ = riesz_sequence(3, 1.0, 6)
        report = gv.growth_check(seq, zq.ResidueSet.of(3, [1, 2]), p)
        assert not report.failures, report.failures
        assert report.worst_atom_slack >= 0.0

    @pytest.mark.parametrize("q,depth", [(3, 8), (4, 6), (5, 5)])
    def test_riesz_fixtures_across_bases(self, q, depth):
        seq, _, _ = riesz_sequence(q, 1.0, depth)
        b = zq.ResidueSet.of(q, [1, q - 1])
        for p in (1.25, 2.0, 4.0):
            report = gv.growth_check(seq, b, p)
            assert not report.failures, (q, p, report.failures)

    def test_p1_is_mass_preservation(self):
        seq, _, grid = riesz_sequence(4, 1.0, 4)
        report = gv.growth_check(seq, zq.ResidueSet.of(4, [1, 3]), 1.0)
        assert not report.failures
        assert report.kappa_theta == 0.0
        norms = [kb.power_mean(seq.class_values[k], 1.0) for k in range(grid.levels + 1)]
        assert np.max(np.abs(np.diff(norms))) <= 1e-12

    def test_negative_source_rejected(self):
        # cos(2*pi*x): its spectrum lies in C_B for the full set B = {1, 2}
        grid = gv.QadicGrid(3, 3)
        seq = gv.martingale_levels(SparseSpectrum.from_dict({1: 0.5, -1: 0.5}), grid)
        with pytest.raises(PreconditionError, match="non-negative"):
            gv.growth_check(seq, zq.ResidueSet.of(3, [1, 2]), 2.0)

    def test_spectrum_outside_restriction_raises(self):
        # 1 + 0.1*cos(4*pi*x) is positive, but its frequencies +-2 are not in
        # C_B for B = {1, 4} mod 5: no growth certificate for it
        grid = gv.QadicGrid(5, 3)
        seq = gv.martingale_levels(SparseSpectrum.from_dict({0: 1.0, 2: 0.05, -2: 0.05}), grid)
        with pytest.raises(PreconditionError, match="frequency -?2 is outside"):
            gv.growth_check(seq, zq.ResidueSet.of(5, [1, 4]), 2.0)

    def test_nan_density_fails_its_check(self, monkeypatch):
        # one NaN at the finest level, averaged up to the root: every slack it
        # reaches is NaN, the report lists the failures, and the suite's
        # growth checks fail
        seq, _, grid = riesz_sequence(3, 1.0, 4)
        levels = [values.copy() for values in seq.class_values]
        levels[grid.levels][0] = math.nan
        for k in range(grid.levels - 1, -1, -1):
            levels[k] = levels[k + 1].reshape(grid.q, -1).mean(axis=0)
        corrupted = gv.MartingaleSequence(grid, levels, seq.source)
        report = gv.growth_check(corrupted, zq.ResidueSet.of(3, [1, 2]), 2.0)
        assert math.isnan(report.worst_step_slack) and math.isnan(report.global_slack)
        assert report.failures
        monkeypatch.setattr(gv, "martingale_levels", lambda spec, grid: corrupted)
        growth = [c for c in verify.martingale_suite(q=3, n=4)
                  if c.name.startswith("martingale/growth_p=")]
        assert len(growth) == 3 and not any(c.passed for c in growth)
        assert all(c.as_dict()["residual"] is None for c in growth)

    def test_nan_exponent_rejected(self):
        seq, _, _ = riesz_sequence(3, 1.0, 3)
        with pytest.raises(InvalidInputError):
            gv.growth_check(seq, zq.ResidueSet.of(3, [1, 2]), math.nan)


def growth_at(seq, p=2.0):
    return gv.growth_check(seq, zq.ResidueSet.of(seq.grid.q, [1, seq.grid.q - 1]), p)


class TestSetAverage:
    def test_full_grid_reduces_to_norm_comparison(self):
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        growth = growth_at(seq)
        report = gv.set_average_check(seq, np.arange(grid.size), growth)
        assert report.hoelder_slack >= 0 and report.growth_slack >= 0
        f = seq.class_values[grid.levels]
        assert abs(report.average - kb.power_mean(f, 1.0)) <= 1e-12
        assert abs(report.hoelder_rhs - kb.power_mean(f, 2.0)) <= 1e-12
        # the indices must be strictly increasing: repeated or unordered ones are refused
        shuffled = np.concatenate([np.arange(grid.size)[::-1], np.arange(0, grid.size, 7)])
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            gv.set_average_check(seq, shuffled, growth)
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            gv.set_average_check(seq, [0, 1, 1, 2], growth)

    def test_slacks_decide_the_outcome(self):
        # a growth report whose norm is 0 breaks the Hoelder step by the
        # average, less the floor 1e-12 * max(1, max |f|)
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        growth = growth_at(seq)
        report = gv.set_average_check(seq, np.arange(grid.size), growth)
        assert report.hoelder_slack > 0 and report.growth_slack > 0
        broken = gv.set_average_check(seq, np.arange(grid.size), growth._replace(norm=0.0))
        floor = 1e-12 * max(1.0, float(np.max(np.abs(seq.class_values[grid.levels]))))
        assert growth.floor == floor
        assert broken.growth_slack > 0
        assert broken.hoelder_slack == floor - broken.average < 0

    def test_singleton(self):
        seq, _, grid = riesz_sequence(3, 1.0, 5)
        report = gv.set_average_check(seq, [0], growth_at(seq))
        assert report.hoelder_slack >= 0 and report.growth_slack >= 0

    def test_empty_subset_rejected(self):
        seq, _, _ = riesz_sequence(3, 1.0, 3)
        with pytest.raises(PreconditionError):
            gv.set_average_check(seq, [], growth_at(seq))

    @pytest.mark.parametrize("bad", [-1, 27])
    def test_index_outside_grid_rejected(self, bad):
        seq, _, _ = riesz_sequence(3, 1.0, 3)
        with pytest.raises(InvalidInputError):
            gv.set_average_check(seq, sorted([5, bad]), growth_at(seq))

    def test_growth_report_at_p1_rejected(self):
        # a report at p = 1 is a valid growth check, but the Hoelder step needs p > 1
        seq, _, _ = riesz_sequence(3, 1.0, 3)
        growth = growth_at(seq, 1.0)
        assert not growth.failures
        with pytest.raises(PreconditionError):
            gv.set_average_check(seq, [0], growth)


class TestPlateauSandwich:
    def test_uniform_density_margins(self):
        q, n = 3, 3
        spec = SparseSpectrum.from_dict({0: 1.0})
        report = gv.phi_kernel_mass_sandwich(spec, gv.QadicGrid(q, n))
        assert report.min_lower_margin >= -1e-10 and report.min_upper_margin >= -1e-10
        # uniform: inner mass q**-n, smoothed (q+1)/2 * q**-n, outer q**(1-n)
        scale = float(q) ** (-n)
        assert abs(report.min_lower_margin - ((q + 1) / 2 - 1) * scale) <= 1e-12
        assert abs(report.min_upper_margin - (q - (q + 1) / 2) * scale) <= 1e-12

    def test_riesz_fixture(self):
        q, n = 3, 4
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, q), n)
        report = gv.phi_kernel_mass_sandwich(spec, gv.QadicGrid(q, n))
        assert report.min_lower_margin >= -1e-10
        assert report.min_upper_margin >= -1e-10

    def test_strictness_away_from_mass(self):
        # at most grid points the sandwich is strict for a non-uniform density
        q, n = 4, 3
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, q), n)
        report = gv.phi_kernel_mass_sandwich(spec, gv.QadicGrid(q, n))
        assert report.min_lower_margin >= -1e-10 and report.min_upper_margin >= -1e-10
        assert report.min_lower_margin >= 0.0  # strictly inside for this fixture
