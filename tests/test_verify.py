import os
import subprocess
import sys

import numpy as np
import pytest

import specbound
from specbound import gv_martingale as gv
from specbound import riesz_products as rp
from specbound import verify
from specbound import zq_spectral as zq


class TestSymmetricEnumeration:
    def test_counts(self):
        # reflection orbits: floor((q-1)/2) pairs plus a fixed point for even q
        assert len(list(verify.symmetric_residue_sets(3))) == 1
        assert len(list(verify.symmetric_residue_sets(4))) == 3
        assert len(list(verify.symmetric_residue_sets(10))) == 31
        assert len(list(verify.symmetric_residue_sets(4, nonempty=False))) == 4

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

    def test_riesz_suite_passes(self):
        checks = verify.riesz_identity_suite(q_max=8)
        assert checks and all(c.passed for c in checks)

    def test_martingale_suite_passes(self):
        checks = verify.martingale_suite(q=4, a=1.0, depth=4, n_subsets=15)
        assert checks and all(c.passed for c in checks)

    def test_martingale_suite_seeded(self):
        one = verify.martingale_suite(q=3, a=0.8, depth=4, seed=42, n_subsets=10)
        two = verify.martingale_suite(q=3, a=0.8, depth=4, seed=42, n_subsets=10)
        assert [c.as_dict() for c in one] == [c.as_dict() for c in two]

    def test_check_names_are_namespaced(self):
        for c in verify.kappa_suite(q_max=5):
            assert c.name.startswith("kappa/")


class TestCollapse:
    def test_worst_picks_largest(self):
        result = verify._worst("x", [(0.1, "a"), (0.9, "b"), (0.3, "c")], 1.0)
        assert result.passed and result.residual == 0.9 and result.detail == "b"

    def test_worst_smallest_mode(self):
        result = verify._worst("x", [(0.2, "a"), (-0.1, "b")], 0.0,
                               larger_is_worse=False)
        assert not result.passed and result.detail == "b"

    def test_empty_entries_pass(self):
        assert verify._worst("x", [], 1.0).passed


class TestCounterexampleCheck:
    def test_documenting_detail(self):
        check = verify._counterexample_check(4, 1)
        assert check.passed
        assert "non-negativity" in check.detail

    def test_other_modulus(self):
        assert verify._counterexample_check(5, 2).passed


def outer_product_dftlemma_residual(seq):
    """Reference: the sibling synthesis with a (frequencies x classes) phase matrix."""
    spec, grid = seq.source, seq.grid
    q, size = grid.q, grid.size
    freqs, coeffs = spec.frequencies, spec.coefficients
    worst = 0.0
    omega = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
    for k in range(1, grid.levels + 1):
        step = q ** (grid.levels - k)
        exact = (np.mod(freqs, step) == 0) & (np.mod(freqs // step, q) != 0)
        classes = np.arange(q ** (k - 1), dtype=np.int64)
        e = np.zeros((q, classes.size), dtype=complex)
        f_ex, c_ex = freqs[exact], coeffs[exact]
        digits = np.mod(f_ex // step, q)
        phases = np.exp(2j * np.pi * np.mod(np.outer(f_ex, classes), size) / size)
        for m in range(1, q):
            e[m] = c_ex[digits == m] @ phases[digits == m]
        actual = seq.sibling_matrix(k) - seq.class_values[k - 1][None, :]
        worst = max(worst, float(np.max(np.abs((omega @ e).real - actual))))
    return worst


class TestDftLemmaResidual:
    @pytest.mark.parametrize("q,depth", [(3, 6), (4, 6), (5, 6), (7, 5)])
    def test_matches_outer_product_reference(self, q, depth):
        grid = gv.QadicGrid(q, depth)
        spec = rp.riesz_spectrum(rp.RieszParams(1.0, q), depth)
        f = gv.sample_on_grid(spec, grid)
        seq = gv.martingale_levels(f, grid, source=spec)
        assert abs(verify._dftlemma_residual(seq) - outer_product_dftlemma_residual(seq)) <= 1e-12
        # a source that does not match the levels gives an O(1) residual, and
        # both syntheses must report the same one
        other = gv.martingale_levels(f, grid, source=rp.riesz_spectrum(rp.RieszParams(0.5, q), depth))
        residual = verify._dftlemma_residual(other)
        assert residual > 0.1
        assert abs(residual - outer_product_dftlemma_residual(other)) <= 1e-12


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps address space as intended only on Linux")
@pytest.mark.parametrize("q,depth", [(3, 10), (100, 3)])
def test_martingale_suite_fits_in_1gb(q, depth):
    # the sibling synthesis must stay O(grid size): a (frequencies x classes)
    # phase matrix needs ~12 GB at (3, 10), a (q, q**k) bin array 1.6 GB at (100, 3)
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    src = os.path.dirname(os.path.dirname(specbound.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "specbound", "verify", "--suite", "martingale",
         "--q", str(q), "--n", str(depth)],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
