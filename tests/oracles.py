"""Reference implementations that tests compare the package against."""

import numpy as np

from specbound.kappa_bound import SLACK
from specbound.quadrature import tanh_sinh_full
from specbound.spectrum import SparseSpectrum, synthesize_on_grid


def direct_synthesis(spec, x) -> np.ndarray:
    """sum_n c_n exp(2*pi*i*n*x) at arbitrary points, term by term in one outer product."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.exp(2j * np.pi * np.outer(x, spec.frequencies)) @ spec.coefficients


def full_grid_projection_residual(seq, k):
    """Reference: the level-k projection on the whole grid.  The source
    frequencies divisible by q**(N-k) are synthesized on all q**N points and
    compared with level k tiled over the grid."""
    spec, grid = seq.source, seq.grid
    keep = np.mod(spec.frequencies, grid.q ** (grid.levels - k)) == 0
    filtered = SparseSpectrum(spec.frequencies[keep], spec.coefficients[keep])
    direct = synthesize_on_grid(filtered, grid.size).real
    level = np.tile(seq.class_values[k], grid.size // seq.class_values[k].size)
    return float(np.max(np.abs(level - direct)))


def outer_product_sibling_residual(seq):
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


def per_piece_log_integral(q):
    """Reference: the log integral of ``riesz_products.log_integral`` as one
    tanh-sinh quadrature per piece of [pi/2, q*pi/4] between the log
    singularities at pi/2 + k*pi, q/4 pieces in all."""
    lo, hi = np.pi / 2.0, q * np.pi / 4.0
    cuts = [lo]
    k = 1
    while np.pi / 2.0 + k * np.pi < hi - 1e-12:
        cuts.append(np.pi / 2.0 + k * np.pi)
        k += 1
    cuts.append(hi)

    def integrand(z):
        c = np.cos(z)
        return np.log(np.maximum(c * c, np.finfo(float).tiny)) * np.sin(2.0 * z / q)

    return sum(tanh_sinh_full(integrand, a, b).value for a, b in zip(cuts[:-1], cuts[1:]))


def lowered_table_row_sizes(q):
    """Reference: the entropy level, spectrum depth and Peyriere product depth
    of ``riesz_products.bound_table_row``, the level and the product depth each
    lowered (or raised) one step at a time until its power fits the budget; the
    entropy level starts at 5, and the spectrum depth is twice the level."""
    from specbound import riesz_products as rp

    level = 5
    while q ** level > rp.MAX_ENTROPY_GRID and level > 1:
        level -= 1
    spectrum_depth = 2 * level
    depth = 1
    while q ** (depth + 1) <= 5 * 10 ** 5 and depth < 8:
        depth += 1
    return level, spectrum_depth, depth


def brute_force_set_average(seq, growth):
    """Reference: the set-average chain on every nonempty subset C of the grid,
    one subset per row of a membership matrix.  Returns the least slack of the
    Hoelder and of the growth comparison, each with the #C of the first subset
    that has it, in the order of the set_average_check report."""
    f = seq.class_values[seq.grid.levels]
    size = f.size
    members = (np.arange(1, 2 ** size)[:, None] >> np.arange(size)) & 1
    counts = members.sum(axis=1)
    share = (counts / size) ** ((growth.p - 1.0) / growth.p)
    hoelder = growth.norm * share
    hoelder_slack = hoelder * (1.0 + SLACK) + growth.floor - members @ f / size
    growth_slack = growth.global_rhs * share * (1.0 + SLACK) + growth.floor - hoelder
    first_h, first_g = int(np.argmin(hoelder_slack)), int(np.argmin(growth_slack))
    return (float(hoelder_slack[first_h]), int(counts[first_h]),
            float(growth_slack[first_g]), int(counts[first_g]))
