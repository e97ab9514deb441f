"""Backwards martingale of a trigonometric density on the q**N-point grid.

The grid {j/q**N} carries a q-regular tree: the level-k atoms are the residue
classes j mod q**k, and the level-k function f_k averages f over the coset
x + (1/q**(N-k))Z.  Averaging one level at a time (a reshape-and-mean over the
class arrays) reproduces the direct coset average exactly, in O(N * q**N)
instead of O(q**(2N)).  Every check below reads the spectrum that the levels
were built from, and verifies, with explicit residuals, that

  * level k and its sibling differences are the q**k-point synthesis of the
    source frequencies divisible by q**(N-k), each divided by q**(N-k) (the
    differences keep the quotients that q does not divide),
  * every sibling-difference vector is a zero-sum vector lying in the
    admissible subspace of the residue set carrying the source spectrum,
  * the single-step and global L_p growth inequalities hold with the
    vertex-certified exponent,
  * set averages obey the Hoelder chain with explicit constants, and
  * the plateau-kernel smoothing is sandwiched between exact interval masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, PreconditionError, check_budget, shown
from .kappa_bound import SLACK, FeasiblePolytope, kappa, power_mean
from .spectrum import SparseSpectrum, centered_interval_masses, synthesize_on_grid
from .zq_spectral import ResidueSet, in_cb, wb_basis

MAX_GRID = 10 ** 7


@dataclass(frozen=True)
class QadicGrid:
    """The uniform grid j/q**N, addressed by exact integer indices."""

    q: int
    levels: int  # N

    def __post_init__(self):
        if self.q < 3:
            raise InvalidInputError(f"base must be >= 3, got {shown(self.q)}")
        if self.levels < 1:
            raise InvalidInputError(f"need at least one level, got {shown(self.levels)}")
        check_budget("grid points q**N", self.q, MAX_GRID, self.levels)

    @property
    def size(self) -> int:
        return self.q ** self.levels


def sample_on_grid(spec: SparseSpectrum, grid: QadicGrid) -> np.ndarray:
    """Evaluate the density at every grid point; real output, exact phases.

    The spectrum must be conjugate-symmetric (real density) and must fit below
    the aliasing threshold q**N / 2 so grid sampling is injective on it.
    """
    if not spec.is_conjugate_symmetric():
        raise InvalidInputError("spectrum is not conjugate-symmetric; density would be complex")
    if 2 * spec.max_abs_frequency >= grid.size:
        raise InvalidInputError(
            f"max |frequency| {spec.max_abs_frequency} >= q**N/2 = {grid.size / 2}: aliasing"
        )
    values = synthesize_on_grid(spec, grid.size)
    scale = max(1.0, float(np.max(np.abs(values))))
    if float(np.max(np.abs(values.imag))) > 1e-12 * scale:
        raise InvalidInputError("synthesis produced a non-real density")
    return values.real


@dataclass
class MartingaleSequence:
    """All levels f_0..f_N of the density with spectrum ``source``, one value per tree atom.

    ``class_values[k]`` has length q**k; entry c is the constant value of f_k
    on the atom {j : j = c mod q**k}.  The spectral checks read ``source``, the
    spectrum that :func:`martingale_levels` sampled as ``class_values[N]``.
    """

    grid: QadicGrid
    class_values: list[np.ndarray]
    source: SparseSpectrum

    def sibling_matrix(self, k: int) -> np.ndarray:
        """Children of all level-(k-1) atoms: shape (q, q**(k-1)); row i holds child i."""
        if not 1 <= k <= self.grid.levels:
            raise InvalidInputError(f"level {k} outside 1..{self.grid.levels}")
        return self.class_values[k].reshape(self.grid.q, -1)

    def differences(self, k: int) -> np.ndarray:
        """Sibling differences: each child of a level-(k-1) atom minus the atom's value."""
        return self.sibling_matrix(k) - self.class_values[k - 1][None, :]


def martingale_levels(spec: SparseSpectrum, grid: QadicGrid) -> MartingaleSequence:
    """Sample the density of ``spec`` on ``grid`` as f_N (see :func:`sample_on_grid`)
    and build the coarser levels by repeated q-fold coset averaging.

    One step is f_k(x) = (1/q) * sum_i f_{k+1}(x + i/q**(N-k)), i.e. class c of
    level k averages the level-(k+1) classes c + i*q**k; associativity of the
    subgroup-tower averages makes the composition equal the direct definition.
    """
    levels = [None] * (grid.levels + 1)
    # a contiguous copy of the real part frees the complex synthesis
    levels[grid.levels] = np.ascontiguousarray(sample_on_grid(spec, grid))
    for k in range(grid.levels - 1, -1, -1):
        # each atom's q children as one contiguous row, which numpy sums
        # pairwise; a mean over axis 0 adds q strided rows one after another,
        # and its round-off grows with q
        levels[k] = np.ascontiguousarray(levels[k + 1].reshape(grid.q, -1).T).mean(axis=1)
    return MartingaleSequence(grid, levels, spec)


def _cofactors(seq: MartingaleSequence, k: int) -> SparseSpectrum:
    """Level k's cofactors d = l / q**(N-k) of the source frequencies l that
    q**(N-k) divides, with their coefficients: exp(2*pi*i*l*c/q**N) =
    exp(2*pi*i*d*c/q**k), so class c is their q**k-point synthesis at c."""
    spec, grid = seq.source, seq.grid
    if not 0 <= k <= grid.levels:
        raise InvalidInputError(f"level {k} outside 0..{grid.levels}")
    step = grid.q ** (grid.levels - k)
    exact = np.mod(spec.frequencies, step) == 0
    return SparseSpectrum(spec.frequencies[exact] // step, spec.coefficients[exact])


def spectral_projection_check(seq: MartingaleSequence, k: int) -> float:
    """Max deviation of the averaged level k of ``seq`` from direct Fourier
    synthesis of its source's frequencies divisible by q**(N-k), taken on the
    q**k classes.  Small residual validates both paths."""
    direct = synthesize_on_grid(_cofactors(seq, k), seq.grid.q ** k).real
    return float(np.max(np.abs(seq.class_values[k] - direct)))


def sibling_synthesis_check(seq: MartingaleSequence) -> float:
    """Rebuild every sibling-difference vector from the spectrum alone.

    At level k the difference vector over the children of parent class c is
    sum_{m=1}^{q-1} e_m(c) * omega_m with
    e_m(c) = sum over frequencies l = d * q**(N-k), d = m (mod q), q not | d,
    of c_l * exp(2*pi*i*l*c/q**N) = c_l * exp(2*pi*i*d*c/q**k); the
    reconstruction must match the averaged levels pointwise.  Since
    omega_m[j] = exp(2*pi*i*j*m/q) and d = m (mod q), entry j of the
    synthesized vector is sum_d c_l * exp(2*pi*i*d*(c + j*q**(k-1))/q**k): the
    length-q**k inverse DFT of the coefficients binned by d mod q**k, read at
    c + j*q**(k-1).  Memory is O(q**k), at most the grid size.
    """
    q = seq.grid.q
    worst = 0.0
    for k in range(1, seq.grid.levels + 1):
        d = _cofactors(seq, k)
        keep = np.mod(d.frequencies, q) != 0
        synthesized = synthesize_on_grid(SparseSpectrum(d.frequencies[keep], d.coefficients[keep]),
                                         q ** k).real.reshape(q, -1)
        worst = max(worst, float(np.max(np.abs(synthesized - seq.differences(k)))))
    return worst


def _require_spectrum_in_cb(spec: SparseSpectrum, b: ResidueSet) -> None:
    outside = spec.frequencies[~in_cb(spec.frequencies, b)]
    if outside.size:
        raise PreconditionError(
            f"frequency {outside[0]} is outside the restricted set for B={sorted(b.members)} mod {b.q}"
        )


def wb_membership_check(seq: MartingaleSequence, b: ResidueSet) -> float:
    """Largest norm, over every atom at every level, of the sibling-difference
    component orthogonal to the admissible subspace of ``b``.

    Requires the source spectrum to lie in the restricted set (raises
    :class:`PreconditionError` naming the first offending frequency otherwise).
    """
    _require_spectrum_in_cb(seq.source, b)
    basis = wb_basis(b)
    worst = 0.0
    for k in range(1, seq.grid.levels + 1):
        residual = basis.project_off(seq.differences(k))
        worst = max(worst, float(np.max(np.sqrt(np.sum(residual ** 2, axis=0)))))
    return worst


class GrowthReport(NamedTuple):
    p: float
    kappa_theta: float       # growth exponent at 1/p
    norm: float              # ||f_N||_p
    global_rhs: float        # q * e**(kappa*N) * total mass, the bound on ||f_N||_p
    worst_step_slack: float  # min over k of rhs - lhs for the level norms
    worst_atom_slack: float  # min over atoms/levels of the localized inequality slack
    global_slack: float      # q * exp(kappa*N) * mass - ||f||_p
    floor: float             # 1e-12 * max(1, max |f_N|), each comparison's absolute allowance
    failures: tuple[str, ...]


def growth_check(seq: MartingaleSequence, b: ResidueSet, p: float) -> GrowthReport:
    """Verify the L_p growth inequalities level by level and atom by atom.

    (i) per step:  ||f_k||_p <= e**kappa(1/p) * ||f_{k-1}||_p,
    (ii) per atom: the same inequality restricted to each parent atom's children,
    (iii) global:  ||f_N||_p <= q * e**(kappa(1/p)*N) * total mass.
    All comparisons allow multiplicative ``SLACK`` plus a tiny absolute floor.
    This chain is the engine of the dimension bound; a failure means a bug, not
    an unlucky input.  A NaN slack propagates to the minima and is listed in
    ``failures``.  :func:`set_average_check` reads its ``norm``, ``global_rhs`` and ``floor``.
    A spectrum outside the restricted set of ``b``, or a negative density: :class:`PreconditionError`.
    """
    if not p >= 1.0:
        raise InvalidInputError(f"p must be >= 1, got {p}")
    _require_spectrum_in_cb(seq.source, b)
    q, n = seq.grid.q, seq.grid.levels
    if float(seq.class_values[n].min()) < -1e-10:
        raise PreconditionError("source density must be non-negative")
    kappa_theta = kappa(1.0 / p, FeasiblePolytope.from_residues(b))
    step_factor = math.exp(kappa_theta)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(seq.class_values[n]))))
    failures: list[str] = []
    # every atom of a level carries the same grid weight
    norms = [float(power_mean(values, p)) for values in seq.class_values]

    step_slacks = []
    atom_slacks = []
    for k in range(1, n + 1):
        lhs = norms[k]
        rhs = step_factor * norms[k - 1]
        step_slacks.append(rhs * (1.0 + SLACK) + floor - lhs)
        if not step_slacks[-1] >= 0:
            failures.append(f"step k={k}: ||f_k||_p={lhs:.12g} > e^kappa*||f_(k-1)||_p={rhs:.12g}")
        local_lhs = power_mean(seq.sibling_matrix(k), p)
        local_rhs = step_factor * np.abs(seq.class_values[k - 1])
        slacks = local_rhs * (1.0 + SLACK) + floor - local_lhs
        atom_slacks.append(slacks.min())
        bad = np.flatnonzero(~(slacks >= 0))
        for c in bad[:5]:
            failures.append(f"atom level={k - 1} class={int(c)}: localized growth violated")

    global_rhs = q * math.exp(kappa_theta * n) * float(seq.class_values[0][0])
    global_lhs = norms[n]
    global_slack = global_rhs * (1.0 + SLACK) + floor - global_lhs
    if not global_slack >= 0:
        failures.append(f"global: ||f||_p={global_lhs:.12g} > q*e^(kappa*N)*mass={global_rhs:.12g}")

    return GrowthReport(
        p=p,
        kappa_theta=kappa_theta,
        norm=global_lhs,
        global_rhs=global_rhs,
        worst_step_slack=float(np.min(step_slacks)),
        worst_atom_slack=float(np.min(atom_slacks)),
        global_slack=global_slack,
        floor=floor,
        failures=tuple(failures),
    )


class SetAverageReport(NamedTuple):
    hoelder_slack: float  # least over k of ||f||_p * share(k) * (1 + SLACK) + floor - average(k)
    hoelder_size: int     # the k where hoelder_slack sits
    growth_slack: float   # least over k of (global bound * (1 + SLACK) - ||f||_p) * share(k) + floor
    growth_size: int      # the k where growth_slack sits


def set_average_check(seq: MartingaleSequence, growth: GrowthReport) -> SetAverageReport:
    """Explicit-constant chain bounding the average of f over every grid subset C.

    (1/q**N) * sum_{x in C} f(x) <= ||f||_p * (#C * q**-N)**((p-1)/p)
                                 <= q * e**(kappa(1/p)*N) * mass * (#C * q**-N)**((p-1)/p).
    Both right sides depend on C only through k = #C, through share(k) =
    (k * q**-N)**((p-1)/p), and the k largest values of f give the largest left
    side, so one descending sort checks every subset: its prefix sums over q**N
    are the largest average(k) at each size k = 1..q**N.  ``growth``,
    :func:`growth_check`'s report at p, gives ||f||_p, the global bound and the
    floor.  Both comparisons allow ``SLACK`` and that floor; the report carries
    each one's least signed slack over k (a NaN first) and the size where it
    sits.  At most three grid-sized arrays are alive at once.
    """
    if growth.p <= 1.0:
        raise PreconditionError(f"the chain needs p > 1, got {growth.p}")
    size = seq.grid.size
    average = np.cumsum(np.sort(seq.class_values[seq.grid.levels])[::-1])
    average /= size
    share = np.arange(1, size + 1, dtype=float)
    share /= size
    share **= (growth.p - 1.0) / growth.p
    hoelder = share * (growth.norm * (1.0 + SLACK))
    hoelder += growth.floor
    hoelder -= average
    k_hoelder = int(np.argmin(hoelder))
    bound = share
    bound *= growth.global_rhs * (1.0 + SLACK) - growth.norm
    bound += growth.floor
    k_bound = int(np.argmin(bound))
    return SetAverageReport(float(hoelder[k_hoelder]), k_hoelder + 1, float(bound[k_bound]), k_bound + 1)


class SandwichReport(NamedTuple):
    min_lower_margin: float  # min over x of smoothed - inner interval mass
    min_upper_margin: float  # min over x of outer interval mass - smoothed
    worst_point: int


def _plateau_kernel_transform(q: int, n: int, freqs: np.ndarray) -> np.ndarray:
    """Fourier transform of the trapezoid kernel: height q**n on [-1/(2q**n),
    1/(2q**n)], linear decay to 0 at +-1/(2q**(n-1))."""
    height = float(q) ** n
    a = 0.5 / q ** n
    b = 0.5 / q ** (n - 1)
    omega = 2.0 * np.pi * freqs.astype(float)
    out = np.empty(freqs.shape, dtype=float)
    zero = freqs == 0
    out[zero] = height * (a + b)
    nz = ~zero
    out[nz] = 2.0 * height * (np.cos(omega[nz] * a) - np.cos(omega[nz] * b)) / (
        omega[nz] ** 2 * (b - a)
    )
    return out


def phi_kernel_mass_sandwich(spec: SparseSpectrum, grid: QadicGrid) -> SandwichReport:
    """Sandwich the plateau-kernel smoothing between exact interval masses.

    At every point x = j/q**n of ``grid`` (n = ``grid.levels``) the convolved
    value scaled by q**-n must sit between the mass of the inner interval
    [x - 1/(2q**n), x + 1/(2q**n)] and the mass of the outer interval of
    radius 1/(2q**(n-1)).  Everything is computed in closed form from the
    spectrum, so a least margin below -1e-10 is a real failure.
    """
    q, n = grid.q, grid.levels
    density = sample_on_grid(spec, grid)
    if density.min() < -1e-10:
        raise PreconditionError("sandwich check needs a non-negative density")
    m = grid.size
    inner = centered_interval_masses(spec, m, 0.5 / q ** n)
    outer = centered_interval_masses(spec, m, 0.5 / q ** (n - 1))
    kernel_hat = _plateau_kernel_transform(q, n, spec.frequencies)
    smoothed_spec = SparseSpectrum(spec.frequencies, spec.coefficients * kernel_hat)
    smoothed = synthesize_on_grid(smoothed_spec, m).real / q ** n
    lower_margin = smoothed - inner
    upper_margin = outer - smoothed
    worst = int(np.argmin(np.minimum(lower_margin, upper_margin)))
    return SandwichReport(float(lower_margin.min()), float(upper_margin.min()), worst)
