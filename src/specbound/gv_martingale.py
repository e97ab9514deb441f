"""Backwards martingale of a trigonometric density on the q**N-point grid.

The grid {j/q**N} carries a q-regular tree: the level-k atoms are the residue
classes j mod q**k, and the level-k function f_k averages f over the coset
x + (1/q**(N-k))Z.  Averaging one level at a time (a reshape-and-mean over the
class arrays) reproduces the direct coset average exactly, in O(N * q**N)
instead of O(q**(2N)).  The checks in this module verify, with explicit
residuals, that

  * each level equals the Fourier projection onto frequencies divisible by
    q**(N-k),
  * every sibling-difference vector is a zero-sum vector lying in the
    admissible subspace of the residue set carrying the source spectrum,
  * the single-step and global L_p growth inequalities hold with the
    vertex-certified exponent,
  * set averages obey the Hoelder chain with explicit constants, and
  * the plateau-kernel smoothing is sandwiched between exact interval masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, PreconditionError, ResourceLimitError
from .kappa_bound import FeasiblePolytope, kappa, power_mean
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
            raise InvalidInputError(f"base must be >= 3, got {self.q}")
        if self.levels < 1:
            raise InvalidInputError(f"need at least one level, got {self.levels}")
        if self.size > MAX_GRID:
            raise ResourceLimitError(f"grid size q**N = {self.size} exceeds {MAX_GRID:.0e}")

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
    """All levels f_0..f_N, stored as one value per tree atom.

    ``class_values[k]`` has length q**k; entry c is the constant value of f_k
    on the atom {j : j = c mod q**k}.  ``class_values[N]`` is the source grid
    function itself.
    """

    grid: QadicGrid
    class_values: list[np.ndarray]
    source: SparseSpectrum | None = None
    _norm_cache: dict[tuple[int, float], float] = field(default_factory=dict, repr=False)

    @property
    def levels(self) -> int:
        return self.grid.levels

    def level_on_grid(self, k: int) -> np.ndarray:
        reps = self.grid.size // self.class_values[k].size
        return np.tile(self.class_values[k], reps)

    def sibling_matrix(self, k: int) -> np.ndarray:
        """Children of all level-(k-1) atoms: shape (q, q**(k-1)); row i holds child i."""
        if not 1 <= k <= self.levels:
            raise InvalidInputError(f"level {k} outside 1..{self.levels}")
        return self.class_values[k].reshape(self.grid.q, -1)

    def level_norm(self, k: int, p: float) -> float:
        key = (k, p)
        if key not in self._norm_cache:
            # every atom of level k carries the same grid weight
            self._norm_cache[key] = float(power_mean(self.class_values[k], p))
        return self._norm_cache[key]


def martingale_levels(f: np.ndarray, grid: QadicGrid,
                      source: SparseSpectrum | None = None) -> MartingaleSequence:
    """Build f_N = f and the coarser levels by repeated q-fold coset averaging.

    One step is f_k(x) = (1/q) * sum_i f_{k+1}(x + i/q**(N-k)), i.e. class c of
    level k averages the level-(k+1) classes c + i*q**k; associativity of the
    subgroup-tower averages makes the composition equal the direct definition.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.size,):
        raise InvalidInputError(f"expected a grid function of length {grid.size}")
    levels = [None] * (grid.levels + 1)
    levels[grid.levels] = f.copy()
    for k in range(grid.levels - 1, -1, -1):
        levels[k] = levels[k + 1].reshape(grid.q, -1).mean(axis=0)
    return MartingaleSequence(grid=grid, class_values=levels, source=source)


def spectral_projection_check(spec: SparseSpectrum, grid: QadicGrid, k: int,
                              seq: MartingaleSequence) -> float:
    """Max deviation of the averaged level k of ``seq`` (built from ``spec`` on
    ``grid``) from direct Fourier synthesis of the frequencies divisible by
    q**(N-k).  Small residual validates both paths."""
    if not 0 <= k <= grid.levels:
        raise InvalidInputError(f"level {k} outside 0..{grid.levels}")
    divisor = grid.q ** (grid.levels - k)
    keep = np.mod(spec.frequencies, divisor) == 0
    filtered = SparseSpectrum(spec.frequencies[keep], spec.coefficients[keep], q=spec.q)
    direct = synthesize_on_grid(filtered, grid.size).real
    return float(np.max(np.abs(seq.level_on_grid(k) - direct)))


def _require_spectrum_in_cb(spec: SparseSpectrum, b: ResidueSet) -> None:
    for n in spec.frequencies.tolist():
        if not in_cb(int(n), b):
            raise PreconditionError(
                f"frequency {n} is outside the restricted set for B={sorted(b.members)} mod {b.q}"
            )


def wb_membership_check(seq: MartingaleSequence, b: ResidueSet) -> float:
    """Largest norm, over every atom at every level, of the sibling-difference
    component orthogonal to the admissible subspace of ``b``.

    Requires the source spectrum to lie in the restricted set (raises
    :class:`PreconditionError` naming the first offending frequency otherwise).
    """
    if seq.source is None:
        raise PreconditionError("sequence carries no source spectrum to validate")
    _require_spectrum_in_cb(seq.source, b)
    basis = wb_basis(b)
    worst = 0.0
    for k in range(1, seq.levels + 1):
        diffs = seq.sibling_matrix(k) - seq.class_values[k - 1][None, :]
        if basis.dim:
            residual = diffs - basis.columns @ (basis.columns.T @ diffs)
        else:
            residual = diffs
        worst = max(worst, float(np.max(np.sqrt(np.sum(residual ** 2, axis=0)))))
    return worst


def lp_norm(values: np.ndarray, p: float, grid: QadicGrid) -> float:
    """((1/q**N) * sum |g|**p)**(1/p) against the uniform grid measure."""
    if not p >= 1.0:
        raise InvalidInputError(f"p must be >= 1, got {p}")
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise InvalidInputError(f"expected a grid function of length {grid.size}")
    return float(power_mean(values, p))


class GrowthReport(NamedTuple):
    passed: bool
    p: float
    kappa_theta: float       # growth exponent at 1/p
    worst_step_slack: float  # min over k of rhs - lhs for the level norms
    worst_atom_slack: float  # min over atoms/levels of the localized inequality slack
    global_slack: float      # q * exp(kappa*N) * mass - ||f||_p
    failures: tuple[str, ...]


def growth_check(seq: MartingaleSequence, b: ResidueSet, p: float,
                 slack: float = 1e-9) -> GrowthReport:
    """Verify the L_p growth inequalities level by level and atom by atom.

    (i) per step:  ||f_k||_p <= e**kappa(1/p) * ||f_{k-1}||_p,
    (ii) per atom: the same inequality restricted to each parent atom's children,
    (iii) global:  ||f_N||_p <= q * e**(kappa(1/p)*N) * total mass.
    All comparisons allow multiplicative ``slack`` plus a tiny absolute floor.
    This chain is the engine of the dimension bound; a failure means a bug, not
    an unlucky input.
    """
    if not p >= 1.0:
        raise InvalidInputError(f"p must be >= 1, got {p}")
    if seq.source is not None:
        _require_spectrum_in_cb(seq.source, b)
    if float(seq.class_values[seq.levels].min()) < -1e-10:
        raise PreconditionError("source density must be non-negative")
    polytope = FeasiblePolytope.from_residues(b)
    kappa_theta = kappa(1.0 / p, polytope) if p > 1.0 else 0.0
    step_factor = math.exp(kappa_theta)
    scale = max(1.0, float(np.max(np.abs(seq.class_values[seq.levels]))))
    floor = 1e-12 * scale
    failures: list[str] = []

    worst_step = math.inf
    worst_atom = math.inf
    for k in range(1, seq.levels + 1):
        lhs = seq.level_norm(k, p)
        rhs = step_factor * seq.level_norm(k - 1, p)
        worst_step = min(worst_step, rhs * (1.0 + slack) + floor - lhs)
        if lhs > rhs * (1.0 + slack) + floor:
            failures.append(f"step k={k}: ||f_k||_p={lhs:.12g} > e^kappa*||f_(k-1)||_p={rhs:.12g}")
        local_lhs = power_mean(seq.sibling_matrix(k), p)
        local_rhs = step_factor * np.abs(seq.class_values[k - 1])
        slacks = local_rhs * (1.0 + slack) + floor - local_lhs
        worst_atom = min(worst_atom, float(slacks.min()))
        bad = np.flatnonzero(slacks < 0)
        for c in bad[:5]:
            failures.append(f"atom level={k - 1} class={int(c)}: localized growth violated")

    mass = float(seq.class_values[0][0])
    global_rhs = seq.grid.q * math.exp(kappa_theta * seq.levels) * mass
    global_lhs = seq.level_norm(seq.levels, p)
    global_slack = global_rhs * (1.0 + slack) + floor - global_lhs
    if global_slack < 0:
        failures.append(f"global: ||f||_p={global_lhs:.12g} > q*e^(kappa*N)*mass={global_rhs:.12g}")

    return GrowthReport(
        passed=not failures,
        p=p,
        kappa_theta=kappa_theta,
        worst_step_slack=worst_step,
        worst_atom_slack=worst_atom,
        global_slack=global_slack,
        failures=tuple(failures),
    )


class SetAverageReport(NamedTuple):
    passed: bool
    average: float            # (1/q**N) * sum over C of f
    hoelder_rhs: float        # ||f||_p * (#C/q**N)**((p-1)/p)
    growth_rhs: float         # q * e**(kappa/p * N) ... with the certified exponent


def set_average_check(seq: MartingaleSequence, subset: Sequence[int], p: float,
                      b: ResidueSet, slack: float = 1e-9) -> SetAverageReport:
    """Explicit-constant chain bounding the average of f over a grid subset.

    (1/q**N) * sum_{x in C} f(x) <= ||f||_p * (#C * q**-N)**((p-1)/p)
                                 <= q * e**(kappa(1/p)*N) * mass * (#C * q**-N)**((p-1)/p).
    """
    if p <= 1.0:
        raise PreconditionError(f"the chain needs p > 1, got {p}")
    subset = np.sort(np.asarray(subset, dtype=np.int64))
    if subset.size == 0:
        raise PreconditionError("subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= seq.grid.size:
        raise InvalidInputError("subset indices outside the grid")
    # sort-based dedup: numpy's hash-based np.unique is ~50x slower on 10**6 ints
    subset = subset[np.diff(subset, prepend=-1) != 0]
    f = seq.level_on_grid(seq.levels)
    n_grid = seq.grid.size
    average = float(np.sum(f[subset])) / n_grid
    density = subset.size / n_grid
    hoelder = lp_norm(f, p, seq.grid) * density ** ((p - 1.0) / p)
    polytope = FeasiblePolytope.from_residues(b)
    kappa_theta = kappa(1.0 / p, polytope)
    mass = float(seq.class_values[0][0])
    growth = (seq.grid.q * math.exp(kappa_theta * seq.levels) * mass
              * density ** ((p - 1.0) / p))
    floor = 1e-12 * max(1.0, float(np.max(np.abs(f))))
    passed = (average <= hoelder * (1.0 + slack) + floor
              and hoelder <= growth * (1.0 + slack) + floor)
    return SetAverageReport(passed, average, hoelder, growth)


class SandwichReport(NamedTuple):
    passed: bool
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


def phi_kernel_mass_sandwich(spec: SparseSpectrum, n: int) -> SandwichReport:
    """Sandwich the plateau-kernel smoothing between exact interval masses.

    At every grid point x = j/q**n the convolved value scaled by q**-n must sit
    between the mass of the inner interval [x - 1/(2q**n), x + 1/(2q**n)] and
    the mass of the outer interval of radius 1/(2q**(n-1)).  Everything is
    computed in closed form from the spectrum, so violations beyond 1e-10 are
    real failures.
    """
    if spec.q is None:
        raise InvalidInputError("spectrum needs its base q for the q-adic sandwich")
    q = spec.q
    grid = QadicGrid(q, n)
    density = sample_on_grid(spec, grid)
    if density.min() < -1e-10:
        raise PreconditionError("sandwich check needs a non-negative density")
    m = grid.size
    inner = centered_interval_masses(spec, m, 0.5 / q ** n)
    outer = centered_interval_masses(spec, m, 0.5 / q ** (n - 1))
    kernel_hat = _plateau_kernel_transform(q, n, spec.frequencies)
    smoothed_spec = SparseSpectrum(spec.frequencies, spec.coefficients * kernel_hat, q=q)
    smoothed = synthesize_on_grid(smoothed_spec, m).real / q ** n
    lower_margin = smoothed - inner
    upper_margin = outer - smoothed
    worst = int(np.argmin(np.minimum(lower_margin, upper_margin)))
    passed = bool(lower_margin.min() >= -1e-10 and upper_margin.min() >= -1e-10)
    return SandwichReport(passed, float(lower_margin.min()), float(upper_margin.min()), worst)
