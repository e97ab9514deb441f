"""Riesz-product measures: sparse spectra, closed-form dimension bounds, and
the comparison estimators (exact identity checks, singular-integral forms,
asymptotic main terms, empirical dimension proxies).

The measure family is the weak limit of the partial products
P_K(x) = prod_{k<K} (1 + a*cos(2*pi*q**k*x)) with |a| <= 1; its spectrum lives
on the residue classes {1, q-1} of the restricted frequency set, which ties it
to the vertex-enumeration machinery in :mod:`specbound.kappa_bound`.  Three
closed-form lower bounds of decreasing sharpness are provided (``theorem3``,
``prop4``, ``prop5`` in report schemas), plus the asymptotic main term and two
numerical dimension proxies that any valid lower bound must stay below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError, ResourceLimitError
from .kappa_bound import xlogx
from .quadrature import tanh_sinh_full
from .spectrum import SparseSpectrum, uniform_interval_masses

MAX_SPECTRUM_TERMS = 10 ** 7
MAX_ENTROPY_GRID = 10 ** 6
MAX_PEYRIERE_GRID = 10 ** 7
_DERIVATIVE_BLOCK = 4096  # grid points per block of g_derivative_bound_check

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class RieszParams:
    """Amplitude a in [-1, 1] and lacunary base q >= 3."""

    a: float
    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 3:
            raise InvalidInputError(f"base must be an integer >= 3, got {self.q!r}")
        if not abs(self.a) <= 1.0:
            raise InvalidInputError(f"amplitude must satisfy |a| <= 1, got {self.a}")


def riesz_spectrum(params: RieszParams, depth: int) -> SparseSpectrum:
    """Fourier coefficients of the partial product P_depth.

    Expanding each factor as 1 + (a/2)e(+q**k x) + (a/2)e(-q**k x) puts mass
    (a/2)**(number of nonzero digits) on every frequency sum_k eps_k * q**k with
    digits eps_k in {-1, 0, 1}; those sums are pairwise distinct for q >= 3, so
    the 3**depth terms never collide.  Exact-zero coefficients (a = 0) are dropped.
    """
    if depth < 0:
        raise InvalidInputError(f"depth must be >= 0, got {depth}")
    if 3 ** depth > MAX_SPECTRUM_TERMS:
        raise ResourceLimitError(
            f"3**{depth} spectrum terms exceed the {MAX_SPECTRUM_TERMS:.0e} budget"
        )
    half = params.a / 2.0
    coeffs: dict[int, float] = {0: 1.0}
    for k in range(depth):
        step = params.q ** k
        nxt: dict[int, float] = {}
        for n, c in coeffs.items():
            nxt[n] = nxt.get(n, 0.0) + c
            side = c * half
            nxt[n + step] = nxt.get(n + step, 0.0) + side
            nxt[n - step] = nxt.get(n - step, 0.0) + side
        coeffs = nxt
    coeffs = {n: c for n, c in coeffs.items() if c != 0.0}
    return SparseSpectrum.from_dict(coeffs, q=params.q)


def _product_at_phases(params: RieszParams, depth: int, numerators: np.ndarray,
                       denominator: int) -> np.ndarray:
    # P_depth at x = numerators/denominator with exact integer phase reduction,
    # so large q**k never loses precision in the cosine argument
    out = np.ones(numerators.shape[0])
    for k in range(depth):
        phase = (params.q ** k * numerators) % denominator
        out *= 1.0 + params.a * np.cos(2.0 * np.pi * phase / denominator)
    return out


def partial_product_values(params: RieszParams, depth: int, m: int) -> np.ndarray:
    """P_depth evaluated at the m grid points j/m by direct factor multiplication."""
    if m < 1:
        raise InvalidInputError(f"grid size must be >= 1, got {m}")
    return _product_at_phases(params, depth, np.arange(m, dtype=np.int64), m)


def _profile(q: int) -> np.ndarray:
    j = np.arange(1, q - 1)
    return 1.0 - np.cos((2 * j + 1) * np.pi / q) / math.cos(math.pi / q)


def kappa_prime_riesz(q: int) -> float:
    """Closed form of the growth-exponent derivative for residues {1, q-1}.

    This is the module's cross-validation anchor: it must reproduce the generic
    vertex-enumeration value to 1e-9 for every q.
    """
    if q < 3:
        raise InvalidInputError(f"base must be >= 3, got {q}")
    return -float(np.sum(xlogx(_profile(q)))) / q


def bound_theorem3(q: int) -> float:
    """Sharpest closed-form lower bound, 1 + kappa_prime_riesz(q)/log(q)."""
    if q < 3:
        raise InvalidInputError(f"base must be >= 3, got {q}")
    return 1.0 - float(np.sum(xlogx(_profile(q)))) / (q * math.log(q))


def entropy_objective(q: int, phi: float | np.ndarray) -> float | np.ndarray:
    """The rotated-profile entropy sum whose endpoint maximum yields the closed form.

    For |phi| <= pi/q the summands 1 - cos(2*pi*j/q + phi)/cos(phi) are
    non-negative; as a function of tan(phi) the sum is convex and even, so its
    supremum over the admissible window sits at phi = +-pi/q.  Elementwise in
    ``phi``: an array of angles gives one sum per angle, each taken over j as
    the last axis, so a grid is one call.
    """
    phi = np.asarray(phi, dtype=float)[..., None]
    j = np.arange(q)
    t = 1.0 - np.cos(2.0 * np.pi * j / q + phi) / np.cos(phi)
    return np.sum(xlogx(np.clip(t, 0.0, None)), axis=-1)


def endpoint_optimality_gap(q: int, num: int = 1001) -> float:
    """max over an interior phi grid minus the endpoint value (<= 0 expected)."""
    values = entropy_objective(q, np.linspace(-np.pi / q, np.pi / q, num))
    return float(values[1:-1].max() - max(values[0], values[-1]))


def log_integral(q: int, tol: float = 1e-9) -> float:
    """integral of log(cos^2 z) * sin(2z/q) over [pi/2, q*pi/4] for even q.

    The integrand blows up logarithmically at every z = pi/2 + k*pi; the range
    is split there and each piece handled by tanh-sinh quadrature, which
    tolerates the endpoint singularities.  Always <= 0 (the log factor is <= 0
    and sin(2z/q) >= 0 on the range).
    """
    if q % 2 != 0 or q < 4:
        raise InvalidInputError(f"log_integral needs even q >= 4, got {q}")
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

    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += tanh_sinh_full(integrand, a, b, tol=tol).value
    return total


def chebyshev_identity_residual(q: int) -> float:
    """|entropy sum - its integral closed form| for even q; small residual
    certifies the quadrature and the algebraic reduction simultaneously."""
    if q % 2 != 0 or not 4 <= q <= 64:
        raise InvalidInputError(f"identity check needs even q in 4..64, got {q}")
    lhs = float(np.sum(xlogx(_profile(q))))
    cos_q = math.cos(math.pi / q)
    rhs = ((1.0 - LOG2) * q + 2.0 * LOG2
           + 2.0 / (q * cos_q) * log_integral(q)
           - q * math.log(cos_q))
    return abs(lhs - rhs)


def chebyshev_product_relerr(q: int, num_points: int = 100, seed: int = 0) -> float:
    """Max relative mismatch between 2**(2-q) * T_{q/2}(a)**2 and the node product
    prod_j |a - cos((2j+1)*pi/q)| at random a in (-1, 1)."""
    if q % 2 != 0 or q < 4:
        raise InvalidInputError(f"factorization check needs even q >= 4, got {q}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=num_points)
    p = q // 2
    cheb = np.cos(p * np.arccos(a))
    lhs = 2.0 ** (2 - q) * cheb ** 2
    nodes = np.cos((2 * np.arange(q) + 1) * np.pi / q)
    rhs = np.prod(np.abs(a[:, None] - nodes[None, :]), axis=1)
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs) / denom))


def bound_prop4(q: int) -> float:
    """Even-q bound in its displayed singular-integral form, evaluated verbatim.

    Note the sign bookkeeping of the last two terms differs from what direct
    substitution of the identity into ``bound_theorem3`` would give; both values
    are reported side by side rather than silently reconciled (``theorem3`` is
    the certified one).
    """
    if q % 2 != 0 or q < 4:
        raise InvalidInputError(f"bound_prop4 needs even q >= 4, got {q}")
    logq = math.log(q)
    cos_q = math.cos(math.pi / q)
    inner = 2.0 * LOG2 - 2.0 / (q * cos_q) * log_integral(q)
    return 1.0 - (1.0 - LOG2) / logq - inner / (q * logq) - math.log(cos_q) / logq


def bound_prop5(q: int) -> float:
    """Fully explicit asymptotic bound; vacuous (negative) for small q."""
    if q < 3:
        raise InvalidInputError(f"base must be >= 3, got {q}")
    logq = math.log(q)
    return (1.0 - (1.0 - LOG2) / logq - 4.0 * np.pi / (q * logq)
            - (1.0 / math.cos(math.pi / q) - 1.0) / logq)


def factor_entropy(a: float | np.ndarray) -> float | np.ndarray:
    """h(a) = integral over one period of (1 + a*cos(2*pi*x)) * log(1 + a*cos(2*pi*x)).

    Closed form h(a) = 1 - s + log((1 + s)/2) with s = sqrt(1 - a**2).  For
    a != 0 put r = (1 - s)/a; then the Fourier series
    log(1 + a*cos t) = log((1 + s)/2) + 2*sum_{n>=1} (-1)**(n+1) * r**n * cos(n*t)/n
    gives the period means log((1 + s)/2) of log(1 + a*cos) and a*r = 1 - s of
    a*cos*log(1 + a*cos).  It is evaluated as u + log1p(-u/2) with
    u = 1 - s = a**2/(1 + s), which is free of cancellation and gives exactly 0
    at a = 0 and exactly 1 - log 2 at |a| = 1.  Elementwise on an array.
    """
    if not np.all(np.abs(a) <= 1.0):
        raise InvalidInputError(f"amplitude must satisfy |a| <= 1, got {a}")
    u = a * a / (1.0 + np.sqrt(1.0 - a * a))
    return u + np.log1p(-0.5 * u)


def fan_main_term(params: RieszParams) -> float:
    """Asymptotic main term 1 - h(a)/log q (remainder terms out of scope)."""
    return 1.0 - float(factor_entropy(params.a)) / math.log(params.q)


class PeyriereEstimate(NamedTuple):
    estimate: float
    converged: bool


def peyriere_dimension(params: RieszParams, depth: int, m: int) -> PeyriereEstimate:
    """Empirical dimension via the exact-dimension integral identity.

    Approximates 1 - (1/log q) * integral of log(1 + a*cos(2*pi*x)) dP_depth by a
    midpoint sum on m points; midpoints dodge the log singularities at |a| = 1.
    The convergence flag compares against one more product level and a doubled
    grid (both within 0.01); this is a comparison value, not a certificate.
    """
    q = params.q
    if m < 1 or m % q ** depth != 0:
        raise InvalidInputError(
            f"midpoint grid m={m} must be a positive multiple of q**depth={q ** depth}"
        )
    if m > MAX_PEYRIERE_GRID:
        raise ResourceLimitError(f"midpoint grid {m} exceeds the {MAX_PEYRIERE_GRID:.0e} budget")
    base = _peyriere_raw(params, depth, m)
    # the depth probe needs a grid commensurate with the added factor, else the
    # factor is sampled only at cosine extremes and the probe is meaningless
    if m % q ** (depth + 1) == 0:
        probe = _peyriere_raw(params, depth + 1, m)
    elif q * m <= MAX_PEYRIERE_GRID:
        probe = _peyriere_raw(params, depth + 1, q * m)
    else:
        probe = _peyriere_raw(params, depth - 1, m)
    refined_grid = _peyriere_raw(params, depth, 2 * m)
    converged = (abs(probe - base) < 0.01) and (abs(refined_grid - base) < 0.01)
    return PeyriereEstimate(base, converged)


def _peyriere_raw(params: RieszParams, depth: int, m: int) -> float:
    numerators = 2 * np.arange(m, dtype=np.int64) + 1
    t = 1.0 + params.a * np.cos(np.pi * numerators / m)
    log_term = np.where(t > 0, np.log(np.maximum(t, np.finfo(float).tiny)), 0.0)
    weights = _product_at_phases(params, depth, numerators, 2 * m)
    return 1.0 - float(np.mean(log_term * weights)) / math.log(params.q)


class DerivativeBoundReport(NamedTuple):
    sup_estimate: float
    lipschitz_constant: float
    passed: bool


def g_derivative_bound_check(x_points: int = 100_000) -> DerivativeBoundReport:
    """Grid bounds for two auxiliary facts used by the explicit asymptotic bound.

    (1) sup over a in {-1,...,1} (21 values) and x of
        |-a*sin(x) - a*sin(x)*log(1 + a*cos(x))| stays <= 2;
    (2) L = sup on [0, pi/2] of sin(x) * (1 + log(1 + cos(x))) lands in [1.2, 1.25].
    Points where 1 + a*cos(x) vanishes are assigned their limit value 0.
    """
    a = np.linspace(-1.0, 1.0, 21)[:, None]
    x = np.linspace(0.0, 2.0 * np.pi, x_points)
    sup = 0.0
    # all amplitudes at once on a block of x: the (21, block) temporaries stay
    # small, where whole-grid ones would raise the peak memory of the run
    for lo in range(0, x_points, _DERIVATIVE_BLOCK):
        xs = x[lo:lo + _DERIVATIVE_BLOCK]
        t = 1.0 + a * np.cos(xs)
        inner = np.where(t > 0, 1.0 + np.log(np.maximum(t, np.finfo(float).tiny)), 0.0)
        deriv = np.where(t > 0, -a * np.sin(xs) * inner, 0.0)
        sup = max(sup, float(np.max(np.abs(deriv))))
    half = np.linspace(0.0, np.pi / 2.0, x_points)
    lipschitz = float(np.max(np.sin(half) * (1.0 + np.log1p(np.cos(half)))))
    passed = sup <= 2.0 and 1.2 <= lipschitz <= 1.25
    return DerivativeBoundReport(sup, lipschitz, passed)


def entropy_dimension_estimate(params: RieszParams, depth: int, level: int) -> float:
    """Shannon entropy of the exact level-``level`` interval masses, over log(q**level).

    Masses of the q**level dyadic-style intervals are computed in closed form
    from the spectrum (antiderivative of each exponential), so the only error
    is roundoff; a genuinely negative mass therefore signals a corrupted
    spectrum and raises.  The result is an upper proxy for the dimension that
    certified lower bounds must not exceed.
    """
    if level < 1:
        raise InvalidInputError(f"level must be >= 1, got {level}")
    if depth < level:
        raise InvalidInputError(f"product depth {depth} must be >= level {level}")
    if params.q ** level > MAX_ENTROPY_GRID:
        raise ResourceLimitError(
            f"q**level = {params.q ** level} exceeds the {MAX_ENTROPY_GRID:.0e} budget"
        )
    return _level_entropy(riesz_spectrum(params, depth), params.q, level)


def _level_entropy(spec: SparseSpectrum, q: int, level: int) -> float:
    masses = uniform_interval_masses(spec, q ** level)
    if masses.min() < -1e-10:
        raise NumericalError(f"negative interval mass {masses.min():.3e}: corrupted spectrum")
    entropy = -float(np.sum(xlogx(masses[masses > 0])))
    return entropy / (level * math.log(q))


@dataclass(frozen=True)
class BoundTableRow:
    """One comparison row: certified bounds next to the empirical proxies."""

    q: int
    a: float
    theorem3: float
    prop4: float | None
    prop5: float
    fan_main: float
    peyriere: float | None
    peyriere_converged: bool | None
    entropy_est: float | None


def bound_table_row(params: RieszParams,
                    peyriere_depth: int | None = None,
                    peyriere_grid: int | None = None,
                    entropy_level: int | None = 5) -> BoundTableRow:
    """Assemble the full comparison row.

    None arguments request resource-safe defaults scaled to q;
    ``entropy_level=None`` skips the entropy proxy entirely.
    """
    q = params.q
    if peyriere_depth is None:
        peyriere_depth = 1
        while q ** (peyriere_depth + 1) <= 5 * 10 ** 5 and peyriere_depth < 8:
            peyriere_depth += 1
    if peyriere_grid is None:
        block = q ** peyriere_depth
        # multiplier >= 3 keeps the depth probe off degenerate grid alignments
        peyriere_grid = block * max(3, -(-200_000 // block))
    pey = peyriere_dimension(params, peyriere_depth, peyriere_grid)
    entropy = None
    if entropy_level is not None:
        lvl = entropy_level
        while q ** lvl > MAX_ENTROPY_GRID and lvl > 1:
            lvl -= 1
        depth = 2 * lvl
        while 3 ** depth > MAX_SPECTRUM_TERMS:
            depth -= 1
        entropy = entropy_dimension_estimate(params, depth, lvl)
    return BoundTableRow(
        q=q,
        a=params.a,
        theorem3=bound_theorem3(q),
        prop4=bound_prop4(q) if q % 2 == 0 else None,
        prop5=bound_prop5(q),
        fan_main=fan_main_term(params),
        peyriere=pey.estimate,
        peyriere_converged=pey.converged,
        entropy_est=entropy,
    )
