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
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError, check_budget, max_exponent, shown
from .kappa_bound import xlogx
from .quadrature import tanh_sinh_full
from .spectrum import SparseSpectrum, uniform_interval_masses

MAX_SPECTRUM_TERMS = 10 ** 7
MAX_ENTROPY_GRID = 10 ** 6
MAX_PEYRIERE_GRID = 10 ** 7
ENTROPY_LEVEL = 5  # the table row's entropy proxy level, before the grid cap
FAN_CONSISTENCY_ALLOWANCE = 10.0  # the bound on fan_gap
# how far theorem3 may sit above a converged Peyriere estimate, and above the
# entropy proxy, in the certified_below_* checks of the riesz table
PEYRIERE_SLACK = 0.02
ENTROPY_SLACK = 0.05
ENDPOINT_GRID = 1001  # phi grid of endpoint_optimality_gap

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class RieszParams:
    """Amplitude a in [-1, 1] and lacunary base q >= 3."""

    a: float
    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 3:
            raise InvalidInputError(f"base must be an integer >= 3, got {shown(self.q)}")
        if not abs(self.a) <= 1.0:
            raise InvalidInputError(f"amplitude must satisfy |a| <= 1, got {self.a}")


def riesz_spectrum(params: RieszParams, depth: int) -> SparseSpectrum:
    """Fourier coefficients of the partial product P_depth.

    Expanding each factor as 1 + (a/2)e(+q**k x) + (a/2)e(-q**k x) puts mass
    (a/2)**(number of nonzero digits) on every frequency sum_k eps_k * q**k with
    digits eps_k in {-1, 0, 1}; those sums are pairwise distinct for q >= 3, so
    the 3**depth terms never collide.  Each level prepends a new top digit to
    arrays of all terms so far.  Exact-zero coefficients (a = 0) are dropped.
    """
    if depth < 0:
        raise InvalidInputError(f"depth must be >= 0, got {depth}")
    check_budget("spectrum terms 3**depth", 3, MAX_SPECTRUM_TERMS, depth)
    if (params.q ** depth - 1) // (params.q - 1) >= 2 ** 63:  # the largest |frequency|
        raise InvalidInputError(f"frequencies of depth {depth} at q={params.q} overflow int64")
    half = params.a / 2.0
    freqs = np.zeros(1, dtype=np.int64)
    coeffs = np.ones(1)
    for k in range(depth):
        step = params.q ** k
        freqs = np.concatenate((freqs - step, freqs, freqs + step))
        side = coeffs * half
        coeffs = np.concatenate((side, coeffs, side))
    keep = coeffs != 0.0
    return SparseSpectrum(freqs[keep], coeffs[keep])


def _product_at_phases(params: RieszParams, levels: range, numerators: np.ndarray,
                       denominator: int) -> np.ndarray:
    # the factors k in ``levels`` multiplied at x = numerators/denominator, with
    # exact integer phase reduction so large q**k never loses precision in the
    # cosine argument; levels = range(depth) gives P_depth
    out = np.ones(numerators.shape[0])
    for k in levels:
        phase = (params.q ** k * numerators) % denominator
        out *= 1.0 + params.a * np.cos(2.0 * np.pi * phase / denominator)
    return out


def partial_product_values(params: RieszParams, depth: int, m: int) -> np.ndarray:
    """P_depth evaluated at the m grid points j/m by direct factor multiplication."""
    if m < 1:
        raise InvalidInputError(f"grid size must be >= 1, got {m}")
    return _product_at_phases(params, range(depth), np.arange(m, dtype=np.int64), m)


def kappa_prime_riesz(q: int) -> float:
    """Closed form of the growth-exponent derivative for residues {1, q-1}.

    This is the module's cross-validation anchor: it must reproduce the generic
    vertex-enumeration value to 1e-9 for every q.
    """
    if q < 3:
        raise InvalidInputError(f"base must be >= 3, got {q}")
    return -float(entropy_objective(q, math.pi / q)) / q


def bound_theorem3(q: int) -> float:
    """Sharpest closed-form lower bound, 1 + kappa_prime_riesz(q)/log(q)."""
    return 1.0 + kappa_prime_riesz(q) / math.log(q)


def entropy_objective(q: int, phi: float | np.ndarray) -> float | np.ndarray:
    """The rotated-profile entropy sum whose endpoint maximum yields the closed form.

    For |phi| <= pi/q the summands 1 - cos(2*pi*j/q + phi)/cos(phi) are
    non-negative; as a function of tan(phi) the sum is convex and even, so its
    supremum over the admissible window sits at phi = +-pi/q.  Elementwise in
    ``phi``: an array of angles gives one sum per angle, each taken over j as
    the last axis, so a grid is one call.
    """
    phi = np.asarray(phi, dtype=float)[..., None]
    # centered residues: at phi = +-pi/q the summands j = 0 and j = -+1 vanish,
    # and their angles come out as exactly +-phi, so their t is exactly 0
    j = np.arange(q)
    j = np.where(2 * j > q, j - q, j)
    t = 1.0 - np.cos(2.0 * np.pi * j / q + phi) / np.cos(phi)
    return np.sum(xlogx(np.clip(t, 0.0, None)), axis=-1)


def endpoint_optimality_gap(q: int) -> float:
    """max over an interior phi grid minus the endpoint value (<= 0 expected)."""
    values = entropy_objective(q, np.linspace(-np.pi / q, np.pi / q, ENDPOINT_GRID))
    return float(values[1:-1].max() - max(values[0], values[-1]))


@cache
def log_integral(q: int) -> float:
    """integral of log(cos^2 z) * sin(2z/q) over [pi/2, q*pi/4] for even q.

    The integrand blows up logarithmically at every z = pi/2 + k*pi.  With
    x = pi/q and z = pi/2 + k*pi + t, piece k (t in [0, pi]) integrates
    log(sin^2 t) * sin((2k+1)x + 2t/q).  Folding t -> pi - t onto [0, pi/2]
    leaves 2 sin((2k+2)x) * M, where M is the one half-range moment of
    log(sin^2 t) against cos(x - 2t/q), whose only singularity, at t = 0,
    tanh-sinh quadrature tolerates.  The n = (q-2)//4 full pieces sum to
    2M sin(nx) sin((n+1)x)/sin x, and for q = 0 mod 4 the last half piece
    (t in [0, pi/2], k = n) is M itself.  So every q costs one quadrature.
    Always <= 0 (the log factor is <= 0 and sin(2z/q) >= 0 on the range).
    Cached per q: the identity, prop4 and its gap all read the same integral.
    """
    if q % 2 != 0 or q < 4:
        raise InvalidInputError(f"log_integral needs even q >= 4, got {q}")

    def integrand(t):
        s = np.sin(t)
        return np.log(np.maximum(s * s, np.finfo(float).tiny)) * np.cos((math.pi - 2.0 * t) / q)

    moment = tanh_sinh_full(integrand, 0.0, math.pi / 2.0).value
    x, n = math.pi / q, (q - 2) // 4
    return moment * (2.0 * math.sin(n * x) * math.sin((n + 1) * x) / math.sin(x) + (q % 4 == 0))


def chebyshev_identity_residual(q: int) -> float:
    """|entropy sum - its integral closed form| for even q; small residual
    certifies the quadrature and the algebraic reduction simultaneously."""
    if q % 2 != 0 or q < 4:
        raise InvalidInputError(f"identity check needs even q >= 4, got {q}")
    lhs = float(entropy_objective(q, math.pi / q))
    cos_q = math.cos(math.pi / q)
    rhs = ((1.0 - LOG2) * q + 2.0 * LOG2
           + 2.0 / (q * cos_q) * log_integral(q)
           - q * math.log(cos_q))
    return abs(lhs - rhs)


def chebyshev_product_relerr(q: int, a: np.ndarray) -> float:
    """Max mismatch between 2**(2-q) * T_{q/2}(a)**2 and the node product
    prod_j |a - cos((2j+1)*pi/q)| over the amplitudes ``a`` in [-1, 1],
    relative to 2**(2-q), the sup of the product on [-1, 1].

    Near a node both sides are tiny and cos(p*arccos(a)) keeps only an
    absolute accuracy, so a mismatch relative to |lhs| would grow like
    eps/|a - node| there; relative to the sup it stays at rounding level.
    """
    if q % 2 != 0 or q < 4:
        raise InvalidInputError(f"factorization check needs even q >= 4, got {q}")
    p = q // 2
    cheb = np.cos(p * np.arccos(a))
    lhs = 2.0 ** (2 - q) * cheb ** 2
    nodes = np.cos((2 * np.arange(q) + 1) * np.pi / q)
    rhs = np.prod(np.abs(a[:, None] - nodes[None, :]), axis=1)
    return float(np.max(np.abs(lhs - rhs))) / 2.0 ** (2 - q)


def bound_prop4(q: int) -> float:
    """Even-q bound in its displayed singular-integral form, evaluated verbatim.

    It differs from ``bound_theorem3``, the certified one, by ``prop4_gap``.
    """
    if q % 2 != 0 or q < 4:
        raise InvalidInputError(f"bound_prop4 needs even q >= 4, got {q}")
    logq = math.log(q)
    cos_q = math.cos(math.pi / q)
    inner = 2.0 * LOG2 - 2.0 / (q * cos_q) * log_integral(q)
    return 1.0 - (1.0 - LOG2) / logq - inner / (q * logq) - math.log(cos_q) / logq


def prop4_gap(q: int) -> float:
    """prop4 - theorem3 = 4L/(q**2 c log q) - 2 log(c)/log q for even q, with
    L = ``log_integral(q)`` and c = cos(pi/q).

    theorem3 = 1 - S/(q log q) for the profile entropy sum S, and the identity
    S = (1 - log 2) q + 2 log 2 + 2L/(q c) - q log c turns it into
    1 - (1 - log 2)/log q - 2 log 2/(q log q) - 2L/(q**2 c log q) + log(c)/log q.
    prop4 has the last two terms with opposite signs: the gap is twice them.
    """
    logq = math.log(q)
    cos_q = math.cos(math.pi / q)
    return 4.0 * log_integral(q) / (q * q * cos_q * logq) - 2.0 * math.log(cos_q) / logq


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


def fan_gap(params: RieszParams, theorem3: float, fan_main: float) -> float:
    """(theorem3 - fan_main) * q * log q for the caller's ``bound_theorem3(q)`` and
    ``fan_main_term``, at most ``FAN_CONSISTENCY_ALLOWANCE`` in the paper, taken
    absolute at |a| = 1.  At |a| < 1 only the signed gap is bounded: theorem3 does
    not depend on a, while fan_main rises by (h(1) - h(a))/log q."""
    gap = theorem3 - fan_main
    return (gap if abs(params.a) < 1.0 else abs(gap)) * params.q * math.log(params.q)


class PeyriereEstimate(NamedTuple):
    estimate: float
    converged: bool


def peyriere_dimension(params: RieszParams, depth: int, m: int) -> PeyriereEstimate:
    """Empirical dimension via the exact-dimension integral identity.

    Approximates 1 - (1/log q) * integral of g dP_depth, g = log(1 + a*cos(2*pi*x)),
    by a midpoint sum on m points, which dodges the log singularities at |a| = 1.
    The flag asks that the last product level, from the same pass, move the
    estimate by less than 0.01; a comparison value, not a certificate.  The grid,
    a multiple of q**depth, needs no refinement: its error is the aliased sum of
    (-1)**k * P_hat(l) * g_hat(k*m - l) over k != 0 and the spectrum |l| < m/2 of
    P_depth.  For |a| < 1 it decays like r**m, as g_hat(n) = (-1)**(n+1) * r**|n|/|n|
    with r = (1 - sqrt(1 - a**2))/a.  At a = 1 (a = -1) its leading 1/(k*m) terms
    sum to P_depth(1/2) (P_depth(0)) = 0.  Doubling the grid moves no table-row
    estimate by over 8.2e-15, so the flag tests the product level only.
    """
    q = params.q
    if depth < 1:
        raise InvalidInputError(f"product depth must be >= 1, got {depth}")
    if m < 1 or depth > max_exponent(q, m) or m % q ** depth != 0:
        raise InvalidInputError(f"midpoint grid m={m} must be a positive multiple of {q}**{depth}")
    check_budget("midpoint grid points", m, MAX_PEYRIERE_GRID)
    numerators = 2 * np.arange(m, dtype=np.int64) + 1
    t = 1.0 + params.a * np.cos(np.pi * numerators / m)
    log_term = np.where(t > 0, np.log(np.maximum(t, np.finfo(float).tiny)), 0.0)
    weights = _product_at_phases(params, range(depth - 1), numerators, 2 * m)
    previous = 1.0 - float(np.mean(log_term * weights)) / math.log(q)
    weights *= _product_at_phases(params, range(depth - 1, depth), numerators, 2 * m)
    estimate = 1.0 - float(np.mean(log_term * weights)) / math.log(q)
    return PeyriereEstimate(estimate, abs(estimate - previous) < 0.01)


class DerivativeBoundReport(NamedTuple):
    sup_estimate: float
    lipschitz_constant: float


def g_derivative_bound_check() -> DerivativeBoundReport:
    """Exact values for two auxiliary facts used by the explicit asymptotic bound.

    (1) sup over |a| <= 1 and x of |a*sin(x)*(1 + log(1 + a*cos(x)))| is <= 2;
    (2) L = sup on [0, pi/2] of sin(x) * (1 + log(1 + cos(x))) lies in [1.2, 1.25].

    Put t = 1 + a*cos(x) in (0, 2] (the derivative tends to 0 where t does).
    Then (a*sin(x))**2 = a**2 - (t - 1)**2 <= t*(2 - t), with equality at
    |a| = 1, so (1) is the sup of |G| on (0, 2] and (2) is the max of G on
    [1, 2] (x in [0, pi/2] with a = 1), for G(t) = sqrt(t*(2 - t))*(1 + log t).
    G' = phi/sqrt(t*(2 - t)) with phi(t) = (1 - t)*(1 + log t) + 2 - t, and
    phi' = 1/t - log(t) - 3 is positive on (0, 1/e] and negative on [1, 2];
    phi tends to -inf at 0+ and phi(1/e) > 0, phi(1) = 1 > 0 > phi(2).  So G
    has one minimum t1 in (0, 1/e), where G <= 0 (|G(t1)| = 0.6234), and one
    maximum t2 in (1, 2), where G(t2) = L = 1.22579; on [1/e, 1] both factors
    of G lie in [0, 1].  Each root is one bisection of phi down to adjacent
    floats, and the sup in (1) is max(|G(t1)|, 1, L) = L.
    """
    def g(t: float) -> float:
        return math.sqrt(t * (2.0 - t)) * (1.0 + math.log(t))

    def phi(t: float) -> float:
        return (1.0 - t) * (1.0 + math.log(t)) + 2.0 - t

    def root(lo: float, hi: float) -> float:
        # phi changes sign once on [lo, hi]; halve until no float lies between
        rising = phi(lo) < 0.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if (phi(mid) < 0.0) == rising:
                lo = mid
            else:
                hi = mid
        return mid

    lipschitz = g(root(1.0, 2.0))
    sup = max(-g(root(np.finfo(float).tiny, 1.0 / math.e)), 1.0, lipschitz)
    return DerivativeBoundReport(sup, lipschitz)


def entropy_dimension_estimate(params: RieszParams, depth: int, level: int) -> float:
    """Shannon entropy of the exact level-``level`` interval masses, over log(q**level).

    Masses of the q**level dyadic-style intervals are computed in closed form
    from the spectrum (antiderivative of each exponential), so the only error
    is roundoff; a genuinely negative mass therefore signals a corrupted
    spectrum and raises.  The result is an upper proxy for the dimension that
    certified lower bounds must not exceed.
    """
    if not 1 <= level <= depth:
        raise InvalidInputError(f"need 1 <= level <= depth, got level {level}, depth {depth}")
    check_budget("interval masses q**level", params.q, MAX_ENTROPY_GRID, level)
    return _level_entropy(riesz_spectrum(params, depth), params.q, level)


def max_entropy_level(params: RieszParams) -> int:
    """The largest level L with q**L within ``MAX_ENTROPY_GRID``; none fits for q > 10**6."""
    check_budget("interval masses q**level", params.q, MAX_ENTROPY_GRID)
    return max_exponent(params.q, MAX_ENTROPY_GRID)


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
    peyriere: float
    peyriere_converged: bool
    entropy_est: float


def bound_table_row(params: RieszParams) -> BoundTableRow:
    """Assemble the full comparison row.

    The entropy proxy's grid guard, :func:`max_entropy_level`, fires before
    any column costs time.  The proxy runs at level L, ``ENTROPY_LEVEL`` (5)
    capped at that function's level, on a spectrum of depth 2*L.  The Peyriere
    proxy runs at product depth d, the largest d <= 8 with q**d <= 5e5 (and
    d = 1 for q > 707), on a grid of at least 2e5 points and at least three
    blocks of q**d.
    """
    q = params.q
    level = min(ENTROPY_LEVEL, max_entropy_level(params))
    entropy_est = entropy_dimension_estimate(params, 2 * level, level)
    depth = min(8, max(1, max_exponent(q, 5 * 10 ** 5)))
    block = q ** depth
    pey = peyriere_dimension(params, depth, block * max(3, -(-200_000 // block)))
    return BoundTableRow(
        q=q,
        a=params.a,
        theorem3=bound_theorem3(q),
        prop4=bound_prop4(q) if q % 2 == 0 else None,
        prop5=bound_prop5(q),
        fan_main=fan_main_term(params),
        peyriere=pey.estimate,
        peyriere_converged=pey.converged,
        entropy_est=entropy_est,
    )
