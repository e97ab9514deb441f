"""Double-exponential (tanh-sinh) quadrature for endpoint log singularities.

It serves the log-integral identity (``riesz_products.log_integral``), whose
integrand log(cos^2 z) * sin(2z/q) is smooth except for integrable logarithmic
blow-ups at the odd multiples of pi/2 that end each piece.  Gauss rules stall
on those; the tanh-sinh substitution x = tanh((pi/2)*sinh(u)) pushes the
nodes double-exponentially fast into the endpoints, so each depth doubling
roughly doubles the number of correct digits even with the singularity present.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError

# |u| cutoff: beyond this the weights are ~1e-20 even against log blow-ups.
_U_MAX = 3.5


class QuadratureResult(NamedTuple):
    value: float
    levels: int


def tanh_sinh_full(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   tol: float = 1e-9, max_level: int = 12) -> QuadratureResult:
    """Integrate ``f`` over [a, b], refining node spacing until two successive
    levels agree within ``tol`` (absolute).  ``f`` must accept ndarray input and
    return finite values on the open interval.

    Raises :class:`NumericalError` if the tolerance is not met by ``max_level``.
    """
    if max_level < 1:
        raise InvalidInputError(f"max_level must be >= 1, got {max_level}")
    if not b > a:
        raise NumericalError(f"empty integration interval [{a}, {b}]")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def level_sum(h: float) -> float:
        k = np.arange(-int(np.floor(_U_MAX / h)), int(np.floor(_U_MAX / h)) + 1)
        u = k * h
        s = np.sinh(u) * (np.pi / 2)
        x = mid + half * np.tanh(s)
        w = half * h * (np.pi / 2) * np.cosh(u) / np.cosh(s) ** 2
        # nodes can round onto the endpoints at the extreme tails; their weights
        # are ~1e-20, so a guarded integrand value there is harmless
        vals = np.asarray(f(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericalError("integrand returned non-finite values")
        return float(np.dot(w, vals))

    prev = level_sum(1.0)
    for level in range(1, max_level + 1):
        cur = level_sum(2.0 ** (-level))
        delta = abs(cur - prev)
        if delta <= tol:
            return QuadratureResult(cur, level)
        prev = cur
    raise NumericalError(
        f"tanh-sinh did not reach tol={tol:g} on [{a}, {b}] after {max_level} levels "
        f"(last delta {delta:.3e})"
    )

