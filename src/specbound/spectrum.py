"""Sparse trigonometric-polynomial spectra and exact grid/interval evaluation.

A :class:`SparseSpectrum` is a finite map from integer frequencies to complex
coefficients, representing the density sum_n c_n * exp(2*pi*i*n*x) on the unit
circle.  It holds the frequencies and coefficients only, no base q: a q-adic
check takes a grid for that.  Everything downstream (grid sampling, interval
masses, convolution against kernels) reduces to synthesizing such a map on a
uniform grid, which is done exactly by reducing frequencies mod the grid size
and running one inverse FFT.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

CONJUGATE_TOL = 1e-12


class SparseSpectrum:
    """Finite frequency-to-coefficient map: int64 frequencies and complex128
    coefficients, two aligned 1-d arrays.

    Frequencies must arrive strictly increasing.  They are kept as given, so
    the arrays may share memory with the caller's; neither is ever written to.
    A plain class rather than a tuple, because ``len`` is the term count.
    """

    __slots__ = ("frequencies", "coefficients")

    def __init__(self, frequencies: np.ndarray, coefficients: np.ndarray):
        freqs = np.asarray(frequencies, dtype=np.int64)
        coeffs = np.asarray(coefficients, dtype=complex)
        if freqs.shape != coeffs.shape or freqs.ndim != 1:
            raise InvalidInputError("frequencies and coefficients must be 1-d and aligned")
        # compared, not subtracted, since an int64 difference can wrap
        if not np.all(freqs[1:] > freqs[:-1]):
            raise InvalidInputError("frequencies must be sorted, with no duplicate")
        self.frequencies = freqs
        self.coefficients = coeffs

    @classmethod
    def from_dict(cls, mapping: dict[int, complex]) -> "SparseSpectrum":
        items = sorted(mapping.items())
        return cls(
            frequencies=np.array([n for n, _ in items], dtype=np.int64),
            coefficients=np.array([c for _, c in items], dtype=complex),
        )

    def __len__(self) -> int:
        return int(self.frequencies.size)

    @property
    def max_abs_frequency(self) -> int:
        if not len(self):
            return 0
        return int(np.max(np.abs(self.frequencies)))

    def coefficient(self, n: int) -> complex:
        ix = np.searchsorted(self.frequencies, n)
        if ix < len(self) and self.frequencies[ix] == n:
            return complex(self.coefficients[ix])
        return 0.0

    def is_conjugate_symmetric(self) -> bool:
        """True iff c(-n) == conj(c(n)) for every frequency, within
        ``CONJUGATE_TOL`` relative to the largest coefficient.

        A frequency whose mirror -n is absent pairs with coefficient 0.  All
        mirrors are located by one ``searchsorted``; the gate fails closed, so
        a NaN coefficient makes the spectrum not symmetric.
        """
        freqs, coeffs = self.frequencies, self.coefficients
        scale = max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
        ix = np.minimum(np.searchsorted(freqs, -freqs), len(self) - 1)
        mirror = np.where(freqs[ix] == -freqs, coeffs[ix], 0.0)
        mismatch = float(np.max(np.abs(mirror - np.conj(coeffs)), initial=0.0))
        return mismatch <= CONJUGATE_TOL * scale


def synthesize_on_grid(spec: SparseSpectrum, m: int) -> np.ndarray:
    """Values sum_n c_n exp(2*pi*i*n*j/m) for j = 0..m-1, computed exactly.

    Frequencies are reduced mod m in integer arithmetic and aggregated, so the
    result is the aliased synthesis; callers that need alias-free values must
    keep max|n| below their own guard.
    """
    if m < 1:
        raise InvalidInputError(f"grid size must be >= 1, got {m}")
    binned = np.zeros(m, dtype=complex)
    if len(spec):
        np.add.at(binned, np.mod(spec.frequencies, m), spec.coefficients)
    values = np.fft.ifft(binned)
    values *= m  # in place: ``* m`` would allocate a second complex grid
    return values


def uniform_interval_masses(spec: SparseSpectrum, m: int) -> np.ndarray:
    """Masses of the intervals [i/m, (i+1)/m) under the density, i = 0..m-1.

    Uses the closed-form antiderivative of each exponential term:
    the mass contribution of frequency n != 0 over [a, b] is
    c_n * (exp(2*pi*i*n*b) - exp(2*pi*i*n*a)) / (2*pi*i*n).
    Exact up to roundoff for any finite spectrum; requires conjugate symmetry
    (real density) so the result is real.
    """
    masses = _oscillating_masses(
        spec, m, lambda c, f: c * (np.exp(2j * np.pi * f / m) - 1.0) / (2j * np.pi * f))
    masses += float(spec.coefficient(0).real) / m
    return masses


def centered_interval_masses(spec: SparseSpectrum, m: int, radius: float) -> np.ndarray:
    """Masses of [j/m - radius, j/m + radius] for j = 0..m-1, same closed form."""
    masses = _oscillating_masses(
        spec, m, lambda c, f: c * np.sin(2 * np.pi * f * radius) / (np.pi * f))
    masses += float(spec.coefficient(0).real) * 2.0 * radius
    return masses


def _oscillating_masses(spec: SparseSpectrum, m: int, weights) -> np.ndarray:
    """Interval masses of the nonzero frequencies at the m grid points: the grid
    synthesis of each term's mass ``weights(c_n, n)`` at the interval based at 0.
    The real part is copied, so no complex grid outlives the call."""
    if not spec.is_conjugate_symmetric():
        raise InvalidInputError("interval masses need a conjugate-symmetric spectrum")
    nonzero = spec.frequencies != 0
    freqs = spec.frequencies[nonzero]
    terms = SparseSpectrum(freqs, weights(spec.coefficients[nonzero], freqs))
    return synthesize_on_grid(terms, m).real.copy()
