"""Sparse trigonometric-polynomial spectra and exact grid/interval evaluation.

A :class:`SparseSpectrum` is a finite map from integer frequencies to complex
coefficients, representing the density sum_n c_n * exp(2*pi*i*n*x) on the unit
circle.  Everything downstream (grid sampling, interval masses, convolution
against kernels) reduces to synthesizing such a map on a uniform grid, which is
done exactly by reducing frequencies mod the grid size and running one inverse
FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class SparseSpectrum:
    """Finite frequency-to-coefficient map with optional base metadata."""

    frequencies: np.ndarray  # int64, strictly increasing
    coefficients: np.ndarray  # complex128, same length
    q: int | None = None

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.int64)
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if freqs.shape != coeffs.shape or freqs.ndim != 1:
            raise InvalidInputError("frequencies and coefficients must be 1-d and aligned")
        order_ix = np.argsort(freqs)
        freqs = freqs[order_ix]
        coeffs = coeffs[order_ix]
        if freqs.size and np.any(np.diff(freqs) == 0):
            raise InvalidInputError("duplicate frequencies")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_dict(cls, mapping: dict[int, complex], q: int | None = None) -> "SparseSpectrum":
        items = sorted(mapping.items())
        return cls(
            frequencies=np.array([n for n, _ in items], dtype=np.int64),
            coefficients=np.array([c for _, c in items], dtype=complex),
            q=q,
        )

    def __len__(self) -> int:
        return int(self.frequencies.size)

    def items(self):
        return zip(self.frequencies.tolist(), self.coefficients.tolist())

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

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        """True iff c(-n) == conj(c(n)) for every frequency, within ``tol``.

        A frequency whose mirror -n is absent pairs with coefficient 0.  All
        mirrors are located by one ``searchsorted``; the gate fails closed, so
        a NaN coefficient makes the spectrum not symmetric.
        """
        freqs, coeffs = self.frequencies, self.coefficients
        scale = max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
        ix = np.minimum(np.searchsorted(freqs, -freqs), len(self) - 1)
        mirror = np.where(freqs[ix] == -freqs, coeffs[ix], 0.0)
        mismatch = float(np.max(np.abs(mirror - np.conj(coeffs)), initial=0.0))
        return mismatch <= tol * scale

    def evaluate(self, x) -> np.ndarray:
        """Direct synthesis sum_n c_n exp(2*pi*i*n*x) at arbitrary points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        # chunk over frequencies to bound the outer-product workspace
        step = max(1, int(2_000_000 // max(1, x.size)))
        for lo in range(0, len(self), step):
            f = self.frequencies[lo:lo + step]
            c = self.coefficients[lo:lo + step]
            out += np.exp(2j * np.pi * np.outer(x, f)) @ c
        return out


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
    return np.fft.ifft(binned) * m


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
    """Interval masses of the nonzero frequencies at the m grid points, from each
    term's mass ``weights(c_n, n)`` at the interval based at 0: one binning of
    the frequencies mod m and one inverse FFT."""
    if not spec.is_conjugate_symmetric():
        raise InvalidInputError("interval masses need a conjugate-symmetric spectrum")
    freqs = spec.frequencies
    nz = freqs != 0
    g = np.zeros(m, dtype=complex)
    if np.any(nz):
        np.add.at(g, np.mod(freqs[nz], m), weights(spec.coefficients[nz], freqs[nz]))
    return (np.fft.ifft(g) * m).real
