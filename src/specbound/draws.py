"""The package's one seeded stream: SplitMix64 (Steele, Lea & Flood, OOPSLA
2014) applied to a counter, in numpy uint64 array arithmetic.

Word i of seed s is the SplitMix64 finalizer of s + i * 0x9E3779B97F4A7C15
(mod 2**64), counting from i = 1.  The words and the uniform floats (exact
functions of the words) are defined by integer arithmetic alone, so a seed
draws them identically on every platform and every numpy and Python version.
Every mixing step runs on arrays: numpy warns on scalar uint64 overflow but
wraps array arithmetic silently.  The stream offers only the draws the verify
suites use, and keeps ``numpy.random`` (with its ``secrets`` and ``hashlib``
imports) out of the process.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, shown

SEED_MAX = 2 ** 64 - 1
_GAMMA = 0x9E3779B97F4A7C15
# words mixed ahead of need, so that a scalar draw, also one right after a
# bulk draw, costs a slice, not a pass of array operations
_BLOCK = 256
# a uniform float is the midpoint of one of 2**52 equal cells, so it lies in
# (0, 1) and every flat-Dirichlet draw -log1p(-u) is positive and finite
_CELL_BITS = 52


def _mix(seed: int, first: int, n: int) -> np.ndarray:
    """Words first .. first + n - 1 of the stream of ``seed``."""
    z = np.arange(n, dtype=np.uint64)
    z *= _GAMMA
    z += (seed + first * _GAMMA) & SEED_MAX
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


class Stream:
    """Seeded draws; each call advances the counter by the words it reads."""

    def __init__(self, seed: int):
        if not 0 <= seed <= SEED_MAX:
            raise InvalidInputError(f"seed must be in 0..2**64-1, got {shown(seed)}")
        self._seed = int(seed)
        self._next = 1  # index of the next word served
        self._ahead = np.empty(0, dtype=np.uint64)  # words _next, _next + 1, ..., mixed

    def bits(self, n: int) -> np.ndarray:
        """The next ``n`` 64-bit words, as a uint64 array.  Any 2**64
        consecutive words are distinct: the finalizer is a bijection and the
        counter step is odd."""
        if n > self._ahead.size:
            self._ahead = _mix(self._seed, self._next, n + _BLOCK)
        words, self._ahead = self._ahead[:n], self._ahead[n:]
        self._next += n
        return words

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """A float, or an array of ``size`` floats, uniform on (low, high)."""
        words = self.bits(1 if size is None else size)
        cells = (int(words[0]) if size is None else words) >> (64 - _CELL_BITS)
        return low + (high - low) * ((cells + 0.5) * 2.0 ** -_CELL_BITS)

    def dirichlet(self, n: int) -> np.ndarray:
        """``n`` weights from the flat Dirichlet: normalized exponential draws."""
        weights = -np.log1p(-self.uniform(size=n))
        return weights / weights.sum()

