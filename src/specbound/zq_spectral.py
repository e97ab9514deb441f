"""Fourier analysis on the cyclic group Z_q and arithmetic of restricted spectra.

This module owns the symmetric residue sets B that parameterize which spectra
are allowed, the real subspace of admissible sibling differences (zero-sum
q-vectors whose transform on Z_q, ``np.fft.fft``, is supported on B), and the
elementwise membership predicate for the restricted frequency set
C_B = {k*q**v : k mod q in B, v >= 0} | {0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidInputError, check_budget, shown
from .spectrum import SparseSpectrum

TWO_PI = 2.0 * math.pi
# floats in a residue set's subspace basis, q x d, checked before anything is
# allocated
MAX_ARRAY_FLOATS = 10 ** 7


@dataclass(frozen=True)
class ResidueSet:
    """A modulus q >= 3 together with a set of allowed nonzero residues."""

    q: int
    members: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 3:
            raise InvalidInputError(f"modulus must be an integer >= 3, got {shown(self.q)}")
        object.__setattr__(self, "members", frozenset(int(m) for m in self.members))
        for m in self.members:
            if not 1 <= m <= self.q - 1:
                raise InvalidInputError(f"residue {shown(m)} outside 1..{shown(self.q - 1)}")

    @classmethod
    def of(cls, q: int, members: Iterable[int]) -> "ResidueSet":
        return cls(q, frozenset(int(m) for m in members))

    @property
    def symmetric(self) -> bool:
        """True iff q - m is a member whenever m is."""
        return all((self.q - m) in self.members for m in self.members)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def symmetrize(b: ResidueSet) -> ResidueSet:
    """Close ``b`` under the reflection m -> q - m.  Idempotent."""
    return ResidueSet.of(b.q, b.members | {b.q - m for m in b.members})


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal real basis (columns) of the admissible-difference subspace.

    Every column sums to zero and its Z_q transform vanishes at every nonzero
    residue outside B, so the column span is exactly the real span of the
    characters indexed by B.
    """

    q: int
    dim: int
    columns: np.ndarray  # shape (q, dim)

    def project_off(self, v: np.ndarray) -> np.ndarray:
        """Component of ``v`` orthogonal to the subspace."""
        return v - self.columns @ (self.columns.T @ v)


def wb_basis(b: ResidueSet) -> SubspaceBasis:
    """Orthonormal real basis of span{characters m : m in B} inside the zero-sum hyperplane.

    For each reflection pair {m, q-m} with 2m != 0 (mod q) the basis takes the
    normalized cosine and sine vectors at frequency m; for even q with q/2 in B
    it takes the normalized alternating vector.  The cosine/sine normalization
    is sqrt(q/2) and the alternating one sqrt(q), which makes the basis exactly
    orthonormal by the character relations (no Gram-Schmidt, hence reproducible).

    ``b`` must be symmetric; call :func:`symmetrize` first if needed.  Raises
    :class:`ResourceLimitError` before any allocation when q * d, or q for an
    empty B (whose bound still reports a q-long witness), exceeds
    ``MAX_ARRAY_FLOATS``.
    """
    if not b.symmetric:
        raise InvalidInputError(
            f"residue set {sorted(b.members)} is not symmetric mod {b.q}; symmetrize it first"
        )
    q = b.q
    # a symmetric B has one basis column per member
    check_budget(f"floats in the subspace basis for q={shown(q)} and {len(b.members)} residues",
                 q * max(1, len(b.members)), MAX_ARRAY_FLOATS)
    j = np.arange(q)
    cols = []
    for m in b.sorted_members:
        if m < (q + 1) // 2:
            ang = TWO_PI * m * j / q
            cols.append(np.cos(ang) / math.sqrt(q / 2))
            cols.append(np.sin(ang) / math.sqrt(q / 2))
        elif q % 2 == 0 and m == q // 2:
            cols.append(((-1.0) ** j) / math.sqrt(q))
    if cols:
        columns = np.column_stack(cols)
    else:
        columns = np.zeros((q, 0))
    return SubspaceBasis(q=q, dim=columns.shape[1], columns=columns)


def in_cb(n: int | np.ndarray, b: ResidueSet) -> np.ndarray:
    """Membership of integer frequencies in C_B, elementwise over an int or int64 array.

    True where n == 0 or n = k * q**v with q not dividing k and (k mod q) in B.
    Negative n is tested literally: the cofactor keeps its sign and its residue
    is reduced into 0..q-1, so n and -n agree whenever B is symmetric.
    """
    q = b.q
    k = np.asarray(n, dtype=np.int64)
    # strip factors of q from the nonzero entries: at most log_q(2**63) rounds
    while (divisible := (k % q == 0) & (k != 0)).any():
        k = np.where(divisible, k // q, k)
    return (k == 0) | np.isin(k % q, list(b.members))


def counterexample_measure(q: int, l: int) -> SparseSpectrum:
    """Spectrum of the complex atomic measure (1/q) * sum_k w**(k*l) * delta_{k/q}.

    Its transform equals 1 on the whole residue class l (mod q) and 0 elsewhere;
    coefficients are returned truncated to |n| <= q**2.  The measure is atomic
    (dimension zero) yet its spectrum sits inside C_{{l}} -- the standard witness
    that dimension bounds for restricted spectra require non-negativity.
    """
    if not 1 <= l <= q - 1:
        raise InvalidInputError(f"residue l={l} outside 1..{q - 1}")
    freqs = [n for n in range(-q * q, q * q + 1) if n % q == l % q]
    return SparseSpectrum.from_dict({n: 1.0 for n in freqs})
