"""Dimension bounds via convex maximization over a vertex-enumerated polytope.

The feasible region is {v in W : v_j >= -1} where W is the admissible-difference
subspace attached to a residue set B.  Both quantities of interest,

    kappa(theta) = max over feasible v of theta * log((1/q) * sum_j |1+v_j|**(1/theta)),
    kappa'(1)    = -(1/q) * max over feasible v of sum_j (1+v_j) * log(1+v_j),

are maxima of convex functions over a compact polytope, hence attained at
extreme points; the module enumerates those points exhaustively (active-set
over coordinate subsets) and evaluates the objectives there.  The resulting
certified lower bound for the dimension of any admissible non-negative measure
is 1 + kappa'(1)/log q, compared against the coarser subgroup bound
1 - log|H|/log q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, islice
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, PreconditionError, ResourceLimitError
from .zq_spectral import (
    ResidueSet,
    Subgroup,
    SubspaceBasis,
    minimal_subgroup_containing,
    symmetrize,
    wb_basis,
)

FEASIBILITY_TOL = 1e-9
DEDUP_TOL = 1e-7
# C(q, d) solves: admits the half-band B at q=20, C(20, 10) = 184756
MAX_VERTEX_SUBSETS = 2 * 10 ** 5
# floats in one stacked (n, d, d) solve: large enough to amortize the call,
# small enough that the chunk temporaries stay well under a megabyte
_SOLVE_FLOATS = 2 ** 14


class FeasiblePolytope:
    """{v = basis @ t : v_j >= -1 for all j}; bounded and containing the origin."""

    def __init__(self, basis: SubspaceBasis):
        self.basis = basis

    @property
    def q(self) -> int:
        return self.basis.q

    @classmethod
    @cache
    def from_residues(cls, b: ResidueSet) -> "FeasiblePolytope":
        """The polytope of ``b``, shared per process so each B is enumerated once."""
        return cls(wb_basis(b))

    @cached_property
    def vertex_set(self) -> np.ndarray:
        """Extreme points, shape (n, q), in :func:`polytope_vertices` order; read-only."""
        return polytope_vertices(self)


def polytope_vertices(polytope: FeasiblePolytope) -> np.ndarray:
    """Enumerate the extreme points by exhausting active coordinate subsets.

    Every vertex of a d-dimensional polytope activates at least d of the q
    constraints v_j >= -1, so solving (M t)_j = -1 on each d-subset of rows
    with an invertible submatrix, then filtering by global feasibility and
    deduplicating, yields exactly the vertex set.

    The subsets are taken in ``combinations`` order, a chunk at a time, and
    each chunk's submatrices are solved as one stack.  Exactly singular
    submatrices (determinant 0) are dropped before the solve; near-singular
    ones are rejected by a residual check at ``FEASIBILITY_TOL`` rather than a
    condition estimate.  Solutions within ``DEDUP_TOL`` of each other in the
    max norm are one vertex, represented by the first seen in subset order
    (see :func:`_distinct_rows`).  Rows come back sorted lexicographically by
    their ``DEDUP_TOL``-rounded coordinates, so the order does not depend on
    round-off.  Raises :class:`ResourceLimitError` before any solve when
    C(q, d) exceeds ``MAX_VERTEX_SUBSETS``.
    """
    m = polytope.basis.columns
    q, d = m.shape
    if d > q:
        raise InvalidInputError(f"subspace dimension {d} exceeds ambient dimension {q}")
    subsets = math.comb(q, d)
    if subsets > MAX_VERTEX_SUBSETS:
        raise ResourceLimitError(
            f"vertex enumeration needs C({q}, {d}) = {subsets} solves, "
            f"over the {MAX_VERTEX_SUBSETS:.0e} budget"
        )
    if d == 0:
        return _read_only(np.zeros((0, q)))
    stream = combinations(range(q), d)
    chunk = max(1, _SOLVE_FLOATS // (d * d))
    found = []
    while len(idx := np.fromiter(islice(stream, chunk), dtype=(np.intp, (d,)))):
        v = _feasible_solutions(m, idx)
        found.append(v[_first_per_key(_dedup_keys(v))])  # keeps the candidate list short
    v = _distinct_rows(np.concatenate(found))
    return _read_only(v[np.lexsort(_dedup_keys(v).T[::-1])])


def _feasible_solutions(m: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """The feasible v = M t with (M t)_S = -1, for each row subset S of ``subsets``."""
    a = m[subsets]
    a = a[np.linalg.det(a) != 0.0]  # one singular matrix would fail the whole stack
    t = np.linalg.solve(a, np.full((*a.shape[:2], 1), -1.0))
    residual = np.abs(a @ t + 1.0).max(axis=(1, 2), initial=0.0)
    v = t[:, :, 0] @ m.T
    feasible = (residual <= FEASIBILITY_TOL) & (v.min(axis=1) >= -1.0 - FEASIBILITY_TOL)
    return v[feasible]


def _dedup_keys(v: np.ndarray) -> np.ndarray:
    # coordinates in units of DEDUP_TOL; rows with equal keys are closer than it
    return np.rint(v / DEDUP_TOL).astype(np.int64)


def _first_per_key(keys: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the first row of each distinct key row."""
    order = np.lexsort(keys.T[::-1])  # stable, so each run of equal keys starts at its first row
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    return np.sort(order[new])


def _distinct_rows(v: np.ndarray) -> np.ndarray:
    """Greedy dedup in row order: a row closer than ``DEDUP_TOL`` (max norm)
    to an earlier kept row is dropped.

    Rows with equal rounded keys merge into the first of them.  Pairs closer
    than the tolerance with different keys (they straddle a rounding
    boundary) are found as runs of small gaps in a sorted 1-D projection and
    settled by the greedy rule, in row order, within each run.  This is the
    pairwise greedy rule whenever each cluster of near-copies is narrower than
    ``DEDUP_TOL``, as the ~1e-14 spread of repeated vertex solves is.
    """
    v = v[_first_per_key(_dedup_keys(v))]
    # positive weights summing to 1, so |w.(x - y)| <= max|x - y| and a close
    # pair has a close projection; a transcendental ratio keeps them generic,
    # so that distinct vertices rarely project close together
    w = np.exp(-np.arange(v.shape[1]) / np.pi)
    proj = v @ (w / w.sum())
    order = np.argsort(proj, kind="stable")
    # twice the tolerance leaves room for round-off in the projection
    small = np.diff(proj[order]) < 2.0 * DEDUP_TOL
    starts = np.flatnonzero(np.concatenate(([True], ~small)))
    lengths = np.diff(starts, append=len(v))
    keep = np.ones(len(v), dtype=bool)
    for start, length in zip(starts[lengths > 1], lengths[lengths > 1]):
        run = np.sort(order[start:start + length])
        block = v[run]
        near = np.abs(block[:, None, :] - block[None, :, :]).max(axis=2) < DEDUP_TOL
        kept: list[int] = []
        for i in range(length):
            if near[i, kept].any():
                keep[run[i]] = False
            else:
                kept.append(i)
    return v[keep]


def _read_only(vertices: np.ndarray) -> np.ndarray:
    # one array per polytope is shared by every caller in the process
    vertices.flags.writeable = False
    return vertices


def _clipped_shift(vertices: np.ndarray) -> np.ndarray:
    # 1 + v, with -1e-15-scale negatives from the solve clipped away
    return np.clip(1.0 + vertices, 0.0, None)


def xlogx(s: np.ndarray) -> np.ndarray:
    """Elementwise s*log(s), extended by its limit 0 at s <= 0."""
    return np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)), 0.0)


def power_mean(values: np.ndarray, p: float) -> np.ndarray:
    """(mean over axis 0 of |x|**p)**(1/p), with max |x| factored out so that
    no power overflows, however large p is."""
    magnitude = np.abs(values)
    top = magnitude.max(axis=0)
    scale = np.where(top > 0, top, 1.0)
    return scale * np.mean((magnitude / scale) ** p, axis=0) ** (1.0 / p)


def kappa(theta: float, polytope: FeasiblePolytope) -> float:
    """Growth exponent at theta in (0, 1], evaluated over the vertex set.

    Computed in log-space (factoring out each vertex's largest summand) so
    that small theta never overflows the 1/theta power.  All vertices are one
    (n, q) array expression; the zeros left by clipping 1 + v are masked out
    of the max and the sum, and their logarithm is never taken.  kappa(1) is
    exactly 0: the zero-sum constraint makes every vertex objective log(1)
    there.
    """
    if not 0.0 < theta <= 1.0:
        raise InvalidInputError(f"theta must lie in (0, 1], got {theta}")
    if theta == 1.0:
        return 0.0
    vertices = polytope.vertex_set
    if vertices.shape[0] == 0:
        return 0.0  # origin-only polytope
    shifted = _clipped_shift(vertices)
    positive = shifted > 0
    logs = np.log(np.where(positive, shifted, 1.0))
    # each row sums to q, so its top log is >= 0 and the masked exponents are <= 0
    top = logs.max(axis=1, where=positive, initial=-np.inf)
    total = np.sum(np.exp((logs - top[:, None]) / theta), axis=1, where=positive)
    return float(np.max(top + theta * (np.log(total) - math.log(polytope.q))))


class KappaPrime(NamedTuple):
    value: float
    witness: np.ndarray


def kappa_prime_1(polytope: FeasiblePolytope) -> KappaPrime:
    """Left derivative of kappa at 1: -(1/q) * max_v sum_j (1+v_j)*log(1+v_j).

    The objective is convex (affine maps composed with t*log(t), extended by
    0 at t=0), so the maximum over the polytope is attained at a vertex.  Ties
    are broken toward the first vertex in the vertex set's order, which is
    lexicographic in the ``DEDUP_TOL``-rounded coordinates, so round-off in
    the solves cannot change the witness.
    """
    vertices = polytope.vertex_set
    q = polytope.q
    if vertices.shape[0] == 0:
        return KappaPrime(0.0, np.zeros(q))
    objective = xlogx(_clipped_shift(vertices)).sum(axis=1)
    top = float(objective.max())
    tied = np.flatnonzero(objective >= top - 1e-12 * max(1.0, abs(top)))
    witness = vertices[tied[0]]
    return KappaPrime(-top / q, witness.copy())


def kappa_left_derivative_fd(polytope: FeasiblePolytope, h: float) -> float:
    """Backward difference quotient (kappa(1) - kappa(1-h)) / h = -kappa(1-h)/h.

    By convexity of kappa this underestimates kappa'(1) and increases toward it
    as h decreases.
    """
    if not 0.0 < h < 0.5:
        raise InvalidInputError(f"step h must lie in (0, 0.5), got {h}")
    return -kappa(1.0 - h, polytope) / h


class SubgroupBound(NamedTuple):
    bound: float
    subgroup: Subgroup
    proper: bool


def subgroup_bound(b: ResidueSet) -> SubgroupBound:
    """Coarse bound 1 - log|H|/log q from the smallest subgroup H containing B.

    Empty B is contained in the trivial subgroup, giving bound 1.
    """
    if not b.members:
        return SubgroupBound(1.0, Subgroup(b.q, b.q), False)
    h, proper = minimal_subgroup_containing(b)
    return SubgroupBound(1.0 - math.log(h.order) / math.log(b.q), h, proper)


@dataclass(frozen=True)
class DimensionBound:
    """Certified lower bound 1 + kappa'(1)/log q for spectra restricted by B."""

    q: int
    members: tuple[int, ...]
    kappa_prime_1: float
    bound: float       # clamped to [0, 1]
    raw_bound: float   # unclamped value, negative only for spectrum-rich B
    subgroup_bound: float
    subgroup: tuple[int, ...]
    proper_inclusion: bool
    delta: float       # bound - subgroup_bound
    witness_vertex: tuple[float, ...]
    vertex_count: int
    symmetrized: bool  # True when the input had to be closed under reflection


def dimension_bound(b: ResidueSet) -> DimensionBound:
    b_sym = symmetrize(b)
    was_symmetrized = b_sym.members != b.members
    polytope = FeasiblePolytope.from_residues(b_sym)
    kp = kappa_prime_1(polytope)
    raw = 1.0 + kp.value / math.log(b_sym.q)
    bound = min(1.0, max(0.0, raw))
    sub = subgroup_bound(b_sym)
    return DimensionBound(
        q=b_sym.q,
        members=b_sym.sorted_members,
        kappa_prime_1=kp.value,
        bound=bound,
        raw_bound=raw,
        subgroup_bound=sub.bound,
        subgroup=sub.subgroup.elements,
        proper_inclusion=sub.proper,
        delta=bound - sub.bound,
        witness_vertex=tuple(float(x) for x in kp.witness),
        vertex_count=len(polytope.vertex_set),
        symmetrized=was_symmetrized,
    )


def def_reform_check(a: float, b_vec, p: float, polytope: FeasiblePolytope,
                     slack: float = 1e-9) -> bool:
    """Single-step growth inequality for one admissible displacement.

    Checks ((1/q) * sum_j |a + b_j|**p)**(1/p) <= a * exp(kappa(1/p)) for a >= 0
    and b in the subspace with b_j >= -a.  Violated preconditions raise
    :class:`PreconditionError`; the return value reports only the inequality.
    """
    if a < 0:
        raise PreconditionError(f"scale a must be non-negative, got {a}")
    if p <= 1.0:
        raise PreconditionError(f"exponent p must exceed 1, got {p}")
    b_vec = np.asarray(b_vec, dtype=float)
    q = polytope.q
    if b_vec.shape != (q,):
        raise PreconditionError(f"expected a length-{q} vector")
    scale = max(1.0, float(np.max(np.abs(b_vec))))
    off = polytope.basis.project_off(b_vec)
    if np.linalg.norm(off) > 1e-12 * scale:
        raise PreconditionError("vector is not in the admissible subspace")
    if b_vec.min() < -a - 1e-12 * max(1.0, a):
        raise PreconditionError("vector entries must be >= -a")
    lhs = float(power_mean(a + b_vec, p))
    rhs = a * math.exp(kappa(1.0 / p, polytope))
    return lhs <= rhs * (1.0 + slack) + 1e-15
