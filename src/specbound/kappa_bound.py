"""Dimension bounds via convex maximization over a vertex-enumerated polytope.

The feasible region is {v in W : v_j >= -1} where W is the admissible-difference
subspace attached to a residue set B.  Both quantities of interest,

    kappa(theta) = max over feasible v of theta * log((1/q) * sum_j |1+v_j|**(1/theta)),
    kappa'(1)    = -(1/q) * max over feasible v of sum_j (1+v_j) * log(1+v_j),

are maxima of convex functions over a compact polytope, hence attained at
extreme points; the module enumerates those points by solving for each
candidate set of active constraints and evaluates the objectives there.  For a
band B = u*{+-1, ..., +-r} (gcd(u, q) = 1, 2r < q) the candidates are exactly
the vertices' active sets, given by Gale's evenness condition; for every other
B they are all C(q, d) coordinate subsets.  The resulting certified lower
bound for the dimension of any admissible non-negative measure is
1 + kappa'(1)/log q, compared against the coarser subgroup bound
1 - log|H|/log q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError, PreconditionError, ResourceLimitError
from .zq_spectral import ResidueSet, SubspaceBasis, symmetrize, wb_basis

FEASIBILITY_TOL = 1e-9
# multiplicative slack of every L_p growth comparison
SLACK = 1e-9
DEDUP_TOL = 1e-7
# active-set solves: C(q, d), or the Gale count for a band; admits the
# half-band at q=28 (155040 Gale solves) and C(20, 10) = 184756 subsets
MAX_VERTEX_SUBSETS = 2 * 10 ** 5
# floats in one stacked (n, d, d) solve: large enough to amortize the call,
# small enough that the chunk temporaries stay well under a megabyte
_SOLVE_FLOATS = 2 ** 14


class FeasiblePolytope:
    """{v = basis @ t : v_j >= -1 for all j}; bounded and containing the origin.

    ``residues`` is the residue set the basis was built from, when known; a
    polytope without one is always enumerated exhaustively.
    """

    def __init__(self, basis: SubspaceBasis, residues: ResidueSet | None = None):
        self.basis = basis
        self.residues = residues

    @property
    def q(self) -> int:
        return self.basis.q

    @classmethod
    @cache
    def from_residues(cls, b: ResidueSet) -> "FeasiblePolytope":
        """The polytope of ``b``, shared per process so each B is enumerated once."""
        return cls(wb_basis(b), b)

    @cached_property
    def band(self) -> tuple[int, int] | None:
        """(u, r) with B = u*{+-1, ..., +-r} mod q and gcd(u, q) = 1, or None."""
        return None if self.residues is None else band_multiplier(self.residues)

    @property
    def vertex_source(self) -> str:
        """Which active sets are solved: "gale" for a band, else "exhaustive"."""
        return "exhaustive" if self.band is None else "gale"

    @cached_property
    def vertex_set(self) -> np.ndarray:
        """Extreme points, shape (n, q), in :func:`polytope_vertices` order; read-only."""
        return polytope_vertices(self)


def polytope_vertices(polytope: FeasiblePolytope) -> np.ndarray:
    """Enumerate the extreme points by solving for their active constraint sets.

    Every vertex of a d-dimensional polytope activates at least d of the q
    constraints v_j >= -1, so solving (M t)_j = -1 on each d-subset of rows
    with an invertible submatrix, then filtering by global feasibility and
    deduplicating, yields exactly the vertex set.  For a band (see
    :attr:`FeasiblePolytope.band`) the candidate sets are only the Gale
    evenness sets of :func:`gale_active_sets`, one per vertex; every other
    polytope tries all C(q, d) subsets in ``combinations`` order.

    Both sources are solved the same way, a chunk at a time, each chunk's
    submatrices as one stack.  Exactly singular submatrices (determinant 0)
    are dropped before the solve; near-singular ones are rejected by a
    residual check at ``FEASIBILITY_TOL`` rather than a condition estimate.
    Solutions within ``DEDUP_TOL`` of each other in the max norm are one
    vertex, represented by the first seen in subset order (see
    :func:`_distinct_rows`).  Rows come back sorted lexicographically by their
    ``DEDUP_TOL``-rounded coordinates, so the order does not depend on
    round-off.  Raises :class:`ResourceLimitError` before any set is built
    when the number of solves exceeds ``MAX_VERTEX_SUBSETS``, and
    :class:`NumericalError` when a Gale set fails a test or two of their
    solutions merge, since Gale's theorem makes each set a distinct vertex.
    """
    m = polytope.basis.columns
    q, d = m.shape
    if d > q:
        raise InvalidInputError(f"subspace dimension {d} exceeds ambient dimension {q}")
    band = polytope.band
    solves = math.comb(q, d) if band is None else gale_vertex_count(q, band[1])
    if solves > MAX_VERTEX_SUBSETS:
        work = f"C({q}, {d}) = {solves}" if band is None else f"{solves} Gale-evenness"
        raise ResourceLimitError(
            f"vertex enumeration needs {work} solves, over the {MAX_VERTEX_SUBSETS:.0e} budget"
        )
    if d == 0:
        return _read_only(np.zeros((0, q)))
    chunk = max(1, _SOLVE_FLOATS // (d * d))
    if band is None:
        stream = combinations(range(q), d)
        chunks = (np.fromiter(islice(stream, chunk), dtype=(np.intp, (d,)))
                  for _ in range(0, solves, chunk))
    else:
        sets = gale_active_sets(q, *band)
        chunks = (sets[lo:lo + chunk] for lo in range(0, solves, chunk))
    # repeated solves of degenerate vertices are dropped chunk by chunk, to
    # bound memory; one chunk is left to _distinct_rows, and Gale sets have none
    per_chunk = band is None and solves > chunk
    found = []
    for idx in chunks:
        v = _feasible_solutions(m, idx)
        if per_chunk:
            v = v[np.sort(_first_per_key(_dedup_keys(v)))]
        found.append(v)
    v = _distinct_rows(np.concatenate(found))
    if band is not None and len(v) != solves:
        raise NumericalError(
            f"Gale evenness gives {solves} vertices for q={q}, d={d}; the solves kept {len(v)}"
        )
    return _read_only(v)


def band_multiplier(b: ResidueSet) -> tuple[int, int] | None:
    """(u, r) with B = u*{+-1, ..., +-r} mod q, u the least unit that works, or None.

    Such a B has 2r members, 2r < q, and never contains q/2.  The empty set
    is not a band.
    """
    q = b.q
    r, odd = divmod(len(b.members), 2)
    if r == 0 or odd:
        return None
    for u in b.sorted_members:
        if math.gcd(u, q) == 1 and {u * k % q for k in range(-r, r + 1) if k} == b.members:
            return u, r
    return None


def gale_vertex_count(q: int, r: int) -> int:
    """q/(q-r) * C(q-r, r), the vertex count of the polytope of a band {+-1, ..., +-r}."""
    return math.comb(q - r, r) + math.comb(q - r - 1, r - 1)


def _combination_rows(n: int, k: int) -> np.ndarray:
    count = math.comb(n, k)
    flat = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.intp, count=count * k)
    return flat.reshape(count, k)


def gale_active_sets(q: int, u: int, r: int) -> np.ndarray:
    """Active sets of the vertices of the polytope of u*{+-1, ..., +-r}, shape (n, 2r).

    For u = 1 the constraint normals (cos 2 pi j m/q, sin 2 pi j m/q),
    m = 1..r, lie on the trigonometric moment curve, so their convex hull is
    the cyclic polytope C(q, 2r) and the feasible polytope is its polar.  By
    Gale's evenness condition (Gale 1963; Ziegler, *Lectures on Polytopes*,
    section 0) the vertices' active sets are exactly the unions of r disjoint
    cyclically adjacent pairs {i, i+1 mod q}: C(q-r, r) whose pair starts
    i_k = c_k + k come from increasing c in 0..q-r-1, and C(q-r-1, r-1) that
    use the pair {q-1, 0}.  Row j of u*B's constraints is row u*j of B's, so
    the sets are mapped by j -> u^-1 j.  Each row is sorted, so it selects
    the same submatrix as the equal subset in ``combinations``.
    """
    inside = _combination_rows(q - r, r) + np.arange(r)
    wrapping = _combination_rows(q - r - 1, r - 1) + np.arange(1, r)
    wrapping = np.column_stack((wrapping, np.full(len(wrapping), q - 1)))
    starts = np.concatenate((inside, wrapping))
    pairs = np.concatenate((starts, (starts + 1) % q), axis=1)
    return np.sort(pairs * pow(u, -1, q) % q, axis=1)


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
    """Index of the first row of each distinct key row, in lexicographic key order."""
    order = np.lexsort(keys.T[::-1])  # stable, so each run of equal keys starts at its first row
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    return order[new]


def _distinct_rows(v: np.ndarray) -> np.ndarray:
    """Greedy dedup in row order: a row closer than ``DEDUP_TOL`` (max norm)
    to an earlier kept row is dropped.  The kept rows come back sorted
    lexicographically by their ``DEDUP_TOL``-rounded keys.

    Rows with equal rounded keys merge into the first of them; the one stable
    sort of the keys that finds those also gives the output order.  Pairs
    closer than the tolerance with different keys (they straddle a rounding
    boundary) are found as runs of small gaps in a sorted 1-D projection and
    settled by the greedy rule, in row order, within each run.  This is the
    pairwise greedy rule whenever each cluster of near-copies is narrower than
    ``DEDUP_TOL``, as the ~1e-14 spread of repeated vertex solves is.
    """
    firsts = _first_per_key(_dedup_keys(v))
    rows = np.sort(firsts)
    u = v[rows]
    # positive weights summing to 1, so |w.(x - y)| <= max|x - y| and a close
    # pair has a close projection; a transcendental ratio keeps them generic,
    # so that distinct vertices rarely project close together
    w = np.exp(-np.arange(u.shape[1]) / np.pi)
    proj = u @ (w / w.sum())
    order = np.argsort(proj, kind="stable")
    # twice the tolerance leaves room for round-off in the projection
    small = np.diff(proj[order]) < 2.0 * DEDUP_TOL
    starts = np.flatnonzero(np.concatenate(([True], ~small)))
    lengths = np.diff(starts, append=len(u))
    keep = np.ones(len(v), dtype=bool)
    for start, length in zip(starts[lengths > 1], lengths[lengths > 1]):
        run = np.sort(order[start:start + length])
        block = u[run]
        near = np.abs(block[:, None, :] - block[None, :, :]).max(axis=2) < DEDUP_TOL
        kept: list[int] = []
        for i in range(length):
            if near[i, kept].any():
                keep[rows[run[i]]] = False
            else:
                kept.append(i)
    return v[firsts[keep[firsts]]]


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

    Each vertex objective theta * log((1/q) * sum_j (1+v_j)**(1/theta)) is the
    log of the 1/theta power mean of 1 + v, which :func:`power_mean` takes
    with each vertex's largest entry factored out, so small theta never
    overflows.  All vertices are one array expression.  kappa(1) is exactly
    0: the zero-sum constraint makes every vertex objective log(1) there.
    """
    if not 0.0 < theta <= 1.0:
        raise InvalidInputError(f"theta must lie in (0, 1], got {theta}")
    if theta == 1.0:
        return 0.0
    vertices = polytope.vertex_set
    if vertices.shape[0] == 0:
        return 0.0  # origin-only polytope
    # each row of 1 + v sums to q, so every power mean is positive
    return float(np.max(np.log(power_mean(_clipped_shift(vertices).T, 1.0 / theta))))


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
    vertex_source: str  # "gale" or "exhaustive", see FeasiblePolytope.vertex_source
    symmetrized: bool  # True when the input had to be closed under reflection


def dimension_bound(b: ResidueSet) -> DimensionBound:
    """The certified bound for the symmetrized ``b``, beside the subgroup bound.

    The smallest subgroup H of Z_q containing B is the multiples of
    g = gcd(B | {q}); empty B gives g = q, the trivial subgroup and bound 1.
    """
    b_sym = symmetrize(b)
    was_symmetrized = b_sym.members != b.members
    polytope = FeasiblePolytope.from_residues(b_sym)
    kp = kappa_prime_1(polytope)
    q = b_sym.q
    raw = 1.0 + kp.value / math.log(q)
    bound = min(1.0, max(0.0, raw))
    g = math.gcd(q, *b_sym.members)
    subgroup = tuple(range(0, q, g))
    subgroup_bound = 1.0 - math.log(q // g) / math.log(q)
    return DimensionBound(
        q=q,
        members=b_sym.sorted_members,
        kappa_prime_1=kp.value,
        bound=bound,
        raw_bound=raw,
        subgroup_bound=subgroup_bound,
        subgroup=subgroup,
        proper_inclusion=b_sym.members != set(subgroup[1:]),
        delta=bound - subgroup_bound,
        witness_vertex=tuple(float(x) for x in kp.witness),
        vertex_count=len(polytope.vertex_set),
        vertex_source=polytope.vertex_source,
        symmetrized=was_symmetrized,
    )


def def_reform_check(a: float, b_vec, p: float, polytope: FeasiblePolytope) -> bool:
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
    return lhs <= rhs * (1.0 + SLACK) + 1e-15
