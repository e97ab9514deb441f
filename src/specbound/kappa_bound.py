"""Dimension bounds via convex maximization over the vertices of a polytope.

The feasible region is {v in W : v_j >= -1} where W is the admissible-difference
subspace attached to a residue set B.  Both quantities of interest,

    kappa(theta) = max over feasible v of theta * log((1/q) * sum_j |1+v_j|**(1/theta)),
    kappa'(1)    = -(1/q) * max over feasible v of sum_j (1+v_j) * log(1+v_j),

are maxima of convex functions over a compact polytope, hence attained at
extreme points.  For a band B = u*{+-1, ..., +-r} (gcd(u, q) = 1, 2r < q)
Gale's evenness condition names the vertices' active sets and each vertex is a
normalized product of sines (:func:`band_vertices`).  The polytope of every B
is invariant under the dihedral group j -> c +- j of Z_q, and both objectives
are symmetric functions of the coordinates, so for a band they are maximized
over one vertex per dihedral orbit: one per bracelet of the gaps between its r
active pairs, that is, per necklace of the gaps (:func:`necklaces`) that no
rotation of its reversal undercuts (:func:`bracelets`).  No other band vertex
is ever built.  Every other B is maximized over its vertex set, enumerated by
solving for all C(q, d) candidate active sets (:func:`polytope_vertices`).
The resulting certified lower bound for the dimension of any admissible
non-negative measure is 1 + kappa'(1)/log q, compared against the coarser
subgroup bound 1 - log|H|/log q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError, check_budget
from .zq_spectral import ResidueSet, SubspaceBasis, symmetrize, wb_basis

FEASIBILITY_TOL = 1e-9
# multiplicative slack of every L_p growth comparison
SLACK = 1e-9
DEDUP_TOL = 1e-7
# d-subset solves of an exhaustive enumeration, C(q, d), checked before any
# subset is built: admits C(20, 10) = 184756
MAX_VERTEX_SUBSETS = 2 * 10 ** 5
# dihedral orbits of a band's vertices, counted by Burnside's lemma before any
# is generated: admits the half-band at q=40 (502303), not at q=44 (2934559)
MAX_BAND_ORBITS = 10 ** 6
# log-sine terms summed over those orbits, orbits x r x q: the same guard for
# wide bands, whose few orbits each cost r terms per coordinate (the q=40
# half-band sums 2.0e8)
MAX_BAND_TERMS = 10 ** 9
# floats in one stacked (n, d, d) solve: large enough to amortize the call,
# small enough that each chunk temporary (64 KiB) stays under the 128 KiB at
# which glibc's malloc maps fresh memory instead of reusing its heap
_SOLVE_FLOATS = 2 ** 13
# floats in one (n, q) chunk of closed-form vertices: 128 KiB per array, the
# fastest of 2^12..2^16 on the q=40 half-band
_VERTEX_FLOATS = 2 ** 14


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
    @lru_cache(maxsize=1)
    def from_residues(cls, b: ResidueSet) -> "FeasiblePolytope":
        """The polytope of ``b``; the last one built is kept for the next call on the same B."""
        return cls(wb_basis(b), b)

    @cached_property
    def band(self) -> tuple[int, int] | None:
        """(u, r) with B = u*{+-1, ..., +-r} mod q and gcd(u, q) = 1, or None."""
        return None if self.residues is None else band_multiplier(self.residues)

    @property
    def vertex_source(self) -> str:
        """Where the vertices come from: "gale" (closed form) for a band, else "exhaustive"."""
        return "exhaustive" if self.band is None else "gale"

    @cached_property
    def vertex_set(self) -> np.ndarray:
        """The exhaustive enumeration of :func:`polytope_vertices`, shape (n, q), read-only.

        Its rows may include feasible points that are not vertices: a d-subset
        singular in exact arithmetic can pass the float determinant and
        residual tests and solve to a point on a face.  Such points lie in the
        polytope, so the convex maxima are unchanged.  A band's kappa and
        kappa'(1) never read it: :func:`representatives` builds one
        closed-form vertex per dihedral orbit instead.
        """
        return polytope_vertices(self)


def polytope_vertices(polytope: FeasiblePolytope) -> np.ndarray:
    """The extreme points, sorted lexicographically by their ``DEDUP_TOL``-rounded coordinates.

    The order does not depend on round-off.  Every polytope, a band's too, is
    enumerated exhaustively.  Every vertex of a d-dimensional polytope
    activates at least d of the q constraints v_j >= -1, so solving
    (M t)_j = -1 on each d-subset of rows with an invertible submatrix, then
    filtering by global feasibility and deduplicating, yields every vertex
    (and can add feasible non-vertices, see
    :attr:`FeasiblePolytope.vertex_set`).  All C(q, d) subsets are
    solved in ``combinations`` order, a chunk at a time, each chunk's
    submatrices as one stack and its repeated solves dropped as it is made,
    to bound memory.  Exactly singular submatrices (determinant 0)
    are dropped before the solve; near-singular ones are rejected by a
    residual check at ``FEASIBILITY_TOL`` rather than a condition estimate.
    Solutions within ``DEDUP_TOL`` of each other in the max norm are one
    vertex, represented by the first seen in subset order (see
    :func:`_distinct_rows`).  Raises :class:`ResourceLimitError` before any
    subset is built when C(q, d) exceeds ``MAX_VERTEX_SUBSETS``.
    """
    m = polytope.basis.columns
    q, d = m.shape
    if d > q:
        raise InvalidInputError(f"subspace dimension {d} exceeds ambient dimension {q}")
    solves = math.comb(q, d)
    check_budget(f"vertex-subset solves C({q}, {d})", solves, MAX_VERTEX_SUBSETS)
    if d == 0:
        return _read_only(np.zeros((0, q)))
    chunk = max(1, _SOLVE_FLOATS // (d * d))
    stream = combinations(range(q), d)
    found = []
    for lo in range(0, solves, chunk):
        v = _feasible_solutions(m, _rows(stream, min(chunk, solves - lo), d))
        found.append(v[_ascending(_first_per_key(_dedup_keys(v)), len(v))])
    return _read_only(_distinct_rows(np.concatenate(found)))


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
    """q/(q-r) * C(q-r, r), the vertex count of the polytope of a band {+-1, ..., +-r}.

    For u = 1 the constraint normals (cos 2 pi j m/q, sin 2 pi j m/q),
    m = 1..r, lie on the trigonometric moment curve, so their convex hull is
    the cyclic polytope C(q, 2r) and the feasible polytope is its polar.  By
    Gale's evenness condition (Gale 1963; Ziegler, *Lectures on Polytopes*,
    section 0) the vertices' active sets are exactly the unions of r disjoint
    cyclically adjacent pairs {i, i+1 mod q}: C(q-r, r) that avoid the pair
    {q-1, 0} and C(q-r-1, r-1) that use it.  For u*B the pairs are positions
    in the frame x = u*j mod q: row j of u*B's constraints is row u*j of B's.
    """
    return math.comb(q - r, r) + math.comb(q - r - 1, r - 1)


def _rows(stream, n: int, k: int) -> np.ndarray:
    """The next ``n`` length-``k`` integer tuples of ``stream``, fewer at its end, as k columns."""
    return np.fromiter(chain.from_iterable(islice(stream, n)), np.intp).reshape(-1, k)


def _sine_products(q: int, u: int, starts: np.ndarray) -> np.ndarray:
    """1 + v for the band vertex with active pairs {s, s+1} at each row of ``starts``."""
    k = np.arange(q)
    with np.errstate(divide="ignore"):
        # log|sin(pi k/q)|, computed on 0 <= k <= q/2 so that it is exactly
        # symmetric under k -> q - k, and -inf at k = 0
        log_sine = np.log(np.sin(np.pi * np.where(2 * k <= q, k, q - k) / q))
    # the pair {s, s+1} contributes pair[(x - s) mod q] at frame position x;
    # doubled, the table takes q + x - s in 1..2q-1 without a modulus
    pair = log_sine + log_sine[k - 1]
    pair = np.concatenate((pair, pair))
    shift = q + k
    logs = pair[shift - starts[:, :1]]
    for i in range(1, starts.shape[1]):
        logs += pair[shift - starts[:, i:i + 1]]
    p = np.exp(logs - logs.max(axis=1, keepdims=True))
    p *= q / p.sum(axis=1, keepdims=True)
    return p[:, u * k % q]


def band_vertices(polytope: FeasiblePolytope, starts: np.ndarray) -> np.ndarray:
    """The vertices of a band's polytope with active pairs at each row of ``starts``, shape (n, q).

    Take B = u*{+-1, ..., +-r} and r disjoint pairs S = {s, s+1} in the frame
    x = u*j mod q.  The vertex active on S has 1 + v a real trigonometric
    polynomial of degree r in x, of mean 1, vanishing on S.  Up to scale that
    is prod_{s in S} sin(pi*(x - s)/q), and adjacent pairs make it one-signed
    on Z_q.  So

        1 + v_j = q * P_j / sum_i P_i,  P_j = prod_{s in S} |sin(pi*(u*j - s)/q)|,

    summed in log space from one table of pair terms (r per coordinate) and
    normalized by each row's largest P_j.  Active coordinates come out exactly
    -1.  Each row must lie in the subspace and the polytope to
    ``FEASIBILITY_TOL`` (times its largest entry, at least 1), or
    :class:`NumericalError` is raised.
    """
    v = _sine_products(polytope.q, polytope.band[0], starts) - 1.0
    off = np.abs(polytope.basis.project_off(v.T)).max(axis=0, initial=0.0)
    scale = np.abs(v).max(axis=1, initial=1.0)
    # written so that NaN fails
    if not ((off / scale).max(initial=0.0) <= FEASIBILITY_TOL
            and v.min(initial=0.0) >= -1.0 - FEASIBILITY_TOL):
        raise NumericalError(
            f"a closed-form band vertex for q={polytope.q} fails the subspace or "
            f"feasibility test at {FEASIBILITY_TOL:.0e}"
        )
    return v


def band_orbit_count(q: int, r: int) -> int:
    """Dihedral orbits of the vertices of a band's polytope, by Burnside's lemma.

    A vertex is given by the gaps g_1, ..., g_r >= 0 between its r active
    pairs, with sum q - 2r; rotations and reflections of Z_q rotate and reverse
    that sequence, so the orbits are its bracelets.  Of the r rotations, the
    one by k fixes the sequences of period c = gcd(k, r), which exist when
    r/c divides q - 2r.  Each of the r reflections fixes the sequences that
    read the same from both ends of its axis: for odd r, a middle gap and
    m = (r-1)/2 mirrored pairs; for even r, either two middle gaps and
    m = r/2 - 1 pairs, or r/2 pairs.  Sums over the mirrored pairs' total
    s <= (q - 2r)/2 collapse by the hockey-stick identity.
    """
    n = q - 2 * r
    fixed = sum(_compositions(n * c // r, c)
                for c in map(math.gcd, range(r), repeat(r)) if n * c % r == 0)
    half = n // 2
    if r % 2:
        m = (r - 1) // 2
        fixed += r * math.comb(half + m, m)
    else:
        m = r // 2 - 1
        # sum over s of (n - 2s + 1) * C(s + m - 1, m - 1)
        fixed += r // 2 * ((n + 1) * math.comb(half + m, m) - 2 * m * math.comb(half + m, m + 1))
        if n % 2 == 0:
            fixed += r // 2 * _compositions(half, r // 2)
    return fixed // (2 * r)


def _compositions(total: int, parts: int) -> int:
    # sequences of parts >= 1 integers >= 0 with the given total
    return math.comb(total + parts - 1, parts - 1)


def necklaces(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    """Each sequence of ``parts`` integers >= 0 with sum ``total``, up to
    rotation, once: its lexicographically least rotation, in lexicographic
    order.

    The Fredricksen-Kessler-Maiorana algorithm (Ruskey, Savage and Wang,
    "Generating necklaces", J. Algorithms 13, 1992) with the sum fixed,
    iterative so that its depth is not limited by the recursion limit.  It
    extends prenecklaces a_1..a_t by a_t >= a_{t-p}, p the period of the
    longest Lyndon prefix of a_1..a_{t-1}, and a full-length prenecklace is a
    necklace when p divides its length.  Every entry of a prenecklace is at
    least a_1, so a prefix is pruned when the remaining parts cannot meet the
    sum, and the last entry is what the sum leaves.
    """
    n, k = parts, total
    if n == 1:
        yield (k,)
        return
    a = [0] * (n + 1)
    # state after a_t is set: Lyndon period and the running sum
    period = [1] * (n + 1)
    acc = [0] * (n + 1)
    for first in range(k // n + 1):
        a[1] = acc[1] = first
        t, x = 2, None
        while t > 1:
            p = period[t - 1]
            ref = a[t - p]
            top = k - acc[t - 1] - (n - t) * first
            if t == n:
                if top >= ref and n % (p if top == ref else n) == 0:
                    a[n] = top
                    yield tuple(a[1:])
                t -= 1
                x = a[t] + 1
                continue
            if x is None:
                x = ref
            if x > top:
                t -= 1
                x = a[t] + 1
                continue
            a[t] = x
            period[t] = p if x == ref else t
            acc[t] = acc[t - 1] + x
            t, x = t + 1, None


def bracelets(parts: int, total: int) -> Iterator[np.ndarray]:
    """Each sequence of ``parts`` integers >= 0 with sum ``total``, up to
    rotation and reversal, once: its lexicographically least form, in
    lexicographic order, as arrays of rows.

    A necklace is a bracelet exactly when no rotation of its reversal is
    lexicographically smaller.  The :func:`necklaces` are tested
    ``_VERTEX_FLOATS // parts`` at a time.  Written as big-endian unsigned
    integers of the least width that holds ``total``, rows compare
    lexicographically as byte strings do (numpy drops trailing zero bytes
    before it compares, which changes no order, as zero is the least byte).
    Each rotation of a reversal is read in place as a window of the reversal
    written twice, so the test takes one string comparison per rotation.
    """
    n = parts
    width = np.min_scalar_type(total).newbyteorder(">")
    size = width.itemsize
    stream = necklaces(n, total)
    while len(g := _rows(stream, max(1, _VERTEX_FLOATS // n), n)):
        twice = np.concatenate((g[:, ::-1], g[:, ::-1]), axis=1).astype(width)
        turns = np.ndarray((len(g), n), f"S{n * size}", twice, strides=(2 * n * size, size))
        yield g[(turns >= g.astype(width).view(turns.dtype)).all(axis=1)]


def representatives(polytope: FeasiblePolytope) -> Iterator[np.ndarray]:
    """Chunks of vertices that meet every orbit of the dihedral group: for a
    band one vertex per orbit, built on every pass (tens of microseconds for
    a one-chunk band), for any other polytope its cached vertex set."""
    if polytope.band is None:
        if len(polytope.vertex_set):
            yield polytope.vertex_set
    else:
        yield from _orbit_chunks(polytope)


def _orbit_chunks(polytope: FeasiblePolytope) -> Iterator[np.ndarray]:
    """One vertex per dihedral orbit of a band, a chunk at a time.

    The pairs start at 0 and follow each other at the gaps of one bracelet.
    The bracelets come one array per chunk of necklaces tested and go to
    :func:`band_vertices` at most ``_VERTEX_FLOATS // q`` at a time.  Raises
    :class:`ResourceLimitError` before any is generated when the Burnside
    count exceeds ``MAX_BAND_ORBITS`` or its log-sine terms exceed
    ``MAX_BAND_TERMS``.
    """
    q, r = polytope.q, polytope.band[1]
    count = band_orbit_count(q, r)
    check_budget(f"dihedral-orbit vertices of the q={q} band of {r} pairs", count, MAX_BAND_ORBITS)
    check_budget(f"log-sine terms of {count} dihedral-orbit vertices of {r} pairs x {q} "
                 "coordinates", count * r * q, MAX_BAND_TERMS)
    per = max(1, _VERTEX_FLOATS // q)
    for g in bracelets(r, q - 2 * r):
        starts = np.cumsum(g, axis=1) - g + 2 * np.arange(r)
        for lo in range(0, len(starts), per):
            yield band_vertices(polytope, starts[lo:lo + per])


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


def _ascending(indices: np.ndarray, n: int) -> np.ndarray:
    """The distinct ``indices`` (all below n) in increasing order, in O(n) without a sort."""
    keep = np.zeros(n, dtype=bool)
    keep[indices] = True
    return np.flatnonzero(keep)


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
    rows = _ascending(firsts, len(v))
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


def power_mean(values: np.ndarray, p: float | np.ndarray) -> np.ndarray:
    """(mean over axis 0 of |x|**p)**(1/p), with max |x| factored out so that
    no power overflows, however large p is.  Elementwise in ``p``: an array of
    exponents puts its axes first, one mean per exponent from one broadcast
    power, each summed in the order a scalar ``p`` sums it."""
    magnitude = np.abs(values)
    top = magnitude.max(axis=0)
    scale = np.where(top > 0, top, 1.0)
    p = np.asarray(p, dtype=float)
    # a 0-d p keeps numpy's exactly rounded scalar forms of x**2 and x**0.5
    exponent = p.reshape(p.shape + (1,) * magnitude.ndim) if p.ndim else p
    mean = np.mean((magnitude / scale) ** exponent, axis=p.ndim, keepdims=True)
    return scale * (mean ** (1.0 / exponent)).squeeze(axis=p.ndim)


def kappa(theta: float | np.ndarray, polytope: FeasiblePolytope) -> float | np.ndarray:
    """Growth exponent at theta in (0, 1], maximized over the vertices.

    Each vertex objective theta * log((1/q) * sum_j (1+v_j)**(1/theta)) is the
    log of the 1/theta power mean of 1 + v, which :func:`power_mean` takes
    with each vertex's largest entry factored out, so small theta never
    overflows.  It is symmetric in the coordinates, so the maximum is taken
    over the dihedral-orbit representatives of :func:`representatives`, a
    chunk at a time.  kappa(1) is exactly 0: the zero-sum constraint makes
    every vertex objective log(1) there.  Elementwise in ``theta``: a scalar
    gives a float, an array an array of its shape from one pass over the
    representatives, each chunk in one power mean at every exponent.
    """
    theta = np.asarray(theta, dtype=float)
    # written so that NaN fails
    if not np.all((theta > 0.0) & (theta <= 1.0)):
        raise InvalidInputError(f"theta must lie in (0, 1], got {theta}")
    top = np.full(theta.shape, -np.inf)
    for v in representatives(polytope):
        top = np.maximum(top, np.log(power_mean(_clipped_shift(v).T, 1.0 / theta)).max(axis=-1))
    # each row of 1 + v sums to q, so every power mean is positive and -inf
    # means no vertex: an origin-only polytope gives 0
    value = np.where((theta == 1.0) | np.isneginf(top), 0.0, top)
    return float(value) if value.ndim == 0 else value


class KappaPrime(NamedTuple):
    value: float
    witness: np.ndarray


def kappa_prime_1(polytope: FeasiblePolytope) -> KappaPrime:
    """Left derivative of kappa at 1: -(1/q) * max_v sum_j (1+v_j)*log(1+v_j).

    The objective is convex (affine maps composed with t*log(t), extended by
    0 at t=0), so the maximum over the polytope is attained at a vertex, and
    symmetric in the coordinates, so it is taken over the dihedral-orbit
    representatives of :func:`representatives`.  The witness is the first
    vertex tied with the maximum (to 1e-12 relative) in lexicographic order of
    the ``DEDUP_TOL``-rounded coordinates, so round-off in the vertices cannot
    change it; for a band :func:`_first_image` finds it without expanding any
    orbit.
    """
    q = polytope.q
    top = -math.inf
    # the vertices within the tie tolerance of the maximum so far, and their objectives
    rows, values = np.zeros((0, q)), np.zeros(0)
    for v in representatives(polytope):
        objective = xlogx(_clipped_shift(v)).sum(axis=1)
        top = max(top, float(objective.max()))
        rows, values = np.concatenate((rows, v)), np.concatenate((values, objective))
        tied = values >= top - 1e-12 * max(1.0, abs(top))
        rows, values = rows[tied], values[tied]
    if not len(rows):
        return KappaPrime(0.0, np.zeros(q))
    # a vertex set is already in rounded-lexicographic order
    witness = rows[0].copy() if polytope.band is None else _first_image(rows)
    return KappaPrime(-top / q, witness)


def _first_image(rows: np.ndarray) -> np.ndarray:
    """The member of the rows' dihedral orbits first in ``DEDUP_TOL``-rounded lexicographic order.

    That member starts with an active coordinate v_a = -1, so the candidates
    are the 4r images j -> v[(a +- j) mod q] of each row over its active a.
    One pass keeps the least key row so far, replaced only by a candidate
    whose first differing key is smaller, so a tie keeps the earlier
    candidate and no orbit is expanded into rows.
    """
    q = rows.shape[1]
    keys = _dedup_keys(rows)
    j = np.arange(q)
    best = best_key = None
    for row, start in zip(*np.nonzero(rows == -1.0)):
        for index in ((start + j) % q, (start - j) % q):
            key = keys[row, index]
            if best_key is not None:
                differ = np.flatnonzero(key != best_key)
                if not len(differ) or key[differ[0]] > best_key[differ[0]]:
                    continue
            best, best_key = rows[row, index], key
    return best


@dataclass(frozen=True)
class DimensionBound:
    """Certified lower bound 1 + kappa'(1)/log q for spectra restricted by B."""

    q: int
    members: tuple[int, ...]
    kappa_prime_1: float
    bound: float       # clamped to [0, 1]
    raw_bound: float   # unclamped value, negative only for spectrum-rich B
    subgroup_bound: float
    subgroup_generator: int  # g: the subgroup H is g*Z_q, of order q/g
    proper_inclusion: bool
    delta: float       # bound - subgroup_bound
    witness_vertex: tuple[float, ...]
    # the Gale count for a band; for an exhaustive B the rows of vertex_set,
    # which can count feasible non-vertices too (kappa_prime_1 is unaffected)
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
    q, band = b_sym.q, polytope.band
    raw = 1.0 + kp.value / math.log(q)
    bound = min(1.0, max(0.0, raw))
    g = math.gcd(q, *b_sym.members)
    subgroup_bound = 1.0 - math.log(q // g) / math.log(q)
    return DimensionBound(
        q=q,
        members=b_sym.sorted_members,
        kappa_prime_1=kp.value,
        bound=bound,
        raw_bound=raw,
        subgroup_bound=subgroup_bound,
        subgroup_generator=g,
        # B lies in H minus {0}, so it is all of it exactly when it has q/g - 1 members
        proper_inclusion=len(b_sym.members) != q // g - 1,
        delta=bound - subgroup_bound,
        witness_vertex=tuple(kp.witness.tolist()),
        vertex_count=len(polytope.vertex_set) if band is None else gale_vertex_count(q, band[1]),
        vertex_source=polytope.vertex_source,
        symmetrized=was_symmetrized,
    )

