import functools
import math
import warnings
from itertools import combinations, islice

import numpy as np
import pytest

from cli_child import loaded_after_import
from specbound import kappa_bound as kb
from specbound import zq_spectral as zq
from specbound.verify import symmetric_residue_sets
from specbound.errors import InvalidInputError, NumericalError, ResourceLimitError

LOG2 = math.log(2.0)


def polytope(q, members):
    return kb.FeasiblePolytope.from_residues(zq.ResidueSet.of(q, members))


def nonempty_symmetric_sets(q):
    """The symmetric B of Z_q after the empty one, whose polytope has no rows."""
    return islice(symmetric_residue_sets(q), 1, None)


def assert_same_vertex_set(actual: np.ndarray, expected, tol=1e-9):
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    for row in expected:
        assert any(np.max(np.abs(row - v)) <= tol for v in actual), f"missing vertex {row}"


def pairwise_greedy(rows):
    """Reference dedup: keep a row unless it is within DEDUP_TOL of a kept one."""
    kept = []
    for v in rows:
        if not any(np.max(np.abs(v - w)) < kb.DEDUP_TOL for w in kept):
            kept.append(v)
    return np.array(kept)


class TestVertices:
    def test_q4_alternating_pair(self):
        vs = polytope(4, [2]).vertex_set
        assert_same_vertex_set(vs, [[1, -1, 1, -1], [-1, 1, -1, 1]])

    def test_q4_two_pairs(self):
        vs = polytope(4, [1, 3]).vertex_set
        assert_same_vertex_set(vs, [[1, 1, -1, -1], [-1, -1, 1, 1],
                                    [1, -1, -1, 1], [-1, 1, 1, -1]])

    def test_q3_simplex(self):
        vs = polytope(3, [1, 2]).vertex_set
        assert_same_vertex_set(vs, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_zero_dimensional(self):
        assert len(polytope(5, []).vertex_set) == 0

    def test_feasibility_and_membership(self):
        for q, members in [(5, [1, 4]), (6, [1, 2, 4, 5]), (8, [2, 6]), (9, [3, 6])]:
            p = polytope(q, members)
            vs = p.vertex_set
            assert len(vs) > 0
            assert vs.min() >= -1 - 1e-10
            for v in vs:
                assert np.linalg.norm(p.basis.project_off(v)) <= 1e-10
                # a vertex activates at least dim constraints
                assert np.sum(np.abs(v + 1) <= 1e-7) >= p.basis.dim

    def test_closed_under_negation_when_feasible(self):
        for q, members in [(4, [2]), (5, [1, 4]), (7, [2, 5]), (8, [1, 3, 5, 7])]:
            vs = polytope(q, members).vertex_set
            for v in vs:
                if (-v).min() >= -1 - 1e-9:
                    assert any(np.max(np.abs(-v - w)) <= 1e-7 for w in vs)

    def test_enumerated_once_per_residue_set(self):
        # equal residue sets share one polytope, so the vertices are solved once
        first = polytope(8, [1, 3, 5, 7])
        assert polytope(8, [7, 5, 3, 1]) is first
        assert first.vertex_set is first.vertex_set
        assert not first.vertex_set.flags.writeable

    def test_subset_budget_guard(self):
        # refused on C(q, d) before any subset is built, a band's polytope
        # like any other: the q=40 half-band needs C(40, 20) ~ 1.4e11 solves
        members = [*range(1, 11), *range(30, 40)]
        with pytest.raises(ResourceLimitError, match=r"C\(40, 20\) = 137846528820,"):
            kb.polytope_vertices(polytope(40, members))
        # with 20 added it is no band: C(40, 21) ~ 1.3e11 subsets
        p = polytope(40, [*members, 20])
        assert p.band is None
        assert math.comb(40, p.basis.dim) > kb.MAX_VERTEX_SUBSETS
        with pytest.raises(ResourceLimitError, match=r"C\(40, 21\)"):
            kb.polytope_vertices(p)
        # the q-gon at q=5000 has d=2, but C(5000, 2) is over the budget too
        with pytest.raises(ResourceLimitError, match=r"C\(5000, 2\) = 12497500,"):
            kb.polytope_vertices(polytope(5000, [1, 4999]))
        # the budget admits C(20, 10), the largest half-band enumerated here
        assert math.comb(20, 10) <= kb.MAX_VERTEX_SUBSETS < math.comb(22, 11)

    def test_pairwise_distinct(self):
        vs = polytope(8, [1, 3, 5, 7]).vertex_set
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert np.max(np.abs(vs[i] - vs[j])) >= 1e-7

    @pytest.mark.parametrize("q,count", [(16, 660), (18, 1287), (20, 4004)])
    def test_half_band_vertex_counts(self, q, count):
        assert len(half_band_vertex_set(q)) == count

    def test_matches_per_subset_reference(self):
        # the one-subset-at-a-time enumerator, kept as the reference
        def reference(p):
            m = p.basis.columns
            q, d = m.shape
            found = []
            for subset in combinations(range(q), d):
                a = m[list(subset)]
                try:
                    t = np.linalg.solve(a, -np.ones(d))
                except np.linalg.LinAlgError:
                    continue
                v = m @ t
                solved = np.max(np.abs(a @ t + 1.0)) <= kb.FEASIBILITY_TOL
                if solved and v.min() >= -1.0 - kb.FEASIBILITY_TOL:
                    found.append(v)
            return pairwise_greedy(found).reshape(-1, q)

        for q in range(3, 11):
            for b in nonempty_symmetric_sets(q):
                p = kb.FeasiblePolytope.from_residues(b)
                assert_same_vertex_set(p.vertex_set, reference(p), tol=1e-12)

    def test_rows_in_rounded_lexicographic_order(self):
        vs = polytope(12, [1, 2, 3, 9, 10, 11]).vertex_set
        keys = [tuple(np.rint(v / kb.DEDUP_TOL).astype(int)) for v in vs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def bands(q):
    """Every band u*{+-1, ..., +-r} with 2r < q and gcd(u, q) = 1, each once."""
    found = {frozenset(u * k % q for k in range(-r, r + 1) if k)
             for r in range(1, (q + 1) // 2) for u in range(1, q) if math.gcd(u, q) == 1}
    return [zq.ResidueSet(q, members) for members in sorted(found, key=sorted)]


def half_band(q):
    h = q // 4
    return zq.ResidueSet.of(q, [*range(1, h + 1), *range(q - h, q)])


@functools.cache
def half_band_vertex_set(q):
    """The half-band's exhaustive vertex set, enumerated once per test process
    (C(20, 10) = 184756 solves at q = 20) for the tests that compare with it."""
    return kb.FeasiblePolytope.from_residues(half_band(q)).vertex_set


def orbit_rows(b):
    """The rows kappa and kappa'(1) read for the band ``b``: one vertex per dihedral orbit."""
    return np.concatenate(list(kb.representatives(kb.FeasiblePolytope.from_residues(b))))


def dihedral_images(rows):
    """Every image j -> row[(start +- j) mod q] of every row, in the order row, start, +-."""
    q = rows.shape[1]
    j = np.arange(q)
    index = np.array([(start + sign * j) % q for start in range(q) for sign in (1, -1)])
    return rows[:, index].reshape(-1, q)


def expanded_orbits(b):
    """The band's vertices, from its orbit rows alone: their dihedral images,
    deduplicated and in rounded-lexicographic order."""
    return kb._distinct_rows(dihedral_images(orbit_rows(b)))


def first_image_oracle(rows):
    """The first of the rows' dihedral images with the least ``DEDUP_TOL``-rounded key row."""
    images = dihedral_images(rows)
    keys = np.rint(images / kb.DEDUP_TOL).astype(np.int64)
    return images[np.lexsort((np.arange(len(images)), *keys.T[::-1]))[0]]


def least_forms(parts, total, reflect):
    """Every sequence of ``parts`` integers >= 0 with sum ``total``, as its
    least rotation (or rotation of its reversal, with ``reflect``), sorted:
    canonicalized from each composition of the total."""
    least = set()
    for cut in combinations(range(total + parts - 1), parts - 1):
        ends = (-1, *cut, total + parts - 1)
        seq = tuple(ends[i + 1] - ends[i] - 1 for i in range(parts))
        turns = [seq[i:] + seq[:i] for i in range(parts)]
        least.add(min(turns + [t[::-1] for t in turns] if reflect else turns))
    return sorted(least)


class TestGaleEvenness:
    @pytest.mark.parametrize("q,members,expected", [
        (12, [1, 11], (1, 1)),
        (12, [5, 7], (5, 1)),
        (12, [1, 2, 10, 11], (1, 2)),
        (7, [2, 3, 4, 5], (2, 2)),   # 2*{+-1, +-2} = {2, 4, 5, 3}
        (9, range(1, 9), (1, 4)),    # every residue: the simplex
        (12, [2, 10], None),         # 2*{+-1}, but 2 is no unit mod 12
        (15, [3, 6, 9, 12], None),
        (12, [1, 3, 9, 11], None),   # no unit maps {+-1, +-2} onto it
        (8, [1, 4, 7], None),        # contains q/2
        (8, [], None),
    ])
    def test_band_multiplier(self, q, members, expected):
        assert kb.band_multiplier(zq.ResidueSet.of(q, members)) == expected

    def test_matches_exhaustive_enumeration(self):
        # the expanded orbits are the exhaustive vertex set, for every band and
        # unit multiple with q <= 16, and the half-bands at q = 18 and 20; the
        # sine products are not the solves' round-off, so both sides get a tolerance
        cases = [(b, None) for q in range(3, 17) for b in bands(q)]
        for b, rows in cases + [(half_band(q), half_band_vertex_set(q)) for q in (18, 20)]:
            gale = kb.FeasiblePolytope.from_residues(b)
            exhaustive = over_vertex_set(gale, rows)
            assert (gale.vertex_source, exhaustive.vertex_source) == ("gale", "exhaustive")
            np.testing.assert_allclose(expanded_orbits(b), exhaustive.vertex_set,
                                       rtol=0, atol=1e-11, err_msg=str(b))
            assert abs(kb.kappa_prime_1(gale).value - kb.kappa_prime_1(exhaustive).value) <= 1e-12, b

    def test_orbits_match_full_vertex_set(self):
        # one vertex per dihedral orbit gives the maxima and the witness of
        # all the orbits' vertices, for every band and unit multiple with q <= 24
        for b in [b for q in range(3, 25) for b in bands(q)]:
            p = kb.FeasiblePolytope.from_residues(b)
            full = over_vertex_set(p, expanded_orbits(b))
            orbit, whole = kb.kappa_prime_1(p), kb.kappa_prime_1(full)
            assert abs(orbit.value - whole.value) <= 1e-14, b
            np.testing.assert_allclose(orbit.witness, whole.witness, rtol=0, atol=1e-12,
                                       err_msg=str(b))
            for theta in (0.3, 0.9):
                assert abs(kb.kappa(theta, p) - kb.kappa(theta, full)) <= 1e-14, (b, theta)

    def test_first_image_matches_every_image(self):
        # against expanding all 2q dihedral images of every orbit
        # representative: every band with q <= 16, and the q = 1000 band
        # whose mirror images tie in every coordinate
        cases = [b for q in range(3, 17) for b in bands(q)] + [zq.ResidueSet.of(1000, [1, 999])]
        for b in cases:
            rows = orbit_rows(b)
            np.testing.assert_array_equal(kb._first_image(rows), first_image_oracle(rows),
                                          err_msg=str(b))

    @pytest.mark.parametrize("q", range(5, 37))
    def test_orbit_count_is_the_burnside_count(self, q):
        # every band width at q <= 24, the half-band beyond
        widths = range(1, (q + 1) // 2) if q <= 24 else [q // 4]
        for r in widths:
            assert sum(map(len, kb.bracelets(r, q - 2 * r))) == kb.band_orbit_count(q, r), r

    # every parts <= 7 and total <= 8 (parts = 1 with total = 0, and parts >
    # total, among them), the wide band's 40 parts of total 3, and totals
    # whose entries take two and four bytes in the reflection test
    LEAST_FORM_CASES = [*((parts, total) for parts in range(1, 8) for total in range(9)),
                        (40, 3), (3, 300), (2, 70000)]

    def test_bracelets_are_least_forms(self):
        for parts, total in self.LEAST_FORM_CASES:
            got = [tuple(row) for chunk in kb.bracelets(parts, total) for row in chunk.tolist()]
            assert got == least_forms(parts, total, reflect=True), (parts, total)

    def test_necklaces_are_least_rotations(self):
        for parts, total in self.LEAST_FORM_CASES:
            expected = least_forms(parts, total, reflect=False)
            assert list(kb.necklaces(parts, total)) == expected, (parts, total)

    def test_orbit_budget_guard(self):
        # refused on the Burnside count, before any bracelet is generated
        assert kb.band_orbit_count(40, 10) <= kb.MAX_BAND_ORBITS < kb.band_orbit_count(44, 11)
        with pytest.raises(ResourceLimitError, match=r"dihedral-orbit vertices .* = 2934559,"):
            kb.kappa_prime_1(kb.FeasiblePolytope.from_residues(half_band(44)))
        # a wide band has few orbits, but r log-sine terms per coordinate:
        # q=300, r=148 has 71744 orbits and 3.2e9 terms
        count = kb.band_orbit_count(300, 148)
        assert count <= kb.MAX_BAND_ORBITS and count * 148 * 300 > kb.MAX_BAND_TERMS
        with pytest.raises(ResourceLimitError, match=r"71744 dihedral-orbit vertices of 148 pairs"):
            kb.kappa(0.5, polytope(300, [*range(1, 149), *range(152, 300)]))

    def test_vertex_count_formula(self):
        # the expanded orbits, for every band and unit multiple with q <= 24
        for b in [b for q in range(3, 25) for b in bands(q)]:
            q, (u, r) = b.q, kb.band_multiplier(b)
            count = len(expanded_orbits(b))
            assert count == kb.gale_vertex_count(q, r), b
            assert (q - r) * count == q * math.comb(q - r, r), b

    def test_active_sets_are_adjacent_pair_unions(self):
        # Gale evenness: each vertex of u*{+-1, ..., +-r} is active on r disjoint
        # pairs {x, x+1 mod q} in the frame x = u*j, and on no other coordinate
        for b in [b for q in range(3, 25) for b in bands(q)]:
            q, (u, r) = b.q, kb.band_multiplier(b)
            images = dihedral_images(orbit_rows(b))
            active = np.zeros(images.shape, dtype=bool)
            active[:, u * np.arange(q) % q] = images == -1.0
            assert np.all(active.sum(axis=1) == 2 * r), b
            # rotated to start at an inactive position, each run of active
            # positions is even exactly when the k-th inactive position has
            # the parity of k, counting the first one again at q
            first = np.argmax(~active, axis=1)
            rolled = np.take_along_axis(active, (first[:, None] + np.arange(q)) % q, axis=1)
            inactive = np.column_stack((~rolled, np.ones(len(rolled), dtype=bool)))
            k = np.cumsum(inactive, axis=1) - 1
            assert np.all(~inactive | (k % 2 == np.arange(q + 1) % 2)), b
            # the images hit every such union: distinct sets, as bit masks
            assert len(np.unique(active @ (1 << np.arange(q)))) == kb.gale_vertex_count(q, r), b

    @pytest.mark.parametrize("corrupt", [
        lambda p: p[0].__setitem__(3, p[0, 3] + 1e-6),   # off the subspace
        lambda p: p[-1].__setitem__(0, np.nan),          # NaN
    ])
    def test_fails_closed(self, monkeypatch, corrupt):
        # one corrupted closed-form row in the last chunk stops kappa and
        # kappa'(1) alike, on the one chunk of the q=16 half-band and on the
        # several of the q=28 half-band
        products = kb._sine_products
        for q in (16, 28):
            b = half_band(q)
            chunks = sum(1 for _ in kb._orbit_chunks(kb.FeasiblePolytope(zq.wb_basis(b), b)))
            assert (chunks > 1) == (q == 28)
            for evaluate in (lambda p: kb.kappa(0.5, p), kb.kappa_prime_1):
                calls = []

                def corrupted(*args):
                    p = products(*args)
                    calls.append(None)
                    if len(calls) == chunks:
                        corrupt(p)
                    return p

                monkeypatch.setattr(kb, "_sine_products", corrupted)
                with pytest.raises(NumericalError, match="fails the subspace or feasibility test"):
                    evaluate(kb.FeasiblePolytope(zq.wb_basis(b), b))
                assert len(calls) == chunks


class TestCompletenessOracle:
    """Linear programming as an independent check that no vertex is missed.

    The maximum of c.v over {v = M t : v >= -1} is attained at a vertex, so
    it equals max(vertex_set @ c) exactly when the enumeration is complete
    in direction c.
    """

    @staticmethod
    def lp_max(p, c):
        linprog = pytest.importorskip("scipy.optimize").linprog
        m = p.basis.columns
        result = linprog(-(m.T @ c), A_ub=-m, b_ub=np.ones(p.q), bounds=(None, None),
                         method="highs")
        assert result.status == 0, result.message
        return -result.fun

    def test_linear_maxima_match(self):
        rng = np.random.default_rng(3)
        for q in range(3, 13):
            for b in nonempty_symmetric_sets(q):
                p = kb.FeasiblePolytope.from_residues(b)
                for c in rng.standard_normal((5, q)):
                    assert abs(self.lp_max(p, c) - np.max(p.vertex_set @ c)) <= 1e-9, (b, c)

    def test_detects_a_missing_vertex(self):
        p = polytope(8, [1, 3, 5, 7])
        c = np.random.default_rng(4).standard_normal(8)
        values = p.vertex_set @ c
        incomplete = np.delete(values, np.argmax(values))
        assert self.lp_max(p, c) - incomplete.max() > 1e-3


def over_vertex_set(p, rows=None):
    """A copy of ``p`` whose kappa and kappa'(1) are maximized over ``rows``
    (default: its vertex set), as for any polytope without a residue set."""
    copy = kb.FeasiblePolytope(p.basis)
    vars(copy)["vertex_set"] = p.vertex_set if rows is None else rows
    return copy


def rank_filtered(p, tol=1e-9):
    """A copy of ``p`` keeping only the vertex rows whose active set
    {j : v_j <= -1 + tol} has rank d (singular values above ``tol``), that is
    the true vertices."""
    m = p.basis.columns
    keep = [np.linalg.matrix_rank(m[v <= -1.0 + tol], tol=tol) == m.shape[1]
            for v in p.vertex_set]
    return over_vertex_set(p, p.vertex_set[np.array(keep, dtype=bool)])


class TestNonVertexRows:
    """The enumeration also returns feasible points that are not vertices.

    A d-subset that is singular in exact arithmetic can have a float
    determinant near 1e-17.  Its system is consistent, so the residual test
    passes and the solve returns some point on a face.  Such points lie in
    the polytope, so the convex objectives keep their maxima at the vertices.
    """

    CASES = [b for q in range(3, 13) for b in symmetric_residue_sets(q)] + [
        zq.ResidueSet.of(14, [2, 4, 10, 12]), zq.ResidueSet.of(15, [3, 6, 9, 12])]

    def test_rank_filter_finds_the_vertices(self):
        # a 4-simplex, and the Gale count for the band {+-1, +-2} on Z_7
        for q, members, vertices in [(15, [3, 6, 9, 12], 5), (14, [2, 4, 10, 12], 14)]:
            p = polytope(q, members)
            assert len(rank_filtered(p).vertex_set) == vertices <= len(p.vertex_set)

    def test_certified_values_unchanged(self):
        # both sides maximize over vertex-set rows; a band's own kappa reads its
        # orbit representatives, which TestGaleEvenness compares with the full set
        for b in self.CASES:
            p = over_vertex_set(kb.FeasiblePolytope.from_residues(b))
            filtered = rank_filtered(p)
            assert kb.kappa_prime_1(filtered).value == kb.kappa_prime_1(p).value, b
            for theta in (0.2, 0.5, 0.9):
                assert kb.kappa(theta, filtered) == kb.kappa(theta, p), (b, theta)


class TestDistinctRows:
    def test_merge_across_rounding_boundary_keeps_first(self):
        # 1e-14 apart, on either side of the key boundary 1.5 * DEDUP_TOL
        above, below = 1.5e-7 + 5e-15, 1.5e-7 - 5e-15
        assert np.rint(above / kb.DEDUP_TOL) != np.rint(below / kb.DEDUP_TOL)
        rows = np.array([[above, 0.5], [below, 0.5]])
        np.testing.assert_array_equal(kb._distinct_rows(rows), rows[:1])
        np.testing.assert_array_equal(kb._distinct_rows(rows[::-1]), rows[1:])

    def test_rows_beyond_tolerance_stay(self):
        rows = np.array([[0.25, -1.0], [0.25 + 2e-7, -1.0]])
        np.testing.assert_array_equal(kb._distinct_rows(rows), rows)

    def test_matches_pairwise_greedy(self):
        # clusters of near-copies, a few straddling rounding boundaries
        rng = np.random.default_rng(5)
        centers = rng.integers(-3, 4, size=(40, 6)) * 0.5 * kb.DEDUP_TOL + 1e-3 * rng.integers(0, 3, size=(40, 6))
        rows = centers[rng.integers(0, 40, size=400)] + rng.uniform(-1e-14, 1e-14, size=(400, 6))
        kept = pairwise_greedy(rows)
        np.testing.assert_array_equal(kb._distinct_rows(rows),
                                      kept[np.lexsort(kb._dedup_keys(kept).T[::-1])])


def per_row_kappa(theta, p):
    """Reference: kappa evaluated one row at a time, in log-space, over the
    rows kappa reads (a band's orbit representatives, else the vertex set)."""
    best = -math.inf
    rows = np.concatenate([np.zeros((0, p.q)), *kb.representatives(p)])
    for row in np.clip(1.0 + rows, 0.0, None):
        logs = np.log(row[row > 0])
        top = logs.max()
        total = np.sum(np.exp((logs - top) / theta))
        best = max(best, top + theta * (math.log(total) - math.log(p.q)))
    return best


class TestKappa:
    @pytest.mark.parametrize("theta", [1e-3, 0.2, 0.5, 0.8, 1 / 1.1, 0.99, 0.999, 0.9999])
    def test_matches_per_row_reference(self, theta):
        # same terms per row; the masked sum and np.log may round the last bit differently
        for q in range(3, 13):
            for b in nonempty_symmetric_sets(q):
                p = kb.FeasiblePolytope.from_residues(b)
                assert abs(kb.kappa(theta, p) - per_row_kappa(theta, p)) <= 1e-15, (q, b.members)

    def test_kappa_at_one_is_zero(self):
        for q, members in [(4, [2]), (5, [1, 4]), (6, [1, 2, 3, 4, 5])]:
            assert kb.kappa(1.0, polytope(q, members)) == 0.0

    def test_q4_half(self):
        assert abs(kb.kappa(0.5, polytope(4, [2])) - LOG2 / 2) <= 1e-12

    def test_empty_subspace(self):
        p = polytope(6, [])
        for theta in (0.1, 0.5, 1.0):
            assert kb.kappa(theta, p) == 0.0

    def test_domain(self):
        # every entry is checked, and NaN fails
        p = polytope(4, [2])
        for theta in (0.0, -0.5, 1.5, math.nan, [0.5, math.nan], [[0.5], [0.0]]):
            with pytest.raises(InvalidInputError):
                kb.kappa(theta, p)

    def test_elementwise_matches_scalar_calls(self):
        # bit for bit, except at theta = 1/2: numpy squares for the scalar
        # exponent 2 but calls pow for an array of exponents
        thetas = np.array([[1e-3, 0.2, 0.5], [0.8, 0.999, 1.0]])
        cases = [b for q in range(3, 11) for b in symmetric_residue_sets(q)]
        for b in cases + [half_band(24)]:
            p = kb.FeasiblePolytope.from_residues(b)
            values = kb.kappa(thetas, p)
            assert values.shape == thetas.shape
            scalar = np.array([[kb.kappa(float(t), p) for t in row] for row in thetas])
            assert np.all(np.abs(values - scalar) <= np.where(thetas == 0.5, 1e-15, 0.0)), b
        assert isinstance(kb.kappa(0.5, p), float)

    def test_every_exponent_from_one_pass(self, monkeypatch):
        # the q=28 half-band streams several chunks; three exponents read them once
        b = half_band(28)
        passes = []
        chunks = kb._orbit_chunks

        def counted(polytope):
            passes.append(None)
            return chunks(polytope)

        assert sum(1 for _ in chunks(kb.FeasiblePolytope.from_residues(b))) > 1
        monkeypatch.setattr(kb, "_orbit_chunks", counted)
        values = kb.kappa(np.array([0.2, 0.5, 0.9]), kb.FeasiblePolytope.from_residues(b))
        assert len(passes) == 1 and values.shape == (3,)

    def test_tiny_theta_stable(self):
        # log-space evaluation: exponent 1/theta would overflow naive powers
        value = kb.kappa(1e-3, polytope(4, [2]))
        assert np.isfinite(value)
        # kappa(theta) -> log(max_j(1+v_j)) + theta*log(count/q) as theta -> 0
        assert abs(value - (LOG2 + 1e-3 * math.log(2 / 4))) <= 1e-9

    def test_power_mean_attains_kappa_at_a_maximizing_vertex(self):
        # the single-step inequality ||1 + v||_p <= e^kappa(1/p) is an
        # equality at a vertex whose 1/theta power mean is the largest
        vertex = np.array([1.0, -1.0, 1.0, -1.0])
        rhs = math.exp(kb.kappa(0.5, polytope(4, [2])))
        assert abs(kb.power_mean(1.0 + vertex, 2.0) - rhs) <= 1e-12

    def test_power_mean_at_huge_exponent_does_not_overflow(self):
        # |1 + v|**p overflows at p=1e6; the power mean factors out max |1 + v|
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = kb.power_mean(1.0 + np.array([-1.0, -1.0, 2.0]), 1e6)
        assert abs(value - 3.0) <= 1e-5


class TestKappaPrime:
    @pytest.mark.parametrize("q,members,expected", [
        (4, [2], -LOG2),
        (4, [1, 3], -LOG2),
        (3, [1, 2], -math.log(3)),
    ])
    def test_values(self, q, members, expected):
        assert abs(kb.kappa_prime_1(polytope(q, members)).value - expected) <= 1e-12

    def test_witness_reproduces_value(self):
        for q, members in [(4, [2]), (5, [1, 4]), (8, [2, 6]), (9, [1, 8])]:
            p = polytope(q, members)
            result = kb.kappa_prime_1(p)
            s = np.clip(1.0 + result.witness, 0.0, None)
            recomputed = -float(np.sum(np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)), 0.0))) / q
            assert abs(recomputed - result.value) <= 1e-12

    def test_witness_is_lexicographically_smallest(self):
        result = kb.kappa_prime_1(polytope(4, [2]))
        assert np.allclose(result.witness, [-1, 1, -1, 1])

    def test_witness_tie_break_ignores_round_off(self):
        # the maximisers tie; last-bit noise such as -0.9999999999999999 must
        # not move (-1, -1, -1, -1, 2, 2) out of first place
        result = kb.kappa_prime_1(polytope(6, [1, 2, 4, 5]))
        assert np.allclose(result.witness, [-1, -1, -1, -1, 2, 2], rtol=0, atol=1e-9)


class TestFiniteDifference:
    """Backward difference quotients (kappa(1) - kappa(1-h))/h = -kappa(1-h)/h."""

    def test_empty_subspace_zero(self):
        p = polytope(5, [])
        for h in (1e-2, 1e-3, 1e-4):
            assert -kb.kappa(1.0 - h, p) / h == 0.0

    def test_domain(self):
        # a step of 1 or more puts one exponent outside (0, 1]
        steps = np.array([1e-2, 1.0])
        with pytest.raises(InvalidInputError):
            kb.kappa(1.0 - steps, polytope(4, [2]))

    def test_quotients_increase_to_left_derivative(self):
        # backward difference quotients of a convex function with f(1) = 0 are
        # nonincreasing in h and sit below the left derivative
        steps = np.array([1e-2, 1e-3, 1e-4])
        for q, members in [(4, [2]), (5, [1, 4]), (7, [1, 6]), (8, [2, 6])]:
            p = polytope(q, members)
            target = kb.kappa_prime_1(p).value
            quotients = -kb.kappa(1.0 - steps, p) / steps
            assert quotients[0] <= quotients[1] + 1e-10
            assert quotients[1] <= quotients[2] + 1e-10
            assert all(s <= target + 1e-9 for s in quotients)
            assert abs(quotients[-1] - target) <= 1e-3

    def test_strictly_curved_case(self):
        # q=5, B={1,4}: the profile values differ, so kappa is strictly convex
        # near 1 and the quotients approach the derivative strictly from below
        p = polytope(5, [1, 4])
        target = kb.kappa_prime_1(p).value
        s2 = -kb.kappa(1.0 - 1e-2, p) / 1e-2
        s4 = -kb.kappa(1.0 - 1e-4, p) / 1e-4
        assert s2 < s4 < target


class TestDimensionBound:
    def test_q4_fixtures(self):
        for members in ([2], [1, 3]):
            result = kb.dimension_bound(zq.ResidueSet.of(4, members))
            assert abs(result.bound - 0.5) <= 1e-12
            assert abs(result.kappa_prime_1 + LOG2) <= 1e-12

    def test_full_set_gives_zero(self):
        for q in (3, 4, 5, 6):
            result = kb.dimension_bound(zq.ResidueSet.of(q, range(1, q)))
            assert abs(result.bound) <= 1e-12
            assert abs(result.kappa_prime_1 + math.log(q)) <= 1e-12

    def test_empty_gives_one(self):
        result = kb.dimension_bound(zq.ResidueSet.of(4, []))
        assert result.bound == 1.0

    def test_symmetrization_flag(self):
        result = kb.dimension_bound(zq.ResidueSet.of(8, [2]))
        assert result.symmetrized
        assert result.members == (2, 6)

    def test_delta_nonnegative_and_raw_bound_sane(self):
        for q in range(3, 10):
            for members in ([1, q - 1], list(range(1, q))):
                result = kb.dimension_bound(zq.ResidueSet.of(q, members))
                assert result.delta >= -1e-12
                assert result.raw_bound >= -1e-12
                assert result.raw_bound <= 1.0 + 1e-12

    def test_monotone_in_residue_set(self):
        small = kb.dimension_bound(zq.ResidueSet.of(8, [1, 7])).bound
        large = kb.dimension_bound(zq.ResidueSet.of(8, [1, 3, 5, 7])).bound
        assert small >= large - 1e-12


class TestSubgroupBound:
    # the subgroup bound 1 - log|H|/log q, H = g*Z_q for g = gcd(B | {q})
    def test_q4(self):
        result = kb.dimension_bound(zq.ResidueSet.of(4, [2]))
        assert abs(result.subgroup_bound - 0.5) <= 1e-15
        assert result.subgroup_generator == 2
        assert not result.proper_inclusion

    def test_q8_proper(self):
        # B = {2} is symmetrized to {2, 6}, still a proper part of {2, 4, 6}
        result = kb.dimension_bound(zq.ResidueSet.of(8, [2]))
        assert abs(result.subgroup_bound - (1 - math.log(4) / math.log(8))) <= 1e-15
        assert result.subgroup_generator == 2
        assert result.proper_inclusion

    def test_q5_whole_group(self):
        result = kb.dimension_bound(zq.ResidueSet.of(5, [1, 4]))
        assert result.subgroup_bound == 0.0
        assert result.subgroup_generator == 1

    def test_empty_convention(self):
        result = kb.dimension_bound(zq.ResidueSet.of(6, []))
        assert result.subgroup_bound == 1.0
        assert result.subgroup_generator == 6
        assert not result.proper_inclusion

    @pytest.mark.parametrize("q", range(3, 13))
    def test_proper_inclusion_oracle(self, q):
        # every symmetric B, the empty set included: B is proper exactly when
        # it is not all of H minus {0}, listed here element by element
        for b in symmetric_residue_sets(q):
            result = kb.dimension_bound(b)
            g = result.subgroup_generator
            assert g == math.gcd(q, *b.members)
            assert result.proper_inclusion == (set(range(g, q, g)) != b.members)

    def test_strict_gain_when_proper(self):
        dim = kb.dimension_bound(zq.ResidueSet.of(8, [2, 6]))
        assert dim.proper_inclusion
        assert dim.bound >= dim.subgroup_bound + 1e-6


def test_import_loads_only_what_the_module_uses():
    # the package namespace re-exports nothing, so importing kappa_bound in a
    # fresh interpreter leaves the martingale, Riesz, quadrature, draw and
    # verify modules unloaded
    unused = [f"specbound.{m}" for m in ("gv_martingale", "riesz_products", "quadrature",
                                          "draws", "verify")]
    assert loaded_after_import("kappa_bound", unused) == []
