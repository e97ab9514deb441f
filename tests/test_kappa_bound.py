import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from specbound import kappa_bound as kb
from specbound import zq_spectral as zq
from specbound.verify import symmetric_residue_sets
from specbound.errors import InvalidInputError, PreconditionError, ResourceLimitError

LOG2 = math.log(2.0)


def polytope(q, members):
    return kb.FeasiblePolytope.from_residues(zq.ResidueSet.of(q, members))


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
        # q=40 half-band: C(40, 20) ~ 1.4e11 subsets, refused before any solve
        members = [*range(1, 11), *range(30, 40)]
        p = polytope(40, members)
        assert math.comb(40, p.basis.dim) > kb.MAX_VERTEX_SUBSETS
        with pytest.raises(ResourceLimitError, match=r"C\(40, 20\)"):
            kb.polytope_vertices(p)
        # the largest half-band in use, q=20, stays inside the budget
        assert math.comb(20, 10) <= kb.MAX_VERTEX_SUBSETS

    def test_pairwise_distinct(self):
        vs = polytope(8, [1, 3, 5, 7]).vertex_set
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert np.max(np.abs(vs[i] - vs[j])) >= 1e-7

    @pytest.mark.parametrize("q,count", [(16, 660), (18, 1287), (20, 4004)])
    def test_half_band_vertex_counts(self, q, count):
        h = q // 4
        members = [*range(1, h + 1), *range(q - h, q)]
        assert len(polytope(q, members).vertex_set) == count

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
            for b in symmetric_residue_sets(q):
                p = kb.FeasiblePolytope.from_residues(b)
                assert_same_vertex_set(p.vertex_set, reference(p), tol=1e-12)

    def test_rows_in_rounded_lexicographic_order(self):
        vs = polytope(12, [1, 2, 3, 9, 10, 11]).vertex_set
        keys = [tuple(np.rint(v / kb.DEDUP_TOL).astype(int)) for v in vs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


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
            for b in symmetric_residue_sets(q):
                p = kb.FeasiblePolytope.from_residues(b)
                for c in rng.standard_normal((5, q)):
                    assert abs(self.lp_max(p, c) - np.max(p.vertex_set @ c)) <= 1e-9, (b, c)

    def test_detects_a_missing_vertex(self):
        p = polytope(8, [1, 3, 5, 7])
        c = np.random.default_rng(4).standard_normal(8)
        values = p.vertex_set @ c
        incomplete = np.delete(values, np.argmax(values))
        assert self.lp_max(p, c) - incomplete.max() > 1e-3


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
        np.testing.assert_array_equal(kb._distinct_rows(rows), pairwise_greedy(rows))


def per_row_kappa(theta, p):
    """Reference: kappa evaluated one vertex row at a time, in log-space."""
    best = -math.inf
    for row in np.clip(1.0 + p.vertex_set, 0.0, None):
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
            for b in symmetric_residue_sets(q):
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
        p = polytope(4, [2])
        for theta in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                kb.kappa(theta, p)

    def test_tiny_theta_stable(self):
        # log-space evaluation: exponent 1/theta would overflow naive powers
        value = kb.kappa(1e-3, polytope(4, [2]))
        assert np.isfinite(value)
        # kappa(theta) -> log(max_j(1+v_j)) + theta*log(count/q) as theta -> 0
        assert abs(value - (LOG2 + 1e-3 * math.log(2 / 4))) <= 1e-9


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
    def test_empty_subspace_zero(self):
        p = polytope(5, [])
        for h in (1e-2, 1e-3, 1e-4):
            assert kb.kappa_left_derivative_fd(p, h) == 0.0

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            kb.kappa_left_derivative_fd(polytope(4, [2]), 0.7)

    def test_quotients_increase_to_left_derivative(self):
        # backward difference quotients of a convex function with f(1) = 0 are
        # nonincreasing in h and sit below the left derivative
        for q, members in [(4, [2]), (5, [1, 4]), (7, [1, 6]), (8, [2, 6])]:
            p = polytope(q, members)
            target = kb.kappa_prime_1(p).value
            quotients = [kb.kappa_left_derivative_fd(p, h) for h in (1e-2, 1e-3, 1e-4)]
            assert quotients[0] <= quotients[1] + 1e-10
            assert quotients[1] <= quotients[2] + 1e-10
            assert all(s <= target + 1e-9 for s in quotients)
            assert abs(quotients[-1] - target) <= 1e-3

    def test_strictly_curved_case(self):
        # q=5, B={1,4}: the profile values differ, so kappa is strictly convex
        # near 1 and the quotients approach the derivative strictly from below
        p = polytope(5, [1, 4])
        target = kb.kappa_prime_1(p).value
        s2 = kb.kappa_left_derivative_fd(p, 1e-2)
        s4 = kb.kappa_left_derivative_fd(p, 1e-4)
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
    def test_q4(self):
        result = kb.subgroup_bound(zq.ResidueSet.of(4, [2]))
        assert abs(result.bound - 0.5) <= 1e-15
        assert result.subgroup.elements == (0, 2)
        assert not result.proper

    def test_q8_proper(self):
        result = kb.subgroup_bound(zq.ResidueSet.of(8, [2]))
        assert abs(result.bound - (1 - math.log(4) / math.log(8))) <= 1e-15
        assert result.proper

    def test_q5_whole_group(self):
        result = kb.subgroup_bound(zq.ResidueSet.of(5, [1, 4]))
        assert result.bound == 0.0
        assert result.subgroup.order == 5

    def test_empty_convention(self):
        assert kb.subgroup_bound(zq.ResidueSet.of(6, [])).bound == 1.0

    def test_strict_gain_when_proper(self):
        sub = kb.subgroup_bound(zq.ResidueSet.of(8, [2, 6]))
        dim = kb.dimension_bound(zq.ResidueSet.of(8, [2, 6]))
        assert sub.proper
        assert dim.bound >= sub.bound + 1e-6


class TestDefReform:
    def test_degenerate_scale(self):
        assert kb.def_reform_check(0.0, np.zeros(4), 2.0, polytope(4, [2]))

    def test_equality_at_vertex(self):
        p = polytope(4, [2])
        vertex = np.array([1.0, -1.0, 1.0, -1.0])
        assert kb.def_reform_check(1.0, vertex, 2.0, p)
        lhs = np.mean(np.abs(1.0 + vertex) ** 2) ** 0.5
        rhs = math.exp(kb.kappa(0.5, p))
        assert abs(lhs - rhs) <= 1e-12

    def test_random_interior_points(self):
        rng = np.random.default_rng(11)
        for q, members in [(4, [1, 3]), (5, [1, 4]), (6, [2, 4])]:
            p = polytope(q, members)
            vs = p.vertex_set
            for _ in range(20):
                weights = rng.dirichlet(np.ones(len(vs)))
                b_vec = weights @ vs
                assert kb.def_reform_check(1.0, b_vec, float(rng.uniform(1.1, 6.0)), p)

    def test_huge_exponent_does_not_overflow(self):
        # |1 + v|**p overflows at p=1e6; the power mean factors out max |1 + v|
        p = polytope(3, [1, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert kb.def_reform_check(1.0, np.array([-1.0, -1.0, 2.0]), 1e6, p)

    def test_precondition_violations(self):
        p = polytope(4, [2])
        with pytest.raises(PreconditionError):
            kb.def_reform_check(1.0, np.array([1.0, 0.0, 0.0, -1.0]), 2.0, p)  # not in span
        with pytest.raises(PreconditionError):
            kb.def_reform_check(0.5, np.array([1.0, -1.0, 1.0, -1.0]), 2.0, p)  # below -a
        with pytest.raises(PreconditionError):
            kb.def_reform_check(-1.0, np.zeros(4), 2.0, p)
        with pytest.raises(PreconditionError):
            kb.def_reform_check(1.0, np.zeros(4), 1.0, p)
