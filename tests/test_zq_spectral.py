import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbound import kappa_bound as kb
from specbound import zq_spectral as zq
from specbound.errors import InvalidInputError, ResourceLimitError


class TestResidueSet:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            zq.ResidueSet.of(2, [1])
        with pytest.raises(InvalidInputError):
            zq.ResidueSet.of(4, [0])
        with pytest.raises(InvalidInputError):
            zq.ResidueSet.of(4, [4])

    @pytest.mark.parametrize("q,members,expected", [
        (5, [1], {1, 4}),
        (4, [2], {2}),
        (6, [1, 2], {1, 2, 4, 5}),
    ])
    def test_symmetrize(self, q, members, expected):
        assert zq.symmetrize(zq.ResidueSet.of(q, members)).members == expected

    def test_symmetrize_idempotent_and_order_independent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = int(rng.integers(3, 14))
            members = list(rng.choice(np.arange(1, q), size=rng.integers(0, q - 1),
                                      replace=False))
            b = zq.ResidueSet.of(q, members)
            once = zq.symmetrize(b)
            assert zq.symmetrize(once).members == once.members
            shuffled = zq.ResidueSet.of(q, list(reversed(members)))
            assert zq.symmetrize(shuffled).members == once.members

    def test_symmetric_flag(self):
        assert zq.ResidueSet.of(4, [2]).symmetric
        assert not zq.ResidueSet.of(5, [1]).symmetric


class TestWbBasis:
    def test_q4_alternating(self):
        basis = zq.wb_basis(zq.ResidueSet.of(4, [2]))
        assert basis.dim == 1
        col = basis.columns[:, 0]
        assert np.allclose(col / col[0], [1, -1, 1, -1])

    def test_q4_pair(self):
        assert zq.wb_basis(zq.ResidueSet.of(4, [1, 3])).dim == 2

    def test_q3_full(self):
        # rank oracle: the zero-sum hyperplane of R^3 has dimension 2
        assert zq.wb_basis(zq.ResidueSet.of(3, [1, 2])).dim == 2

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidInputError):
            zq.wb_basis(zq.ResidueSet.of(5, [1]))

    def test_empty_is_valid(self):
        basis = zq.wb_basis(zq.ResidueSet.of(7, []))
        assert basis.dim == 0 and basis.columns.shape == (7, 0)

    @pytest.mark.parametrize("q,members", [
        (10 ** 9, [1, 10 ** 9 - 1]),           # 2e9 floats
        (10 ** 20, [1, 10 ** 20 - 1]),         # past int64, where np.arange raised ValueError
        (2 * 10 ** 7, []),                     # no column, but a q-long witness
        (10 ** 4, range(1, 10 ** 4)),          # q * d = 1e8
    ])
    def test_size_guard(self, q, members):
        with pytest.raises(ResourceLimitError, match="over the 1e\\+07 budget"):
            zq.wb_basis(zq.ResidueSet.of(q, members))

    def _symmetric_sets(self, q):
        import itertools
        orbits = [(m,) if 2 * m == q else (m, q - m) for m in range(1, q // 2 + 1)]
        for r in range(len(orbits) + 1):
            for combo in itertools.combinations(orbits, r):
                yield [x for orbit in combo for x in orbit]

    def test_columns_orthonormal_zero_sum_and_supported_on_b(self):
        for q in range(3, 17):
            for members in self._symmetric_sets(q):
                basis = zq.wb_basis(zq.ResidueSet.of(q, members))
                if basis.dim:
                    gram = basis.columns.T @ basis.columns
                    assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-12
                    assert np.max(np.abs(basis.columns.sum(axis=0))) <= 1e-12
                for col in basis.columns.T:
                    vhat = np.fft.fft(col)
                    norm = np.linalg.norm(col)
                    outside = [m for m in range(q) if m not in members]
                    assert np.max(np.abs(vhat[outside])) <= 1e-12 * max(norm, 1.0)

    def test_dimension_formula_against_rank(self):
        # independent oracle: rank of the stacked cosine/sine vectors
        for q in range(3, 17):
            for members in self._symmetric_sets(q):
                basis = zq.wb_basis(zq.ResidueSet.of(q, members))
                j = np.arange(q)
                rows = []
                for m in members:
                    rows.append(np.cos(2 * np.pi * m * j / q))
                    rows.append(np.sin(2 * np.pi * m * j / q))
                rank = np.linalg.matrix_rank(np.array(rows), tol=1e-9) if rows else 0
                assert basis.dim == rank


def q_valuation(n: int, q: int) -> tuple[int, int]:
    """Reference: n = k * q**v with q not dividing k; returns (v, k).  n != 0."""
    if n == 0:
        raise InvalidInputError("q_valuation undefined at 0")
    v, k = 0, int(n)
    while k % q == 0:
        k //= q
        v += 1
    return v, k


def scalar_in_cb(n: int, b: zq.ResidueSet) -> bool:
    """Reference: membership of one Python-int frequency, via ``q_valuation``."""
    if n == 0:
        return True
    _, k = q_valuation(n, b.q)
    return (k % b.q) in b.members


def frequency_arrays(q: int):
    """Lists of int64 frequencies mixing 0, small values of both signs,
    multiples of high powers of q and values near +-2**62."""
    top = int(math.log(2 ** 62, q))
    power_multiples = st.integers(0, top).flatmap(lambda v: st.integers(
        -(2 ** 62) // q ** v, 2 ** 62 // q ** v).map(lambda k: k * q ** v))
    return st.lists(st.one_of(
        st.just(0),
        st.integers(-3 * q * q, 3 * q * q),
        power_multiples,
        st.integers(2 ** 62 - 1000, 2 ** 62),
        st.integers(-(2 ** 62), -(2 ** 62) + 1000),
    ), min_size=1, max_size=40)


class TestArithmetic:
    # q_valuation and scalar_in_cb above are the references for the array in_cb
    @pytest.mark.parametrize("n,q,expected", [
        (54, 3, (3, 2)),
        (7, 3, (0, 7)),
        (-18, 3, (2, -2)),
    ])
    def test_q_valuation(self, n, q, expected):
        assert q_valuation(n, q) == expected

    def test_q_valuation_zero(self):
        with pytest.raises(InvalidInputError):
            q_valuation(0, 3)

    @given(st.integers(min_value=-10**9, max_value=10**9).filter(lambda n: n != 0),
           st.integers(min_value=2, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_q_valuation_reconstructs(self, n, q):
        v, k = q_valuation(n, q)
        assert n == k * q ** v
        assert k % q != 0
        assert v >= 0

    @given(st.data(), st.integers(min_value=3, max_value=50), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_in_cb_matches_scalar_reference(self, data, q, symmetric):
        members = data.draw(st.sets(st.integers(min_value=1, max_value=q - 1)))
        b = zq.ResidueSet.of(q, members)
        if symmetric:
            b = zq.symmetrize(b)
        n = np.array(data.draw(frequency_arrays(q)), dtype=np.int64)
        expected = [scalar_in_cb(int(x), b) for x in n]
        assert zq.in_cb(n, b).tolist() == expected
        assert [bool(zq.in_cb(int(x), b)) for x in n] == expected

    def test_in_cb_examples(self):
        assert zq.in_cb(0, zq.ResidueSet.of(4, [2]))
        assert not zq.in_cb(4, zq.ResidueSet.of(4, [2]))
        assert zq.in_cb(6, zq.ResidueSet.of(3, [1, 2]))

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
    @settings(max_examples=200, deadline=None)
    def test_in_cb_closed_under_base_multiplication(self, n):
        b = zq.ResidueSet.of(5, [2, 3])
        assert zq.in_cb(n, b) == zq.in_cb(n * 5, b)

    def test_in_cb_absolute_mode(self):
        # negative n is tested literally; on a symmetric B that equals testing |n|
        b = zq.ResidueSet.of(5, [1])  # not symmetric: -1 has residue 4
        assert not zq.in_cb(-1, b)
        assert zq.in_cb(-4, b)
        sym = zq.symmetrize(b)
        n = np.arange(-30, 31)
        assert np.array_equal(zq.in_cb(n, sym), zq.in_cb(np.abs(n), sym))


class TestSubgroups:
    # dimension_bound's subgroup H = g*Z_q, the multiples of the divisor
    # g = gcd(B | {q}) of q, listed here from its generator
    @staticmethod
    def subgroup(q, members):
        g = kb.dimension_bound(zq.ResidueSet.of(q, members)).subgroup_generator
        assert q % g == 0
        return tuple(range(0, q, g))

    def test_q4(self):
        assert [self.subgroup(4, b) for b in ([], [2], [1, 3])] == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_q6_orders(self):
        assert [len(self.subgroup(6, b)) for b in ([], [3], [2, 4], [1, 5])] == [1, 2, 3, 6]

    def test_prime(self):
        assert [len(self.subgroup(5, b)) for b in ([], [1, 4])] == [1, 5]

    @pytest.mark.parametrize("q,members,elements,proper", [
        (4, [2], (0, 2), False),
        (8, [2], (0, 2, 4, 6), True),
        (5, [1, 4], (0, 1, 2, 3, 4), True),
    ])
    def test_minimal_subgroup(self, q, members, elements, proper):
        result = kb.dimension_bound(zq.ResidueSet.of(q, members))
        assert tuple(range(0, q, result.subgroup_generator)) == elements
        assert result.proper_inclusion == proper


class TestCounterexampleMeasure:
    def test_q4_coefficients(self):
        spec = zq.counterexample_measure(4, 1)
        assert spec.coefficient(1) == 1.0
        assert spec.coefficient(5) == 1.0
        assert spec.coefficient(2) == 0.0
        assert spec.coefficient(0) == 0.0

    def test_q3_coefficients(self):
        spec = zq.counterexample_measure(3, 2)
        assert spec.coefficient(2) == 1.0
        assert spec.coefficient(3) == 0.0

    def test_matches_atomic_sum(self):
        # oracle: transform of the atomic measure by direct geometric sums
        q, l = 5, 2
        spec = zq.counterexample_measure(q, l)
        for n in range(-q * q, q * q + 1):
            direct = np.mean([np.exp(2j * np.pi * k * l / q) * np.exp(-2j * np.pi * n * k / q)
                              for k in range(q)])
            assert abs(spec.coefficient(n) - direct) <= 1e-12

    def test_support_in_restricted_set(self):
        q, l = 4, 1
        spec = zq.counterexample_measure(q, l)
        b = zq.ResidueSet.of(q, [l])
        assert zq.in_cb(spec.frequencies, b).all()

    def test_q_unit_atoms(self):
        q, l = 4, 1
        profile = np.array([1.0 if r == l else 0.0 for r in range(q)], dtype=complex)
        weights = np.fft.ifft(profile)
        assert np.allclose(np.abs(weights), 1.0 / q)
        # weights are genuinely complex: the measure is not non-negative
        assert np.max(np.abs(weights.imag)) > 0.1 / q

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            zq.counterexample_measure(4, 0)
        with pytest.raises(InvalidInputError):
            zq.counterexample_measure(4, 4)
