import math

import numpy as np
import pytest

from subspace_angles.blades import blade_from_spanning_vectors
from subspace_angles.errors import DegenerateSpanError
from subspace_angles.ga import Multivector, Signature
from subspace_angles.engine import ANGLE_COS_TOL
from subspace_angles.oracle import (
    RANK_COS_TOL,
    PrincipalPairs,
    orthonormal_basis,
    principal_angles,
    rank_counts,
    svd_small,
)
from subspace_angles.blades import subspace_membership

SQ2 = math.sqrt(0.5)


class TestOrthonormalBasis:
    def test_sheared_pair(self):
        q = orthonormal_basis([[1, 0, 0], [1, 1, 0]])
        assert np.allclose(q @ q.T, np.eye(2), atol=1e-10)
        # same span: both inputs reconstruct from q
        for v in [np.array([1.0, 0, 0]), np.array([1.0, 1, 0])]:
            resid = v - q.T @ (q @ v)
            assert np.sqrt(resid @ resid) <= 1e-10

    def test_single_vector(self):
        q = orthonormal_basis([[1, 0, 0]])
        assert np.allclose(np.abs(q), [[1, 0, 0]])

    def test_dependent_raises(self):
        with pytest.raises(DegenerateSpanError):
            orthonormal_basis([[1, 0, 0], [2, 0, 0]])

    def test_empty_raises(self):
        with pytest.raises(DegenerateSpanError):
            orthonormal_basis([])

    def test_span_preserved_random(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            rows = rng.uniform(-1, 1, (r, n))
            try:
                q = orthonormal_basis(rows)
            except DegenerateSpanError:
                continue
            assert np.max(np.abs(q @ q.T - np.eye(r))) <= 1e-10
            proj = rows - (rows @ q.T) @ q
            assert np.max(np.abs(proj)) <= 1e-10 * np.max(np.abs(rows))


class TestSvdSmall:
    def test_identity(self):
        u, s, v = svd_small(np.eye(2))
        assert np.allclose(s, [1, 1])

    def test_diagonal(self):
        u, s, v = svd_small(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3, 1])

    def _check(self, m):
        u, s, v = svd_small(m)
        k = min(m.shape)
        scale = max(np.max(np.abs(m)), 1e-300)
        assert np.max(np.abs(u @ np.diag(s) @ v.T - m)) <= 1e-12 * scale
        assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
        assert np.all(s[:-1] >= s[1:] - 1e-15)
        assert np.all(s >= 0)

    def test_random_rectangular(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            self._check(rng.uniform(-2, 2, (rows, cols)))

    def test_rank_deficient(self):
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 1.5])
        self._check(np.outer(u, v))

    def test_zero_matrix(self):
        self._check(np.zeros((3, 2)))

    def test_wide_matrix(self):
        rng = np.random.default_rng(22)
        self._check(rng.uniform(-1, 1, (2, 5)))


class TestPrincipalAngles:
    def test_line_pair_45_degrees(self):
        pairs = principal_angles([[1, 0]], [[SQ2, SQ2]])
        assert pairs.cosines[0] == pytest.approx(SQ2, abs=1e-12)
        assert pairs.angles[0] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_shared_line_plus_perpendicular(self):
        pairs = principal_angles([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]])
        assert np.allclose(pairs.cosines, [1.0, 0.0], atol=1e-12)

    def test_subspace_vs_itself(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(4, n) + 1))
            try:
                q = orthonormal_basis(rng.uniform(-1, 1, (r, n)))
            except DegenerateSpanError:
                continue
            pairs = principal_angles(q, q)
            assert np.all(np.abs(pairs.cosines - 1.0) <= 1e-12)

    def test_pair_invariants(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            ra = int(rng.integers(1, min(4, n) + 1))
            rb = int(rng.integers(1, min(4, n) + 1))
            try:
                qa = orthonormal_basis(rng.uniform(-1, 1, (ra, n)))
                qb = orthonormal_basis(rng.uniform(-1, 1, (rb, n)))
            except DegenerateSpanError:
                continue
            pairs = principal_angles(qa, qb)
            k = min(ra, rb)
            assert pairs.cosines.shape == (k,)
            assert np.all(pairs.cosines >= -1e-15) and np.all(pairs.cosines <= 1.0)
            for i in range(k):
                assert pairs.a_vectors[i] @ pairs.b_vectors[i] == \
                    pytest.approx(pairs.cosines[i], abs=1e-10)
                for j in range(k):
                    want = 1.0 if i == j else 0.0
                    assert pairs.a_vectors[i] @ pairs.a_vectors[j] == pytest.approx(want, abs=1e-10)
                    assert pairs.b_vectors[i] @ pairs.b_vectors[j] == pytest.approx(want, abs=1e-10)

    def test_small_angle_sine_route(self):
        theta = 1e-6
        pairs = principal_angles([[1, 0]], [[math.cos(theta), math.sin(theta)]])
        assert pairs.angles[0] == pytest.approx(theta, abs=1e-14)

    def test_cosine_product_matches_gram_determinant(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(4, n) + 1))
            try:
                qa = orthonormal_basis(rng.uniform(-1, 1, (r, n)))
                qb = orthonormal_basis(rng.uniform(-1, 1, (r, n)))
            except DegenerateSpanError:
                continue
            pairs = principal_angles(qa, qb)
            gram = abs(np.linalg.det(qa @ qb.T))
            assert float(np.prod(pairs.cosines)) == pytest.approx(gram, abs=1e-9)

    def test_principal_vectors_live_in_their_spans(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(2, min(4, n) + 1))
            rows_a = rng.uniform(-1, 1, (r, n))
            rows_b = rng.uniform(-1, 1, (r, n))
            try:
                blade_a = blade_from_spanning_vectors(rows_a)
                blade_b = blade_from_spanning_vectors(rows_b)
                qa = orthonormal_basis(rows_a)
                qb = orthonormal_basis(rows_b)
            except DegenerateSpanError:
                continue
            pairs = principal_angles(qa, qb)
            sig = Signature(n)
            for k in range(r):
                assert subspace_membership(Multivector.vector(sig, pairs.a_vectors[k]), blade_a)
                assert subspace_membership(Multivector.vector(sig, pairs.b_vectors[k]), blade_b)


class TestIntersectionDimension:
    def test_shared_line(self):
        s, _ = rank_counts(principal_angles([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]]))
        assert s == 1

    def test_identical(self):
        q = [[1, 0, 0], [0, 1, 0]]
        s, _ = rank_counts(principal_angles(q, q))
        assert s == 2

    def test_disjoint(self):
        s, _ = rank_counts(principal_angles([[1, 0, 0, 0], [0, 1, 0, 0]],
                                            [[0, 0, 1, 0], [0, 0, 0, 1]]))
        assert s == 0

    def test_perpendicularity_count(self):
        _, t = rank_counts(principal_angles([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]]))
        assert t == 1

    def test_both_routes_count_by_one_rule(self):
        # the oracle keeps its own copy of the engine's cutoff; the two copies must agree
        assert RANK_COS_TOL == ANGLE_COS_TOL

        def counts(*cosines):
            c = np.array(cosines)
            return rank_counts(PrincipalPairs(cosines=c, angles=np.arccos(c),
                                              a_vectors=np.eye(c.size), b_vectors=np.eye(c.size)))

        assert counts(1.0 - 1e-9, 0.5, 1e-9) == (1, 1)
        assert counts(1.0 - 2e-9, 0.5, 2e-9) == (0, 0)
