import itertools
import math
from operator import mul

import numpy as np
import pytest

from conftest import random_frame

from subspace_angles.blades import blade_from_spanning_vectors
from subspace_angles.errors import DegenerateSpanError
from subspace_angles.ga import Multivector, Signature
from subspace_angles.engine import ANGLE_COS_TOL
from subspace_angles import oracle
from subspace_angles.oracle import (
    EPS,
    RANK_COS_TOL,
    PrincipalPairs,
    _jacobi,
    _svd,
    orthonormal_basis,
    principal_angles,
    rank_counts,
    svd_small,
)
from subspace_angles.blades import subspace_membership
from subspace_angles.sampling import RIGHT, ZERO, spans_from_angles

SQ2 = math.sqrt(0.5)


def dot(x, y):
    return sum(map(mul, x, y))


def settled(columns, noise):
    """Whether every column pair meets the Jacobi loop's stopping rule."""
    tol = math.sqrt(len(columns[0])) * EPS
    sq = [dot(c, c) for c in columns]
    return all(min(sq[i], sq[j]) <= noise
               or abs(dot(columns[i], columns[j])) <= tol * math.sqrt(sq[i] * sq[j])
               for i in range(len(columns)) for j in range(i + 1, len(columns)))


# M = Q_A Q_B^T of a pair with cosines 0, 0.504, 0.958 and 0.998 (n = 11, grades 4 and 4).
# A rule tighter than the dot product's rounding floor rotated it until the sweep cap.
CAPPED_M = [[float.fromhex(x) for x in row] for row in [
    ["0x1.9d416176e0b64p-4", "-0x1.1caa09d576183p-3", "-0x1.39b5a02592034p-6", "0x1.75f3e762ffc2ep-3"],
    ["0x1.4b841e54c5423p-1", "-0x1.a7e550953eb14p-3", "0x1.0b2204c47253cp-4", "0x1.e6426006e8d13p-5"],
    ["-0x1.7e96488dddc28p-4", "0x1.ed29a8f244232p-2", "0x1.2f20ddae88346p-3", "-0x1.7a5b1f28f9e1fp-1"],
    ["0x1.021582fd96276p-1", "0x1.6ab3763ce2192p-8", "-0x1.638f788a1f8d3p-1", "-0x1.332e313d77735p-2"]]]


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

    @pytest.mark.parametrize("rows, message", [
        ([[1e155, 0, 0]], "vector 0 overflows"),
        ([[1, 0, 0], [0, 1e155, 0]], "vector 1 overflows"),
        ([[math.inf, 0, 0]], "vector 0 has a non-finite entry"),
        ([[1, 0, 0], [0, -math.inf, 0]], "vector 1 has a non-finite entry"),
        ([[math.nan, 0, 0]], "vector 0 has a non-finite entry"),
    ])
    def test_unnormalisable_vector_raises(self, rows, message):
        # these once came back as a zero row or a NaN row
        with pytest.raises(ValueError, match=message):
            orthonormal_basis(rows)

    def test_flat_list_of_numbers_rejected(self):
        with pytest.raises(ValueError, match="sequence of length-n vectors"):
            orthonormal_basis([1.0, 2.0, 3.0])


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

    def test_entries_whose_squares_overflow(self):
        # the squares of 1e200 overflow; svd_small runs on the matrix over a power of two
        u, s, v = svd_small([[1e200, 1e200]])
        assert s[0] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert np.isfinite(u).all() and np.isfinite(v).all()

    def test_tiny_and_subnormal_entries_are_kept(self):
        assert svd_small([[1e-200, 0.0], [0.0, 5e-324]])[1].tolist() == [1e-200, 5e-324]
        assert svd_small([[5e-324]])[1].tolist() == [5e-324]
        self._check(np.random.default_rng(23).uniform(-1, 1, (4, 3)) * 1e-300)

    @pytest.mark.parametrize("power", [700, -700])
    def test_a_power_of_two_scales_only_the_singular_values(self, power):
        rng = np.random.default_rng(24)
        for shape in [(1, 1), (3, 2), (2, 3), (5, 4), (6, 6)]:
            m = rng.standard_normal(shape)
            u, s, v = svd_small(m)
            su, ss, sv = svd_small(np.ldexp(m, power))
            assert su.tobytes() == u.tobytes() and sv.tobytes() == v.tobytes()
            assert ss.tobytes() == np.ldexp(s, power).tobytes()

    def test_ordinary_matrices_keep_the_unscaled_bytes(self):
        # over a power of two every rounding is the same, so at ordinary scales svd_small gives
        # the bytes of the Jacobi run on the matrix itself; one to six columns, both starts
        rng = np.random.default_rng(25)
        for _ in range(400):
            rows, cols = (int(x) for x in rng.integers(1, 7, 2))
            m = rng.uniform(-1, 1, (rows, cols)) * 2.0 ** int(rng.integers(-30, 31)) * 3.7
            u, s, v = _svd(m)
            got = svd_small(m)
            assert got[0].tobytes() == np.array(u).T.tobytes()
            assert got[1].tobytes() == np.array(s).tobytes()
            assert got[2].tobytes() == np.array(v).T.tobytes()

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises(self, entry):
        with pytest.raises(ValueError, match="matrix has a non-finite entry"):
            svd_small([[1.0, 0.0], [0.0, entry]])

    @pytest.mark.parametrize("matrix", [[[]], [[], []]], ids=["1x0", "2x0"])
    def test_empty_matrix_raises(self, matrix):
        with pytest.raises(ValueError, match=r"matrix is empty, of shape \(\d, 0\)"):
            svd_small(matrix)

    def test_rotations_stop_at_the_rounding_floor(self):
        # every pair the loop returns meets its own rule: the loop ended by
        # converging, within 8 sweeps, not at MAX_SWEEPS
        rng = np.random.default_rng(30)
        cosines = np.diag([0.0, 0.504, 0.958, 0.998])
        matrices = [np.array(CAPPED_M)]
        for _ in range(100):
            matrices.append(random_frame(rng, 4) @ cosines @ random_frame(rng, 4))
        for m in matrices:
            columns = m.T.tolist()
            vectors = np.eye(m.shape[1]).tolist()
            noise = EPS * EPS * sum(dot(c, c) for c in columns)
            sweeps, _ = _jacobi(columns, vectors)
            assert sweeps <= 8
            assert settled(columns, noise)
            self._check(m)

    def test_rank_deficient_columns_settle(self):
        # three columns in an exact 2-d subspace (R of a pair whose angles are all zero):
        # one shrinks by a factor of about eps per sweep, so only the noise rule stops it
        # before it underflows and stalls the loop at MAX_SWEEPS
        columns = [[0.0, 0.0, 1.3877787807814457e-17],
                   [1.1102230246251565e-16, 0.0, 1.1102230246251565e-16],
                   [-1.1102230246251565e-16, 0.0, 0.0]]
        noise = EPS * EPS * sum(dot(c, c) for c in columns)
        sweeps, _ = _jacobi(columns)
        assert sweeps <= 8
        assert settled(columns, noise)

    def test_kept_squares_are_those_of_the_final_columns(self):
        # the squared norms _jacobi returns, which the SVD and the sine route read in place
        # of a second dot per column, are the bytes of sum(map(mul, c, c)) of each final
        # column: rotated columns, columns left alone and noise columns alike
        rng = np.random.default_rng(31)
        matrices = [np.array(CAPPED_M), np.diag([3.0, 2.0, 1.0]),
                    np.array([[0.0, 1.1102230246251565e-16, -1.1102230246251565e-16],
                              [0.0, 0.0, 0.0], [1.3877787807814457e-17, 1.1102230246251565e-16, 0.0]])]
        for shape in ((2, 1), (3, 2), (4, 4), (7, 3), (12, 6)):
            matrices += [rng.standard_normal(shape) for _ in range(10)]
        for m in matrices:
            columns = m.T.tolist()
            _, squares = _jacobi(columns, np.eye(m.shape[1]).tolist())
            assert [x.hex() for x in squares] == [dot(c, c).hex() for c in columns]


def refuse(name):
    def raising(*args, **kwargs):
        raise AssertionError(f"numpy.linalg.{name} called")
    return raising


def identity_started(m):
    """The singular values of m (rows >= cols), descending, from _jacobi started at the identity."""
    columns = m.T.tolist()
    _, squares = _jacobi(columns, np.eye(m.shape[1]).tolist())
    return sorted(map(math.sqrt, squares), reverse=True)


def lapack_started_matrices():
    """Matrices of three columns or more, rows >= cols: random, rank-deficient, with repeated
    singular values, CAPPED_M and with a zero column."""
    rng = np.random.default_rng(40)
    matrices = [np.array(CAPPED_M)]
    for rows, cols in ((3, 3), (4, 3), (6, 6), (12, 6), (7, 5)):
        matrices += [rng.standard_normal((rows, cols)) for _ in range(5)]
        matrices.append(rng.standard_normal((rows, 2)) @ rng.standard_normal((2, cols)))
        repeated = np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.25][:cols])
        matrices.append(random_frame(rng, rows)[:, :cols] @ repeated @ random_frame(rng, cols))
        zero_column = rng.standard_normal((rows, cols))
        zero_column[:, 1] = 0.0
        matrices.append(zero_column)
    return matrices


class TestLapackStart:
    # with three columns or more, the Jacobi SVD starts from numpy.linalg.svd's right vectors;
    # with one or two it starts from the identity, as the goldens' problems do

    @pytest.mark.parametrize("index", range(len(lapack_started_matrices())))
    def test_same_singular_values_as_the_identity_start(self, index):
        m = lapack_started_matrices()[index]
        assert m.shape[1] >= 3
        # each start lies within a few ulp of the largest singular value from the exact values
        # (measured against 40-digit SVDs of these matrices: at most 4 ulp from LAPACK's start,
        # 6 from the identity's), so the two agree within twice 8 ulp
        got = _svd(m)[1]
        want = identity_started(m)
        assert np.max(np.abs(np.subtract(got, want))) <= 16 * math.ulp(want[0])
        TestSvdSmall()._check(m)

    @pytest.mark.parametrize("rank", range(3, 7))
    def test_principal_angles_use_no_driver_of_the_engine(self, monkeypatch, rank):
        # the engine calls numpy.linalg's eigh and qr; the oracle calls neither
        rng = np.random.default_rng(41 + rank)
        pairs = []
        for _ in range(5):
            drawn = [(theta, math.cos(theta), math.sin(theta)) for theta in rng.uniform(0.05, 1.5, rank - 2)]
            a_rows, b_rows = spans_from_angles(rng, 12, 1, drawn + [ZERO, RIGHT])
            pairs.append((orthonormal_basis(a_rows), orthonormal_basis(b_rows), drawn))
        monkeypatch.setattr(np.linalg, "eigh", refuse("eigh"))
        monkeypatch.setattr(np.linalg, "qr", refuse("qr"))
        for qa, qb, drawn in pairs:
            got = principal_angles(qa, qb).angles
            truth = sorted([theta for theta, _, _ in drawn] + [0.0, math.pi / 2])
            assert np.max(np.abs(got - truth)) <= 1e-14

    @pytest.mark.parametrize("m, u, s, v", [
        ([[0.6, 0.1], [0.3, -0.7], [0.2, 0.4]],
         [["-0x1.0c6e580bfc8a2p-3", "-0x1.d63a9284ec461p-1", "0x1.7e3b86e4e805fp-2"],
          ["0x1.c17235784406dp-1", "0x1.144d9ab51afb0p-4", "0x1.e596ef2531b5fp-2"]],
         ["0x1.a7ca60348676bp-1", "0x1.5d184575b71dbp-1"],
         [["-0x1.59cb8aac62501p-2", "0x1.e1ec76bbfbbb8p-1"], ["0x1.e1ec76bbfbbb8p-1", "0x1.59cb8aac62501p-2"]]),
        ([[0.3], [0.4], [-1.2]],
         [["0x1.d89d89d89d89dp-3", "0x1.3b13b13b13b14p-2", "-0x1.d89d89d89d89dp-1"]],
         ["0x1.4cccccccccccdp+0"], [["0x1.0000000000000p+0"]]),
    ], ids=["two-columns", "one-column"])
    def test_one_or_two_columns_keep_the_identity_start(self, monkeypatch, m, u, s, v):
        # the goldens' path: no LAPACK call, and the bytes of the identity-started Jacobi
        monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
        got = _svd(np.array(m))
        assert [[x.hex() for x in row] for row in got[0]] == u
        assert [x.hex() for x in got[1]] == s
        assert [[x.hex() for x in row] for row in got[2]] == v

    def test_wide_dense_pairs_settle_in_three_sweeps(self, monkeypatch):
        # n = 12, grades 3..6, generic angles beside zero and right ones; the identity start
        # took 4.6-6.3 sweeps per pair on the benchmark's wide_dense pairs
        sweeps = []

        def counted(columns, vectors=None):
            result = _jacobi(columns, vectors)
            if vectors is not None:
                sweeps.append(result[0])
            return result

        monkeypatch.setattr(oracle, "_jacobi", counted)
        rng = np.random.default_rng(42)
        for rank, q, first in itertools.product(range(3, 7), (0, 1), (None, ZERO, RIGHT)):
            drawn = [first] if first else []
            while len(drawn) < rank:   # generic angles while a spare frame vector is left
                theta = float(rng.uniform(0.05, 1.5))
                spare = len(drawn) - drawn.count(ZERO) < 12 - rank - q
                drawn.append((theta, math.cos(theta), math.sin(theta)) if spare else ZERO)
            a_rows, b_rows = spans_from_angles(rng, 12, q, drawn)
            principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
        assert len(sweeps) == 24
        assert max(sweeps) <= 3


class TestPrincipalAngles:
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_basis_raises(self, entry):
        # once [nan] after Jacobi had run to MAX_SWEEPS
        for a, b in (([[entry, 0, 0]], [[1, 0, 0]]), ([[1, 0, 0]], [[0, 1, 0], [0, 0, entry]])):
            with pytest.raises(ValueError, match="basis has a non-finite entry"):
                principal_angles(a, b)

    def test_empty_basis_raises(self):
        with pytest.raises(DegenerateSpanError, match="^empty basis$"):
            principal_angles([], [[1.0, 0.0]])

    def test_overflowing_product_raises(self):
        # finite bases whose product overflows, as the command line runs them: principal_angles
        # checks its product itself before the SVD, which checks nothing again
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="matrix has a non-finite entry"):
            principal_angles([[1e200, 0.0]], [[1e200, 0.0]])

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

    @pytest.mark.parametrize("with_generic", [False, True])
    def test_tiny_angle_beside_a_zero(self, with_generic):
        # cos(2e-8) and cos(0) are a few ulps apart, so the SVD of cosines
        # mixes their principal vectors; the sines still tell them apart
        rng = np.random.default_rng(31 + with_generic)
        for _ in range(20):
            n = int(rng.integers(5, 9))
            tiny = 2e-8 * rng.uniform(0.8, 1.25)
            drawn = [(tiny, math.cos(tiny), math.sin(tiny)), ZERO]
            if with_generic:
                g = rng.uniform(0.2, 1.4)
                drawn.insert(0, (g, math.cos(g), math.sin(g)))
            a_rows, b_rows = spans_from_angles(rng, n, 3 - len(drawn), drawn)
            pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
            got = sorted(pairs.angles.tolist(), reverse=True)
            truth = sorted((theta for theta, _, _ in drawn), reverse=True)
            assert np.max(np.abs(np.array(got) - truth)) <= 1e-14

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
