"""Matrix route to principal angles, used to cross-check the algebra route.

QR (modified Gram-Schmidt) plus singular value decomposition of the
matrix of mutual inner products M = Q_A Q_B^T gives r pairs of principal
unit vectors a_k, b_k and singular values sigma_k = cos(theta_k) =
a_k . b_k, at O(r^3) cost.

Gram-Schmidt and the SVD, one-sided Jacobi (Demmel & Veselic, 1992), both
run on rows and columns held as lists of Python floats: they have at most
12 entries, where one NumPy call per dot product costs more than the
arithmetic. A Jacobi column pair is rotated only while its computed
cosine exceeds sqrt(rows)*eps, the rounding floor of the dot product
(LAPACK's DGESVJ rule); a tighter bound can never be met, and the loop
would rotate by angles of about 1e-16 until its cap.

Cosines near 1 cannot resolve small angles: cos(2e-8) and cos(0) are a few
ulps apart, so the SVD of M mixes their principal vectors. Where
sigma > SINE_ROUTE_SIGMA the angles come from sines instead (Knyazev &
Argentati, 2002): the same rotations on R = B_J - (B_J Q_A^T) Q_A, the
cluster's principal vectors of B with span(A) projected out, give the
sines as column norms, paired ascending with the cosines descending.

Gram-Schmidt and the Jacobi are implemented here and share no code with the
geometric-product engine, so that agreement between the two is a genuine
check between independent implementations. The one LAPACK call,
numpy.linalg.svd, supplies only the Jacobi's starting basis at three columns
or more; Jacobi's own rule decides the answer, and svd is not a driver the
engine calls (it calls eigh and qr). Its four matrix products (M, the LAPACK
start M V0^T, the principal vectors and the sine route's projection) are
np.dot, not @: the same bytes, and at these sizes matmul's dispatch costs
more than the product.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import DegenerateSpanError

DEPENDENCE_TOL = 1e-10

# The s/t cutoff of rank_counts. It equals engine.ANGLE_COS_TOL but is not
# imported from it, so the two routes share no code.
RANK_COS_TOL = 1e-9

# Above this sigma, acos is ill-conditioned and the cluster's angles come
# from sines instead.
SINE_ROUTE_SIGMA = 0.99

# dtype kinds that convert to float silently (or with only a ComplexWarning) but are not
# real coordinates: the blade route's refusal, written out here so that the two routes
# share no code
_NOT_REAL = {"b": "booleans", "U": "strings", "S": "bytes", "c": "complex numbers"}

EPS = sys.float_info.epsilon
# The smallest normal float: a squared norm below it has lost digits.
NORMAL_MIN = sys.float_info.min
# A safety cap: the rounding-floor rule settles every benchmark matrix of
# seeds 1-10 within 7 sweeps.
MAX_SWEEPS = 60


@dataclass(frozen=True)
class PrincipalPairs:
    """Principal angles and vectors of two subspaces.

    cosines are descending; a_vectors/b_vectors are row-paired unit
    principal vectors with a_k . b_k = cosines[k]. Inside a cluster of
    equal cosines, a_k and b_k are any orthonormal pairing of the
    cluster's space: which one comes out depends on the Jacobi's start.
    """

    cosines: np.ndarray
    angles: np.ndarray
    a_vectors: np.ndarray
    b_vectors: np.ndarray


def orthonormal_basis(vectors) -> np.ndarray:
    """Orthonormalize spanning vectors (rows); same span, or raises.

    Modified Gram-Schmidt with one re-orthogonalization pass, on lists of
    floats; row j of the result has a positive dot with vector j. A zero
    vector, or one whose residual falls below DEPENDENCE_TOL times its
    original norm, makes the span degenerate (DegenerateSpanError). A
    vector with a non-finite entry raises ValueError, and so does one whose
    squared norm overflows, or whose squared norm or residual's squared
    norm is below the normal range, where the square root loses digits.
    Entries that NumPy infers as booleans, strings, bytes or complex numbers
    raise TypeError before any conversion to float.
    """
    rows = np.asarray(vectors)
    if rows.dtype.kind in _NOT_REAL:
        raise TypeError(f"coordinates must be real numbers, not {_NOT_REAL[rows.dtype.kind]}")
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        raise DegenerateSpanError("empty spanning set")
    if rows.ndim != 2:
        raise ValueError("expected a sequence of length-n vectors, one per row")
    basis: list[list[float]] = []
    for u in rows.tolist():
        squared = sum(map(mul, u, u))
        if not math.isfinite(squared):
            if all(map(math.isfinite, u)):
                raise ValueError(f"vector {len(basis)} overflows: its squared norm is not finite")
            raise ValueError(f"vector {len(basis)} has a non-finite entry")
        if squared < NORMAL_MIN:
            if not any(u):
                raise DegenerateSpanError("zero vector in spanning set")
            raise ValueError(f"vector {len(basis)} underflows: its squared norm is below the normal range")
        original = math.sqrt(squared)
        for _ in range(2):
            for b in basis:
                p = sum(map(mul, u, b))
                u = [x - p * y for x, y in zip(u, b)]
        squared = sum(map(mul, u, u))
        res = math.sqrt(squared)
        if res < DEPENDENCE_TOL * original:
            raise DegenerateSpanError(f"vector {len(basis)} is dependent")
        if squared < NORMAL_MIN:
            raise ValueError(f"vector {len(basis)} underflows: its residual's squared norm "
                             "is below the normal range")
        basis.append([x / res for x in u])
    return np.array(basis)


def _jacobi(columns: list, vectors: list | None = None) -> tuple[int, list[float]]:
    """One-sided Jacobi: rotate columns (lists of floats) in place until each
    pair is orthogonal to working precision; vectors take the same rotations.

    A pair is left alone once |g_ij| <= sqrt(rows)*eps*sqrt(g_ii*g_jj), the
    rounding floor of the computed dot product g_ij (LAPACK's DGESVJ rule),
    or once one of its columns is no longer than eps times the whole matrix
    (Frobenius norm): such a column is rounding noise, with no direction to
    settle. Returns (sweeps, squares): the number of sweeps, the last of which
    rotated nothing, so every pair meets the rule, unless it is MAX_SWEEPS; and
    each final column's squared norm sum(map(mul, c, c)), kept by the loop.
    """
    tol = math.sqrt(len(columns[0])) * EPS
    sq = [sum(map(mul, c, c)) for c in columns]
    noise = EPS * EPS * sum(sq)
    k = len(columns)
    for sweep in range(1, MAX_SWEEPS + 1):
        rotated = False
        for i in range(k - 1):
            for j in range(i + 1, k):
                gii, gjj = sq[i], sq[j]
                if gii <= noise or gjj <= noise:
                    continue
                ci, cj = columns[i], columns[j]
                gij = sum(map(mul, ci, cj))
                if abs(gij) <= tol * math.sqrt(gii * gjj):
                    continue
                rotated = True
                zeta = (gjj - gii) / (2.0 * gij)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                columns[i] = ci2 = [cs * x - sn * y for x, y in zip(ci, cj)]
                columns[j] = cj2 = [sn * x + cs * y for x, y in zip(ci, cj)]
                sq[i], sq[j] = sum(map(mul, ci2, ci2)), sum(map(mul, cj2, cj2))
                if vectors is not None:
                    vi, vj = vectors[i], vectors[j]
                    vectors[i] = [cs * x - sn * y for x, y in zip(vi, vj)]
                    vectors[j] = [sn * x + cs * y for x, y in zip(vi, vj)]
        if not rotated:
            break
    return sweep, sq


def _jacobi_onesided(m: np.ndarray) -> tuple[list, list[float], list]:
    """One-sided Jacobi SVD of m (rows >= cols), as lists of floats: (u, s, v) with s
    descending and u[k], v[k] the k-th left and right singular vectors, so that
    m = sum_k s[k] u[k] v[k]^T.

    With three columns or more the rotations start from LAPACK's right singular vectors
    V0 (numpy.linalg.svd, a driver the engine does not call): the columns m V0^T are then
    nearly orthogonal, and Jacobi settles them in one or two sweeps where the identity start
    takes four to six (Drmac & Veselic, 2008). Jacobi's own rule still decides every
    singular value, and any orthogonal start gives the same answer to rounding. One or two
    columns keep the identity start: one rotation and its check sweep cost less than the
    LAPACK call."""
    rows, cols = m.shape
    a = m.T.tolist()
    floor = 1e-14 * max(max(max(map(abs, c)) for c in a), 1e-300)
    if cols >= 3:
        v0 = np.linalg.svd(m, full_matrices=False)[2]
        a = np.dot(m, v0.T).T.tolist()
        v = v0.tolist()
    else:
        v = [[0.0] * cols for _ in range(cols)]
        for c in range(cols):
            v[c][c] = 1.0
    s = [math.sqrt(squared) for squared in _jacobi(a, v)[1]]
    u = [[x / sj for x in c] if sj > floor else None for c, sj in zip(a, s)]
    # complete near-null columns of u to an orthonormal set: the unit vector
    # that keeps the most of its length after projecting out the others
    for j in range(cols):
        if u[j] is not None:
            continue
        best, best_res = None, 0.0
        for k in range(rows):
            cand = [0.0] * rows
            cand[k] = 1.0
            for ul in u:
                if ul is not None:
                    p = sum(map(mul, cand, ul))
                    cand = [x - p * y for x, y in zip(cand, ul)]
            res = math.sqrt(sum(map(mul, cand, cand)))
            if res > best_res:
                best, best_res = cand, res
            if res > 0.5:
                break
        u[j] = [x / best_res for x in best]

    order = sorted(range(cols), key=s.__getitem__, reverse=True)
    return [u[j] for j in order], [s[j] for j in order], [v[j] for j in order]


def svd_small(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a small matrix: matrix ~= U @ diag(s) @ V.T.

    U is (rows x k), V is (cols x k) with k = min(rows, cols); both have
    orthonormal columns, s is descending and nonnegative; an empty matrix or a
    non-finite entry raises ValueError. One-sided Jacobi on lists of floats; with
    k >= 3 it starts from numpy.linalg.svd's right singular vectors, and its own
    rule decides the answer (_jacobi_onesided). It runs on matrix over 2^e, the
    exact power of two with its largest entry in [1/2, 1), and scales s back by
    2^e, so the squares of its largest entries neither overflow nor underflow: the
    SVD of matrix * 2^k is U, s * 2^k, V bit for bit.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.size == 0:
        raise ValueError(f"matrix is empty, of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    e = math.frexp(float(np.max(np.abs(m))))[1]
    u, s, v = _svd(np.ldexp(m, -e))
    return np.array(u).T, np.ldexp(s, e), np.array(v).T


def _svd(m: np.ndarray) -> tuple[list, list[float], list]:
    """svd_small of a nonempty, finite 2-D float array, unchecked, as _jacobi_onesided's
    lists: the one-sided Jacobi SVD of m or of its transpose, whichever has at least as
    many rows."""
    if m.shape[0] >= m.shape[1]:
        return _jacobi_onesided(m)
    u, s, v = _jacobi_onesided(m.T)
    return v, s, u


def principal_angles(basis_a, basis_b) -> PrincipalPairs:
    """Principal angles between two subspaces given orthonormal bases (rows).

    The SVD of the mutual inner-product matrix yields min(ra, rb) pairs.
    The cluster of angles near zero (sigma > SINE_ROUTE_SIGMA) takes its
    angles from sines instead: the singular values of the cluster's b_k with
    span(A) projected out, well conditioned where acos is not; a non-finite entry raises ValueError.
    Four stages, each on the outputs of those before it: _inner_products (the checks and M),
    _svd, _principal_vectors (the vectors and acos) and _sine_route (the sines and the result).
    """
    qa, qb, m = _inner_products(basis_a, basis_b)
    u, s, v = _svd(m)
    cosines, angles, a_vecs, b_vecs = _principal_vectors(u, s, v, qa, qb)
    return _sine_route(cosines, angles, a_vecs, b_vecs, qa)


def _inner_products(basis_a, basis_b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(qa, qb, m): both bases as nonempty, finite 2-D float arrays, and m = qa qb^T, finite."""
    qa = np.atleast_2d(np.asarray(basis_a, dtype=float))
    qb = np.atleast_2d(np.asarray(basis_b, dtype=float))
    if qa.size == 0 or qb.size == 0:
        raise DegenerateSpanError("empty basis")
    if not (np.isfinite(qa).all() and np.isfinite(qb).all()):
        raise ValueError("basis has a non-finite entry")
    m = np.dot(qa, qb.T)
    if not np.isfinite(m).all():   # finite bases can still overflow in the product
        raise ValueError("matrix has a non-finite entry")
    return qa, qb, m


def _principal_vectors(u, s, v, qa, qb) -> tuple[list[float], list[float], np.ndarray, np.ndarray]:
    """(cosines, angles, a_vectors, b_vectors) from _svd's lists for m = qa qb^T: the singular
    values clamped to [0, 1], their arccosines, and the principal vectors U^T qa and V^T qb,
    whose rows u[k] and v[k] are the singular vectors."""
    cosines = [min(max(c, 0.0), 1.0) for c in s]
    return cosines, [math.acos(c) for c in cosines], np.dot(u, qa), np.dot(v, qb)


def _sine_route(cosines, angles, a_vecs, b_vecs, qa) -> PrincipalPairs:
    """The result, with the angles of the cluster near zero (cosines above SINE_ROUTE_SIGMA)
    read from sines: the column norms of that cluster's b_k with span(A) projected out,
    after the Jacobi's rotations, ascending, paired with the cosines descending."""
    near = sum(c > SINE_ROUTE_SIGMA for c in cosines)
    if near:
        resid = b_vecs[:near] - np.dot(np.dot(b_vecs[:near], qa.T), qa)
        sines = sorted(map(math.sqrt, _jacobi(resid.tolist())[1]))
        angles = [math.asin(min(1.0, sine)) for sine in sines] + angles[near:]
    return PrincipalPairs(cosines=np.array(cosines), angles=np.array(angles), a_vectors=a_vecs, b_vectors=b_vecs)


def rank_counts(pairs: PrincipalPairs) -> tuple[int, int]:
    """(s, t): the zero angles, versine 2 sin^2(theta/2) <= RANK_COS_TOL on the angles
    (accurate near 0, where sigma is not), and the right ones, sigma <= RANK_COS_TOL."""
    versines = 2.0 * np.sin(0.5 * pairs.angles) ** 2
    return int(np.sum(versines <= RANK_COS_TOL)), int(np.sum(pairs.cosines <= RANK_COS_TOL))
