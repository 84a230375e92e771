"""Matrix route to principal angles, used to cross-check the algebra route.

QR (modified Gram-Schmidt) plus singular value decomposition of the
matrix of mutual inner products gives r pairs of principal unit vectors
a_k, b_k and singular values sigma_k = cos(theta_k) = a_k . b_k, at
O(r^3) cost.

Everything here is implemented from scratch (one-sided Jacobi SVD,
modified Gram-Schmidt) rather than delegated to numpy.linalg, so that
agreement with the geometric-product engine is a genuine check between
two independent implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError

DEPENDENCE_TOL = 1e-10

# The s/t cutoff of rank_counts. It equals engine.ANGLE_COS_TOL but is not
# imported from it, so the two routes share no code.
RANK_COS_TOL = 1e-9

# Above this sigma, acos is ill-conditioned and the angle is recomputed
# from the orthogonal residual instead.
SINE_ROUTE_SIGMA = 0.99


@dataclass(frozen=True)
class PrincipalPairs:
    """Principal angles and vectors of two subspaces.

    cosines are descending; a_vectors/b_vectors are row-paired unit
    principal vectors with a_k . b_k = cosines[k].
    """

    cosines: np.ndarray
    angles: np.ndarray
    a_vectors: np.ndarray
    b_vectors: np.ndarray


def orthonormal_basis(vectors) -> np.ndarray:
    """Orthonormalize spanning vectors (rows); same span, or raises.

    Modified Gram-Schmidt with one re-orthogonalization pass. A vector
    whose residual falls below DEPENDENCE_TOL times its original norm
    makes the span degenerate.
    """
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if not rows:
        raise DegenerateSpanError("empty spanning set")
    basis: list[np.ndarray] = []
    for v in rows:
        original = math.sqrt(float(v @ v))
        if original == 0.0:
            raise DegenerateSpanError("zero vector in spanning set")
        u = v.copy()
        for _ in range(2):
            for b in basis:
                u = u - (u @ b) * b
        res = math.sqrt(float(u @ u))
        if res < DEPENDENCE_TOL * original:
            raise DegenerateSpanError(f"vector {len(basis)} is dependent")
        basis.append(u / res)
    return np.array(basis)


def _jacobi_onesided(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of m (rows >= cols): m = u @ diag(s) @ v.T."""
    a = m.astype(float).copy()
    rows, cols = a.shape
    v = np.eye(cols)
    scale = max(float(np.max(np.abs(a))), 1e-300)
    for _ in range(60):
        rotated = False
        for i in range(cols):
            for j in range(i + 1, cols):
                ci = a[:, i]
                cj = a[:, j]
                gij = float(ci @ cj)
                gii = float(ci @ ci)
                gjj = float(cj @ cj)
                if abs(gij) <= 1e-30 * scale * scale or abs(gij) <= 1e-16 * math.sqrt(gii * gjj):
                    continue
                rotated = True
                zeta = (gjj - gii) / (2.0 * gij)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                a[:, i], a[:, j] = cs * ci - sn * cj, sn * ci + cs * cj
                v[:, i], v[:, j] = cs * v[:, i] - sn * v[:, j], sn * v[:, i] + cs * v[:, j]
        if not rotated:
            break

    s = np.sqrt(np.sum(a * a, axis=0))
    u = np.zeros((rows, cols))
    for j in range(cols):
        if s[j] > 1e-14 * scale:
            u[:, j] = a[:, j] / s[j]
    # complete near-null columns of u to an orthonormal set
    for j in range(cols):
        if s[j] > 1e-14 * scale:
            continue
        for k in range(rows):
            cand = np.zeros(rows)
            cand[k] = 1.0
            for l in range(cols):
                if l != j:
                    cand = cand - (cand @ u[:, l]) * u[:, l]
            res = math.sqrt(float(cand @ cand))
            if res > 0.5:
                u[:, j] = cand / res
                break

    order = np.argsort(-s)
    return u[:, order], s[order], v[:, order]


def svd_small(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a small matrix: matrix ~= U @ diag(s) @ V.T.

    U is (rows x k), V is (cols x k) with k = min(rows, cols); both have
    orthonormal columns, s is descending and nonnegative.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] >= m.shape[1]:
        return _jacobi_onesided(m)
    u, s, v = _jacobi_onesided(m.T)
    return v, s, u


def principal_angles(basis_a, basis_b) -> PrincipalPairs:
    """Principal angles between two subspaces given orthonormal bases (rows).

    The SVD of the mutual inner-product matrix yields min(ra, rb) pairs.
    Angles near zero (sigma > 0.99) are recomputed from the component of
    b_k orthogonal to a_k, which is well conditioned where acos is not.
    """
    qa = np.atleast_2d(np.asarray(basis_a, dtype=float))
    qb = np.atleast_2d(np.asarray(basis_b, dtype=float))
    if qa.size == 0 or qb.size == 0:
        raise DegenerateSpanError("empty basis")
    m = qa @ qb.T
    u, s, v = svd_small(m)
    s = np.clip(s, 0.0, 1.0)
    a_vecs = u.T @ qa
    b_vecs = v.T @ qb
    angles = np.empty_like(s)
    for k in range(s.size):
        if s[k] > SINE_ROUTE_SIGMA:
            resid = b_vecs[k] - (a_vecs[k] @ b_vecs[k]) * a_vecs[k]
            angles[k] = math.asin(min(1.0, math.sqrt(float(resid @ resid))))
        else:
            angles[k] = math.acos(float(s[k]))
    return PrincipalPairs(cosines=s, angles=angles, a_vectors=a_vecs, b_vectors=b_vecs)


def rank_counts(pairs: PrincipalPairs) -> tuple[int, int]:
    """(s, t): the zero angles, sigma >= 1 - RANK_COS_TOL, and the right ones, sigma <= it."""
    return int(np.sum(pairs.cosines >= 1.0 - RANK_COS_TOL)), int(np.sum(pairs.cosines <= RANK_COS_TOL))
