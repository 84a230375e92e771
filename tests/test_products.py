"""The pair path takes its small matrix products with np.dot, whose call costs less than
the @ operator's matmul dispatch. These tests pin the premise that makes the swap free:
on this NumPy and BLAS, np.dot and @ give the same bytes for every product shape and
memory layout the pair path makes, so a build where they differ fails here instead of
moving report bytes silently."""

import itertools

import numpy as np
import pytest

from subspace_angles.blades import blade_from_spanning_vectors
from subspace_angles.engine import _planes, _spectrum
from subspace_angles.ga import (_parity_masks, _vector_table, contraction_matrix, euclidean_signature,
                                vector_product, wedge_vectors)
from subspace_angles.oracle import _svd, orthonormal_basis


def assert_same(x, y):
    assert np.dot(x, y).tobytes() == (x @ y).tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_vector_product_gathers(n):
    # the rotor chain's step: the vector's n coordinates against the signed gather
    # of the other parity's half, (n, 2^(n-1)), for both parities
    rng = np.random.default_rng(n)
    sig = euclidean_signature(n)
    for parity, _ in itertools.product((0, 1), range(5)):
        half = rng.standard_normal(_parity_masks(n)[parity].size)
        v = rng.standard_normal(n)
        gathered = np.concatenate((half, -half))[_vector_table(sig)[parity ^ 1]]
        assert_same(v, gathered)
        assert vector_product(sig, v, half, parity).tobytes() == (v @ gathered).tobytes()


@pytest.mark.parametrize("n", range(2, 13))
def test_spectrum_against_the_matmul_formula(n):
    # the two Grams F^T F, O = (2 P_A - I)(2 P_B - I) and v^T O v for every pair of grades,
    # compared product by product and as _spectrum's whole result against the same formula
    # written with @ and out-of-place scaling
    rng = np.random.default_rng(100 + n)
    eye = np.eye(n)
    for small, large in itertools.combinations_with_replacement(range(1, n + 1), 2):
        a = blade_from_spanning_vectors(rng.standard_normal((large, n)))
        b = blade_from_spanning_vectors(rng.standard_normal((small, n)))
        assert_same(a.frame.T, a.frame)
        assert_same(b.frame.T, b.frame)
        o = (2.0 * (a.frame.T @ a.frame) - eye) @ (2.0 * (b.frame.T @ b.frame) - eye)
        w, v = np.linalg.eigh(0.5 * (o + o.T))
        assert_same(2.0 * (a.frame.T @ a.frame) - eye, 2.0 * (b.frame.T @ b.frame) - eye)
        assert_same(v.T, o)
        assert_same(v.T @ o, v)
        got_w, got_v, got_rot = _spectrum(a, b)
        assert got_w == w.tolist()
        assert got_v.tobytes() == v.tobytes()
        assert got_rot.tobytes() == (v.T @ o @ v).tobytes()


@pytest.mark.parametrize("m", range(2, 13))
def test_cluster_and_split_products(m):
    # _planes' dots on the strided real and imaginary parts of its eigenvectors; a cluster's
    # block of rot and its basis, slices of C-ordered arrays, against each plane's x and y;
    # and the basis against the complement of the planes, the QR's trailing columns
    rng = np.random.default_rng(200 + m)
    k = rng.standard_normal((m, m))
    k = k - k.T
    z = np.linalg.eigh(1j * k)[1]
    for j in range(m):
        x, y = z[:, j].real, z[:, j].imag
        assert_same(x, x)
        assert_same(y, x)
        assert_same(y, y)
    n = m + 2
    rot = rng.standard_normal((n, n))
    v = np.linalg.eigh(rot + rot.T)[1]
    block, basis = rot[1:1 + m, 1:1 + m], v[:, 1:1 + m]
    local = _planes(0.5 * (block - block.T), 1e-12)
    for rate, x, y in local:
        for u in (x, y):
            assert_same(block, u)
            assert_same(u, block @ u)
            assert_same(basis, u)
    spanned = np.column_stack([u for _, x, y in local[:1] for u in (x, y)])
    assert_same(basis, np.linalg.qr(spanned, mode="complete")[0][:, 2:])


@pytest.mark.parametrize("n", range(1, 13))
def test_factor_projector(n):
    # Blade.from_multivector's projector C C^T, C the contraction matrix of each grade
    rng = np.random.default_rng(400 + n)
    sig = euclidean_signature(n)
    for k in range(1, n + 1):
        mv = wedge_vectors(sig, rng.standard_normal((k, n)))
        c = contraction_matrix(mv / mv.coeff_norm(), k)
        assert_same(c, c.T)


@pytest.mark.parametrize("n", range(2, 13))
def test_oracle_products(n):
    # Q_A Q_B^T, the Jacobi's LAPACK start M V0^T (M with rows >= cols, three columns or
    # more), the principal vectors u^T Q_A and v^T Q_B, and the sine route's projection
    # (B_J Q_A^T) Q_A for every cluster size J
    rng = np.random.default_rng(300 + n)
    for ra, rb in itertools.product(range(1, n + 1), repeat=2):
        qa = orthonormal_basis(rng.standard_normal((ra, n)))
        qb = orthonormal_basis(rng.standard_normal((rb, n)))
        assert_same(qa, qb.T)
        m = qa @ qb.T if ra >= rb else (qa @ qb.T).T   # as _svd hands it over: a view when transposed
        if m.shape[1] >= 3:
            assert_same(m, np.linalg.svd(m, full_matrices=False)[2].T)
        u, _, v = _svd(qa @ qb.T)   # the singular vectors as lists of rows
        assert_same(u, qa)
        assert_same(v, qb)
        b_vecs = np.array(v) @ qb
        for near in range(1, min(ra, rb) + 1):
            assert_same(b_vecs[:near], qa.T)
            assert_same(b_vecs[:near] @ qa.T, qa)
