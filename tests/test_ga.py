import math
import warnings

import numpy as np
import pytest

from conftest import random_multivector

from subspace_angles.errors import SignatureMismatchError
from subspace_angles.ga import (
    MAX_DIMENSION,
    Multivector,
    Signature,
    _grade_masks,
    _norm,
    _parity_masks,
    _signs,
    _vector_table,
    _wedge_coeffs,
    _wedge_table,
    basis_vectors,
    mask_from_name,
    name_from_mask,
    vector_product,
    wedge_vectors,
)

SIG3 = Signature(3)
E1, E2, E3 = basis_vectors(SIG3)


def brute_force_basis_product(mask_a, mask_b, neg_mask):
    """Permutation-sign oracle: explicit index lists, bubble sort, annihilation."""
    idx = [i for i in range(12) if mask_a >> i & 1] + [i for i in range(12) if mask_b >> i & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(idx) - 1):
            if idx[k] > idx[k + 1]:
                idx[k], idx[k + 1] = idx[k + 1], idx[k]
                sign = -sign
                changed = True
    out = []
    k = 0
    while k < len(idx):
        if k + 1 < len(idx) and idx[k] == idx[k + 1]:
            if neg_mask >> idx[k] & 1:
                sign = -sign
            k += 2
        else:
            out.append(idx[k])
            k += 1
    mask = 0
    for i in out:
        mask |= 1 << i
    return mask, sign


def basis_blade_product(mask_a, mask_b, sig):
    """(result mask, sign) of e_a e_b: the sign counts the transpositions that
    merge the two ascending index lists, times the metric factor of each
    annihilated shared vector. The reference for ga._signs."""
    swaps = 0
    a = mask_a >> 1
    while a:
        swaps += (a & mask_b).bit_count()
        a >>= 1
    swaps += (mask_a & mask_b & sig.negative_mask).bit_count()
    return mask_a ^ mask_b, (-1 if swaps & 1 else 1)


class TestBasisBladeProduct:
    def test_vector_squares_to_one(self):
        assert basis_blade_product(0b01, 0b01, SIG3) == (0, 1)

    def test_anticommutation(self):
        assert basis_blade_product(0b01, 0b10, SIG3) == (0b11, 1)
        assert basis_blade_product(0b10, 0b01, SIG3) == (0b11, -1)

    def test_negative_square_vector(self):
        sig = Signature(1, 1)
        # index 1 is the negative-square basis vector of Cl(1,1)
        assert basis_blade_product(0b10, 0b10, sig) == (0, -1)

    def test_against_permutation_oracle_exhaustive_n4(self):
        for p, q in [(4, 0), (2, 2), (0, 4)]:
            sig = Signature(p, q)
            for a in range(16):
                for b in range(16):
                    assert basis_blade_product(a, b, sig) == \
                        brute_force_basis_product(a, b, sig.negative_mask)

    def test_against_permutation_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(1, 13))
            q = int(rng.integers(0, n + 1))
            sig = Signature(n - q, q)
            a = int(rng.integers(0, sig.size))
            b = int(rng.integers(0, sig.size))
            assert basis_blade_product(a, b, sig) == \
                brute_force_basis_product(a, b, sig.negative_mask)

    def test_vectorized_signs_match_scalar(self):
        rng = np.random.default_rng(11)
        for p, q in [(5, 0), (4, 1), (3, 3)]:
            sig = Signature(p, q)
            ai = rng.integers(0, sig.size, 40)
            bi = rng.integers(0, sig.size, 40)
            mat = _signs(ai[:, None], bi[None, :], sig)
            for i, a in enumerate(ai):
                for j, b in enumerate(bi):
                    assert mat[i, j] == basis_blade_product(int(a), int(b), sig)[1]

    @pytest.mark.parametrize("p,q", [(6, 0), (3, 3), (0, 6)])
    def test_vectorized_signs_all_pairs_n6(self, p, q):
        sig = Signature(p, q)
        masks = np.arange(sig.size)
        mat = _signs(masks[:, None], masks[None, :], sig)
        expected = [[basis_blade_product(a, b, sig)[1] for b in range(sig.size)]
                    for a in range(sig.size)]
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_vectorized_signs_high_bits(self, n):
        # random masks reach bits 6..11 of the swap-mask table
        rng = np.random.default_rng(100 + n)
        for q in (0, 1, 2):
            sig = Signature(n - q, q)
            ai = rng.integers(0, sig.size, 200)
            bi = rng.integers(0, sig.size, 200)
            mat = _signs(ai[:, None], bi[None, :], sig)
            expected = [[basis_blade_product(a, b, sig)[1] for b in bi.tolist()]
                        for a in ai.tolist()]
            assert np.array_equal(mat, expected), (n, q)


class TestGeometricProduct:
    def test_parallel_vectors(self):
        assert (E1 * E1) == Multivector.scalar(SIG3, 1.0)

    def test_orthogonal_vectors(self):
        assert (E1 * E2) == Multivector.basis_blade(SIG3, "e12")

    def test_associativity_random(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4, 5):
            sig = Signature(n)
            for _ in range(20):
                a = random_multivector(rng, sig)
                b = random_multivector(rng, sig)
                c = random_multivector(rng, sig)
                left = (a * b) * c
                right = a * (b * c)
                scale = a.coeff_norm() * b.coeff_norm() * c.coeff_norm()
                assert (left - right).coeff_norm() <= 1e-12 * scale

    def test_distributivity_random(self):
        rng = np.random.default_rng(2)
        sig = Signature(4)
        for _ in range(30):
            a = random_multivector(rng, sig)
            b = random_multivector(rng, sig)
            c = random_multivector(rng, sig)
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert (lhs - rhs).coeff_norm() <= 1e-12 * a.coeff_norm() * (b + c).coeff_norm()

    def test_vector_product_splits_into_inner_plus_outer_exact(self):
        # integer coordinates make every float operation exact
        a = Multivector.vector(SIG3, [1.0, 2.0, -3.0])
        b = Multivector.vector(SIG3, [4.0, 0.0, 5.0])
        assert a * b == Multivector.scalar(SIG3, a.scalar_product(b)) + a.outer(b)

    def test_vector_product_splits_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sig = Signature(int(rng.integers(2, 7)))
            a = Multivector.vector(sig, rng.uniform(-1, 1, sig.n))
            b = Multivector.vector(sig, rng.uniform(-1, 1, sig.n))
            split = Multivector.scalar(sig, a.scalar_product(b)) + a.outer(b)
            assert (a * b - split).coeff_norm() <= 1e-13

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            E1 * Multivector.vector(Signature(2), [1.0, 0.0])

    def test_overflowing_terms_still_raise(self):
        # products build their results through the checked constructor too
        big = Multivector.vector(SIG3, [1e200, 1e200, 0.0])
        other = Multivector.vector(SIG3, [0.0, 1e200, 1e200])
        products = [lambda: big * other, lambda: big.outer(other),
                    lambda: big.left_contraction(other)]
        with np.errstate(over="ignore", invalid="ignore"):
            for product in products:
                with pytest.raises(ValueError, match="finite"):
                    product()


def naive_product(a, b, keep):
    """out[i ^ j] += sign * a_i * b_j over the supports in row-major (i, j) order."""
    out = [0.0] * a.sig.size
    for i in np.flatnonzero(a.coeffs).tolist():
        for j in np.flatnonzero(b.coeffs).tolist():
            if keep(i, j):
                mask, sign = basis_blade_product(i, j, a.sig)
                out[mask] += sign * float(a.coeffs[i]) * float(b.coeffs[j])
    return np.array(out)


class TestScatterOrder:
    """Products add their terms in row-major order, so they round exactly
    like a plain double loop; compare bytes so the sign of zero counts."""

    KEEPS = {
        "__mul__": lambda i, j: True,
        "outer": lambda i, j: (i & j) == 0,
        "left_contraction": lambda i, j: (i & j) == i,
    }

    @pytest.mark.parametrize("op", sorted(KEEPS))
    def test_products_match_naive_loop_bytes(self, op):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            q = int(rng.integers(0, n + 1))
            sig = Signature(n - q, q)
            operands = []
            for _ in range(2):
                c = rng.standard_normal(sig.size) * 10.0 ** rng.integers(-6, 7, sig.size)
                c[rng.random(sig.size) < 0.5] = 0.0
                operands.append(Multivector(sig, c))
            a, b = operands
            got = getattr(a, op)(b).coeffs
            assert got.tobytes() == naive_product(a, b, self.KEEPS[op]).tobytes()


def iterated_outer(sig, rows):
    """rows[0] ^ rows[1] ^ ... through the kernel, one Multivector.outer per row."""
    out = Multivector.vector(sig, rows[0])
    for row in rows[1:]:
        out = out.outer(Multivector.vector(sig, row))
    return out


def outcome(fn, *args):
    """(bytes, None) of a returned Multivector, or (None, (type, message)) of a raise."""
    try:
        return fn(*args).coeffs.tobytes(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def row_loop_wedge(sig, rows):
    """_wedge_coeffs with every step summed one table row at a time onto +0.0."""
    acc = rows[0]
    for k in range(1, len(rows)):
        src, bits, sign = _wedge_table(sig.n, k)
        terms = sign * (acc[src] * rows[k][bits])
        acc = terms[0] + 0.0
        for term in terms[1:]:
            acc += term
    c = np.zeros(sig.size)
    c[_grade_masks(sig.n, len(rows))] = acc
    return c


class TestWedgeVectors:
    """The table-driven k-vector wedge keeps the bytes of the iterated kernel wedge."""

    SPECIALS = [0.0, -0.0, 1e-200, -1e-200]

    def sprinkle(self, rng, rows):
        hit = rng.random(rows.shape) < 0.4
        rows[hit] = rng.choice(self.SPECIALS, hit.sum())
        return rows

    def test_two_vectors_match_kernel_outer_bytes(self):
        # the u ^ v inputs of the split planes, n = 1 (where u ^ v = 0) included
        rng = np.random.default_rng(41)
        for n in range(1, 9):
            sig = Signature(n)
            for _ in range(40):
                rows = self.sprinkle(rng, rng.standard_normal((2, n)))
                got = wedge_vectors(sig, rows)
                assert got.coeffs.tobytes() == iterated_outer(sig, rows).coeffs.tobytes(), rows

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_every_grade_matches_iterated_outer_bytes(self, q):
        rng = np.random.default_rng(50 + q)
        for n in range(max(q, 1), MAX_DIMENSION + 1):
            sig = Signature(n - q, q)
            for k in range(1, n + 1):
                for _ in range(3):
                    rows = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-3, 4, (k, 1))
                    rows = self.sprinkle(rng, rows)
                    got = wedge_vectors(sig, rows)
                    want = iterated_outer(sig, rows)
                    assert got.coeffs.tobytes() == want.coeffs.tobytes(), (n, q, k)

    def test_reduction_matches_the_row_loop_bytes(self):
        # every step of every grade for n = 2..12: np.add.reduce over the table rows where a
        # step has two columns or more, the loop on the single-column top-grade steps (8-12
        # rows at n = 8..12), where a reduction would sum pairwise
        rng = np.random.default_rng(53)
        for n in range(2, MAX_DIMENSION + 1):
            sig = Signature(n)
            for k in range(1, n + 1):
                for _ in range(4):
                    rows = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-4, 5, (k, n))
                    rows = self.sprinkle(rng, rows)
                    assert _wedge_coeffs(sig, rows).tobytes() == row_loop_wedge(sig, rows).tobytes(), (n, k)

    def test_single_row_keeps_negative_zeros(self):
        got = wedge_vectors(SIG3, [[-0.0, 1.0, -0.0]])
        assert got.coeffs.tobytes() == Multivector.vector(SIG3, [-0.0, 1.0, -0.0]).coeffs.tobytes()
        assert np.signbit(got.coeffs[1])

    @pytest.mark.parametrize("bad", [1e160, math.nan, math.inf, -math.inf])
    def test_nonfinite_raises_like_iterated_outer(self, bad):
        # overflow raises from an intermediate product in the kernel and from
        # the final constructor here; the error must be the same
        rng = np.random.default_rng(52)
        for n, k in [(3, 2), (6, 3), (10, 5)]:
            sig = Signature(n)
            for slot in range(k):
                rows = rng.standard_normal((k, n))
                if bad == 1e160:
                    rows = rows * bad
                else:
                    rows[slot, int(rng.integers(n))] = bad
                with np.errstate(over="ignore", invalid="ignore"):
                    want = outcome(iterated_outer, sig, rows)
                    got = outcome(wedge_vectors, sig, rows)
                assert want[1] == (ValueError, "coefficients must be finite"), (n, k, slot)
                assert got == want, (n, k, slot)

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1]], [[1, 0, 0], [0, 1, 0, 5]], [[1, 0, 0], [[0, 1, 0]]]])
    def test_ragged_rows_rejected(self, rows):
        # refused by the rows' one conversion, as blade_from_spanning_vectors refuses them
        with pytest.raises(ValueError, match=r"^setting an array element with a sequence"):
            wedge_vectors(SIG3, rows)

    def test_bad_shapes_rejected(self):
        for rows in ([], [1.0, 2.0, 3.0], [[1.0, 2.0]], np.zeros((2, 4))):
            with pytest.raises(ValueError, match="rows of 3 coordinates"):
                wedge_vectors(SIG3, rows)


class TestVectorProduct:
    """vector_product, the signed-gather left product by a vector on one parity
    half, against the kernel."""

    SIGNATURES = [Signature(n) for n in range(1, MAX_DIMENSION + 1)] + [Signature(3, 1), Signature(4, 1)]

    @staticmethod
    def kernel(sig, v, coeffs):
        return (Multivector.vector(sig, v) * Multivector(sig, coeffs)).coeffs

    @staticmethod
    def halves(sig, v, coeffs):
        """v X reassembled from the products of X's two parity halves, each
        scattered onto the masks of the other parity."""
        masks = _parity_masks(sig.n)
        out = np.zeros(sig.size)
        for parity in (0, 1):
            out[masks[parity ^ 1]] = vector_product(sig, v, coeffs[masks[parity]], parity)
        return out

    @pytest.mark.parametrize("sig", SIGNATURES, ids=lambda sig: f"Cl({sig.p},{sig.q})")
    def test_matches_kernel(self, sig):
        half = sig.size // 2
        for table in _vector_table(sig):
            assert table.dtype == np.int64 and table.shape == (sig.n, half)
            assert 0 <= table.min() and table.max() < sig.size
            # each row takes every coefficient of the other half exactly once
            assert (np.sort(table % half, axis=1) == np.arange(half)).all()
        rng = np.random.default_rng(60 + sig.n + 20 * sig.q)
        x = rng.standard_normal(sig.size)
        masks = _parity_masks(sig.n)
        for parity in (0, 1):
            one = x.copy()
            one[masks[parity ^ 1]] = 0.0       # X of one parity: v X has the other one
            for coeffs in (x, one):
                v = rng.standard_normal(sig.n)
                err = np.linalg.norm(self.halves(sig, v, coeffs) - self.kernel(sig, v, coeffs))
                assert err <= 1e-15 * float(np.linalg.norm(v) * np.linalg.norm(coeffs))
        for mask in rng.choice(sig.size, min(sig.size, 64), replace=False):
            v = rng.standard_normal(sig.n)
            x = np.zeros(sig.size)
            x[mask] = rng.standard_normal()
            assert np.array_equal(self.halves(sig, v, x), self.kernel(sig, v, x)), mask


class TestOuterProduct:
    def test_self_wedge_vanishes(self):
        assert (E1 ^ E1) == Multivector.zero(SIG3)
        # no term survives, and the empty selection still gives float +0.0s
        assert (E1 ^ E1).coeffs.tobytes() == np.zeros(SIG3.size).tobytes()

    def test_basis_wedge(self):
        assert (E1 ^ E2) == Multivector.basis_blade(SIG3, "e12")

    def test_bilinearity_expansion(self):
        # (e1+e2) ^ (e1-e2) = -2 e12, expanded by hand
        lhs = (E1 + E2) ^ (E1 - E2)
        assert lhs.approx_eq(Multivector.basis_blade(SIG3, "e12", -2.0), 1e-15)

    def test_antisymmetry_on_vectors(self):
        rng = np.random.default_rng(4)
        sig = Signature(5)
        a = Multivector.vector(sig, rng.uniform(-1, 1, 5))
        b = Multivector.vector(sig, rng.uniform(-1, 1, 5))
        assert (a ^ b).approx_eq(-(b ^ a), 1e-15)


class TestLeftContraction:
    def test_vector_into_bivector(self):
        assert E1.left_contraction(E1 ^ E2) == E2

    def test_bivector_into_itself(self):
        e12 = E1 ^ E2
        assert e12.left_contraction(e12) == Multivector.scalar(SIG3, -1.0)

    def test_orthogonal_vector_gives_zero(self):
        assert E3.left_contraction(E1 ^ E2) == Multivector.zero(SIG3)

    def test_higher_grade_onto_lower_vanishes(self):
        assert (E1 ^ E2).left_contraction(E3) == Multivector.zero(SIG3)


class TestReverse:
    def test_bivector(self):
        assert ~(E1 ^ E2) == -(E1 ^ E2)

    def test_trivector(self):
        e123 = (E1 ^ E2) ^ E3
        assert ~e123 == -e123

    def test_mixed(self):
        x = Multivector.scalar(SIG3, 1.0) + (E1 ^ E2)
        assert ~x == Multivector.scalar(SIG3, 1.0) - (E1 ^ E2)

    def test_involution(self):
        rng = np.random.default_rng(5)
        x = random_multivector(rng, Signature(5))
        assert ~(~x) == x

    def test_antiautomorphism(self):
        rng = np.random.default_rng(6)
        sig = Signature(4)
        for _ in range(20):
            x = random_multivector(rng, sig)
            y = random_multivector(rng, sig)
            lhs = ~(x * y)
            rhs = (~y) * (~x)
            assert (lhs - rhs).coeff_norm() <= 1e-12 * x.coeff_norm() * y.coeff_norm()


class TestGradeProjection:
    def test_examples(self):
        x = Multivector.scalar(SIG3, 1.0) + E1 + (E1 ^ E2)
        assert x.grade(1) == E1
        assert x.grade(2) == (E1 ^ E2)

    def test_pure_grade_is_identity(self):
        e12 = E1 ^ E2
        assert e12.grade(2) == e12

    def test_parts_partition_exactly(self):
        rng = np.random.default_rng(8)
        for n in (3, 5, 7):
            x = random_multivector(rng, Signature(n))
            total = Multivector.zero(x.sig)
            supports = []
            for k, part in x.graded_parts().items():
                total = total + part
                supports.append(set(int(m) for m in part.support()))
            assert total == x
            for i in range(len(supports)):
                for j in range(i + 1, len(supports)):
                    assert not (supports[i] & supports[j])


class TestScalarProductAndNorm:
    def test_scalar_product_is_grade_zero_of_product(self):
        rng = np.random.default_rng(9)
        sig = Signature(3, 1)
        for _ in range(20):
            a = random_multivector(rng, sig)
            b = random_multivector(rng, sig)
            assert a.scalar_product(b) == pytest.approx((a * b).scalar_part(), abs=1e-12)

    @pytest.mark.parametrize("sig", [Signature(3, 1), Signature(4, 2)], ids=repr)
    def test_basis_blade_squares_carry_the_product_sign(self, sig):
        # the one sign scalar_product reads, _signs of e_M e_M, against the kernel's product
        for mask in range(sig.size):
            e = Multivector.basis_blade(sig, mask)
            assert e.scalar_product(e) == (e * e).scalar_part()


    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e170, 1e300])
    def test_norms_hold_where_the_square_leaves_the_float_range(self, scale):
        # c . c under- or overflows, the norm 5 * scale does not: c is scaled by a power of two first
        x = (3.0 * E1 + 4.0 * (E2 ^ E3)) * scale
        assert x.coeff_norm() == pytest.approx(5.0 * scale, rel=1e-15)
        assert x.grade_norms() == pytest.approx({1: 3.0 * scale, 2: 4.0 * scale}, rel=1e-15)

    def test_ordinary_norm_is_the_plain_root(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = random_multivector(rng, SIG3).coeffs
            assert Multivector(SIG3, c).coeff_norm() == math.sqrt(np.dot(c, c))
        assert Multivector.zero(SIG3).coeff_norm() == 0.0 and Multivector.zero(SIG3).grade_norms() == {}

    def test_norm_is_the_root_of_the_dot_product(self):
        # _norm squares with np.vdot, which raises no overflow warning: the bytes stay np.dot's
        rng = np.random.default_rng(12)
        for size in [2, 3, 8, 64, 924, 4096]:
            for _ in range(20):
                c = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 6, size)
                assert _norm(c) == math.sqrt(np.dot(c, c)), size

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
    def test_scaled_norm_raises_no_warning(self, scale):
        # c . c under- or overflows: c is divided by the power of two e at its largest entry,
        # and the root of that square multiplied back, with warnings as errors
        rng = np.random.default_rng(13)
        for size in [3, 64, 4096]:
            c = rng.standard_normal(size) * scale
            e = math.frexp(float(np.max(np.abs(c))))[1]
            scaled = np.ldexp(c, -e)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _norm(c)
            assert got == math.ldexp(math.sqrt(np.dot(scaled, scaled)), e)
            assert got == pytest.approx(scale * _norm(c / scale), rel=1e-14)

    def test_norm_above_the_float_range_is_inf_without_a_warning(self):
        c = np.full(4, 1.3e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _norm(c) == math.inf
            assert math.isnan(_norm(np.array([1.0, math.nan])))


class TestOperands:
    """A Python number is a scalar on either side of + and -, and scales on either
    side of *; any other operand is left to Python, which refuses it."""

    MV = 2.0 * E1 - (E2 ^ E3)

    @pytest.mark.parametrize("op, scalar_part", [
        (lambda mv: mv + 1.0, 1.0),
        (lambda mv: 1.0 + mv, 1.0),
        (lambda mv: mv - 1.0, -1.0),
    ], ids=["mv + 1", "1 + mv", "mv - 1"])
    def test_number_is_a_scalar(self, op, scalar_part):
        assert op(self.MV) == self.MV + Multivector.scalar(SIG3, scalar_part)

    def test_number_minus_multivector(self):
        assert 1.0 - self.MV == Multivector.scalar(SIG3, 1.0) - self.MV

    def test_paper_factor_is_a_rotor(self):
        # c + s i, as the paper writes each factor of A reverse(B), from a unit plane i
        t = 0.7
        r = math.cos(t) + math.sin(t) * (E1 ^ E2)
        assert r.grades() == [0, 2]
        assert (r * r.reverse()).approx_eq(Multivector.scalar(SIG3, 1.0), 1e-15)

    def test_foreign_operand_is_not_equal(self):
        assert (self.MV == "e1") is False
        assert self.MV != "e1"

    @pytest.mark.parametrize("op", [
        lambda mv: mv * "x",
        lambda mv: "x" * mv,
        lambda mv: mv ^ 2,
        lambda mv: mv + "x",
        lambda mv: "x" + mv,
        lambda mv: mv - "x",
        lambda mv: "x" - mv,
        lambda mv: mv + None,
    ], ids=["mv * str", "str * mv", "mv ^ int", "mv + str", "str + mv", "mv - str", "str - mv",
            "mv + None"])
    def test_foreign_operand_raises(self, op):
        with pytest.raises(TypeError):
            op(self.MV)


class TestNamesAndMisc:
    def test_name_round_trip(self):
        for name, mask in [("1", 0), ("e1", 1), ("e12", 3), ("e13", 5)]:
            assert mask_from_name(name, 3) == mask
            assert name_from_mask(mask) == name

    def test_names_above_nine(self):
        mask = (1 << 0) | (1 << 9)
        assert name_from_mask(mask) == "e1_10"
        assert mask_from_name("e1_10", 10) == mask

    def test_every_mask_reads_back(self):
        # a lone index above 9 is spelt e_10: 'e10' reads as e1 ^ e0 and 'e12' as e1 ^ e2
        assert [name_from_mask(1 << i) for i in (8, 9, 11)] == ["e9", "e_10", "e_12"]
        assert mask_from_name("e_3", 3) == mask_from_name("e3", 3) == 4
        for mask in range(1 << MAX_DIMENSION):
            assert mask_from_name(name_from_mask(mask), MAX_DIMENSION) == mask

    def test_bad_names(self):
        # "e21" and "e132" would carry a sign (e2e1 = -e12) that a mask cannot
        for bad in ["x1", "e0_1", "e11", "e123x", "e21", "e132", "e_", "e_1_2"]:
            with pytest.raises(ValueError):
                mask_from_name(bad, 3)
        # Arabic-Indic 1 4 and a superscript 3 pass str.isdigit, but are no ASCII indices
        for bad in ["e\u0661\u0664", "e\u00b3"]:
            with pytest.raises(ValueError, match="bad blade name"):
                mask_from_name(bad, 4)
        with pytest.raises(ValueError, match="ascend"):
            mask_from_name("e10_1", 10)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            E1.coeffs = None
        with pytest.raises(ValueError):
            E1.coeffs[0] = 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Multivector.vector(SIG3, [1.0, math.inf, 0.0])

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError, match="^p and q must be nonnegative$"):
            Signature(-1)
        with pytest.raises(ValueError, match=r"^dimension p\+q must be in 1..12, got 13$"):
            Signature(13)
        with pytest.raises(ValueError, match=r"^need 8 coefficients, got \(2,\)$"):
            Multivector(SIG3, [1.0, 2.0])
        with pytest.raises(ValueError, match="^mask out of range$"):
            Multivector.basis_blade(SIG3, 8)

    def test_repr(self):
        assert repr(Multivector.zero(SIG3)) == "0"
        assert repr(2.0 * E1 - (E2 ^ E3)) == "2*e1 - 1*e23"
