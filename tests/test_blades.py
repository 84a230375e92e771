import numpy as np
import pytest

from subspace_angles.blades import (
    Blade,
    blade_from_spanning_vectors,
    is_blade,
    orthogonal_factorization,
    subspace_membership,
)
from subspace_angles.errors import DegenerateSpanError, NotABladeError
from subspace_angles.ga import Multivector, Signature, basis_vectors

SIG3 = Signature(3)
E1, E2, E3 = basis_vectors(SIG3)


class TestBladeFromSpanningVectors:
    def test_orthonormal_pair(self):
        b = blade_from_spanning_vectors([[1, 0, 0], [0, 1, 0]])
        assert b.grade == 2
        assert b.magnitude == pytest.approx(1.0)
        assert b.mv == (E1 ^ E2)

    def test_sheared_pair(self):
        # e1 ^ (e1 + e2) = e12 by expansion
        b = blade_from_spanning_vectors([[1, 0, 0], [1, 1, 0]])
        assert b.mv.approx_eq(E1 ^ E2, 1e-15)
        assert b.magnitude == pytest.approx(1.0)

    def test_dependent_raises(self):
        with pytest.raises(DegenerateSpanError):
            blade_from_spanning_vectors([[1, 0, 0], [2, 0, 0]])

    def test_nearly_dependent_raises(self):
        with pytest.raises(DegenerateSpanError):
            blade_from_spanning_vectors([[1, 0, 0], [1, 1e-12, 0]])

    def test_too_many_vectors(self):
        with pytest.raises(DegenerateSpanError):
            blade_from_spanning_vectors([[1, 0], [0, 1], [1, 1]])

    def test_volume_matches_gram_determinant(self):
        rng = np.random.default_rng(10)
        for _ in range(80):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(4, n) + 1))
            rows = rng.uniform(-1, 1, (r, n))
            try:
                b = blade_from_spanning_vectors(rows)
            except DegenerateSpanError:
                continue
            vol = np.sqrt(np.linalg.det(rows @ rows.T))
            assert abs(b.magnitude - vol) <= 1e-9 * vol


class TestOrthogonalFactorization:
    def test_basis_bivector(self):
        fac = orthogonal_factorization(Blade.from_multivector(E1 ^ E2))
        assert fac.magnitude == pytest.approx(1.0)
        assert len(fac.factors) == 2
        assert fac.product().approx_eq(E1 ^ E2, 1e-10)

    def test_sheared_pair(self):
        b = blade_from_spanning_vectors([[1, 0, 0], [1, 1, 0]])
        fac = orthogonal_factorization(b)
        assert fac.magnitude == pytest.approx(1.0)
        for i, f in enumerate(fac.factors):
            assert f.norm() == pytest.approx(1.0, abs=1e-10)
            for g in fac.factors[i + 1:]:
                assert f.scalar_product(g) == pytest.approx(0.0, abs=1e-10)
        assert fac.product().approx_eq(E1 ^ E2, 1e-10)

    def test_scaled_trivector(self):
        b = Blade.from_multivector(((E1 ^ E2) ^ E3) * 5.0)
        fac = orthogonal_factorization(b)
        assert fac.magnitude == pytest.approx(5.0)
        assert len(fac.factors) == 3
        assert fac.product().approx_eq(b.mv, 1e-9)

    def test_factor_then_rebuild_500_random(self):
        rng = np.random.default_rng(12)
        done = 0
        while done < 500:
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(4, n) + 1))
            try:
                b = blade_from_spanning_vectors(rng.uniform(-1, 1, (r, n)))
            except DegenerateSpanError:
                continue
            fac = orthogonal_factorization(b)
            rebuilt = fac.product()
            assert (rebuilt - b.mv).coeff_norm() <= 1e-9 * b.magnitude
            for i, f in enumerate(fac.factors):
                assert abs(f.norm() - 1.0) <= 1e-10
                for g in fac.factors[i + 1:]:
                    assert abs(f.scalar_product(g)) <= 1e-10
            done += 1


class TestIsBlade:
    def test_basis_bivector(self):
        assert is_blade(E1 ^ E2)

    def test_sum_of_disjoint_bivectors_is_not(self):
        sig = Signature(4)
        e = basis_vectors(sig)
        x = (e[0] ^ e[1]) + (e[2] ^ e[3])
        assert not is_blade(x)

    def test_zero_is_not(self):
        assert not is_blade(Multivector.zero(SIG3))

    def test_mixed_grade_is_not(self):
        assert not is_blade(Multivector.scalar(SIG3, 1.0) + E1)

    def test_from_multivector_rejects_mixed(self):
        with pytest.raises(NotABladeError):
            Blade.from_multivector(E1 + (E2 ^ E3))


class TestBladeValidationHalves:
    """Each of the two checks in Blade.from_multivector rejects an input the other accepts."""

    def test_factorization_rejects_square_scalar_non_blade(self):
        # (e123 + e456) reverse(e123 + e456) = 2: only the factorization sees it is no blade
        sig = Signature(6)
        x = Multivector.basis_blade(sig, "e123") + Multivector.basis_blade(sig, "e456")
        with pytest.raises(NotABladeError):
            Blade.from_multivector(x)
        assert not is_blade(x)

    def test_scalar_test_rejects_near_blade(self):
        # the factorization reproduces e12 within tolerance; the square's e1234 part does not vanish
        sig = Signature(4)
        x = Multivector.basis_blade(sig, "e12") + Multivector.basis_blade(sig, "e34", 8e-10)
        with pytest.raises(NotABladeError):
            Blade.from_multivector(x)

    def test_near_blade_within_tolerance_accepted(self):
        sig = Signature(4)
        x = Multivector.basis_blade(sig, "e12") + Multivector.basis_blade(sig, "e34", 3e-10)
        assert Blade.from_multivector(x).grade == 2


class TestSubspaceMembership:
    def test_examples(self):
        b = Blade.from_multivector(E1 ^ E2)
        assert subspace_membership(E1, b)
        assert not subspace_membership(E3, b)
        assert subspace_membership(E1 + E2, b)

    def test_spanning_vectors_belong(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(4, n) + 1))
            rows = rng.uniform(-1, 1, (r, n))
            try:
                b = blade_from_spanning_vectors(rows)
            except DegenerateSpanError:
                continue
            sig = Signature(n)
            for row in rows:
                assert subspace_membership(Multivector.vector(sig, row), b)
