import numpy as np
import pytest

from subspace_angles import conformal as cf
from subspace_angles.blades import (
    Blade,
    blade_from_spanning_vectors,
    is_blade,
    subspace_membership,
)
from subspace_angles.errors import DegenerateSpanError, NotABladeError
from subspace_angles.ga import Multivector, Signature, basis_vectors, wedge_vectors
from subspace_angles.problems import SubspaceProblem, run_problem

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


class TestOverflow:
    """A span whose norm overflows raises ValueError; no Blade has an infinite
    magnitude or a zero frame row."""

    @pytest.mark.parametrize("rows", [
        [[1e155, 0, 0]],                         # the row's squared norm overflows
        [[1e155, 0, 0], [0, 1e-155, 0]],         # ... while the blade's magnitude is 1
    ])
    def test_overflowing_row_raises(self, rows):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="vector 0 overflows"):
            blade_from_spanning_vectors(rows)

    def test_overflowing_magnitude_raises(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="magnitude overflows"):
            blade_from_spanning_vectors([[1e153, 0, 0], [0, 1e153, 0]])

    def test_large_finite_span_still_builds(self):
        b = blade_from_spanning_vectors([[1e76, 0, 0], [0, 1e76, 0]])
        assert b.magnitude == pytest.approx(1e152)
        assert np.array_equal(b.frame, np.eye(3)[:2])


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


def spanning_blades(seed, count):
    """Blades of random spanning sets over n = 2..12, every grade 1..n."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        try:
            out.append(blade_from_spanning_vectors(rng.uniform(-1, 1, (k, n))))
        except DegenerateSpanError:
            continue
    return out


def multivector_blades(seed, count):
    """Blades through from_multivector: scaled wedges of random vectors, n = 2..12."""
    rng = np.random.default_rng(seed)
    out = []
    for b in spanning_blades(seed, count):
        out.append(Blade.from_multivector(b.mv * float(rng.uniform(0.1, 10.0))))
    return out


def conformal_carriers(seed, count):
    """Euclidean carriers of random conformal flats and rounds in Cl(4,1)."""
    rng = np.random.default_rng(seed)
    csig = cf.conformal_signature(3)
    out = []
    for b in spanning_blades(seed, count):
        if b.sig.n != 3 or b.grade == 3:
            continue
        objects = [cf.flat(csig, rng.uniform(-3, 3, 3), b.mv)]     # a line or a plane
        if b.grade == 1:                                            # and a sphere: carrier grade 3
            objects.append(cf.sphere(csig, rng.uniform(-3, 3, 3), float(rng.uniform(0.5, 2.0))))
        out += [cf.euclidean_carrier(cf.ConformalObject.from_multivector(x)) for x in objects]
    return out


class TestFrame:
    """Blade.frame: orthonormal rows whose wedge is the unit blade, sign included."""

    @pytest.mark.parametrize("make", [spanning_blades, multivector_blades])
    def test_rows_orthonormal(self, make):
        for b in make(51, 150):
            assert b.frame.shape == (b.grade, b.sig.n)
            assert np.max(np.abs(b.frame @ b.frame.T - np.eye(b.grade))) <= 1e-12

    @pytest.mark.parametrize("make", [spanning_blades, multivector_blades, conformal_carriers])
    def test_wedge_of_frame_is_unit_blade(self, make):
        for b in make(52, 400):
            gap = wedge_vectors(b.sig, b.frame) - b.unit()
            assert np.max(np.abs(gap.coeffs)) <= 1e-12

    def test_inputs_cover_every_dimension_and_carrier_grade(self):
        assert {b.sig.n for b in spanning_blades(52, 400)} == set(range(2, 13))
        assert {b.grade for b in conformal_carriers(52, 400)} == {1, 2, 3}

    def test_grade_zero_frame_is_empty(self):
        for sig in (SIG3, Signature(2, 1)):
            b = Blade.from_multivector(Multivector.scalar(sig, -2.0))
            assert b.frame.shape == (0, sig.n)

    def test_frame_is_read_only(self):
        for b in (blade_from_spanning_vectors([[1, 2, 0], [0, 1, 1]]), Blade.from_multivector(E1 ^ E3)):
            assert not b.frame.flags.writeable
            with pytest.raises(ValueError):
                b.frame[0, 0] = 1.0

    def test_frame_left_out_of_eq_and_repr(self):
        a = blade_from_spanning_vectors([[1, 0, 0], [0, 1, 0]])
        b = blade_from_spanning_vectors([[1, 1, 0], [0, 1, 0]])
        assert not np.array_equal(a.frame, b.frame)
        assert a == b
        assert "frame" not in repr(a)

    @pytest.mark.parametrize("make", [spanning_blades, multivector_blades, conformal_carriers])
    def test_magnitude_times_frame_wedge_rebuilds_blade(self, make):
        # the frame is the blade's orthogonal factorization: |B| q_1 ^ ... ^ q_k = B
        for b in make(53, 400):
            rebuilt = b.magnitude * wedge_vectors(b.sig, b.frame)
            assert (rebuilt - b.mv).coeff_norm() <= 1e-12 * b.magnitude

    def test_factorization_examples(self):
        scaled = Blade.from_multivector(((E1 ^ E2) ^ E3) * 5.0)
        assert scaled.magnitude == pytest.approx(5.0)
        assert scaled.frame.shape == (3, 3)
        assert (scaled.magnitude * wedge_vectors(SIG3, scaled.frame)).approx_eq(scaled.mv, 1e-14)
        for b in (Blade.from_multivector(E1 ^ E2), blade_from_spanning_vectors([[1, 0, 0], [1, 1, 0]])):
            assert b.magnitude == pytest.approx(1.0)
            assert b.frame.shape == (2, 3)
            assert (b.magnitude * wedge_vectors(SIG3, b.frame)).approx_eq(E1 ^ E2, 1e-15)

    def test_conformal_run_factors_each_carrier_once(self, monkeypatch):
        # one factorization contracts each of the n basis vectors onto the carrier once
        n = 3
        csig = cf.conformal_signature(n)
        xa = cf.flat(csig, [0.0, 0.0, 0.0], E1 ^ E2)
        xb = cf.sphere(csig, [1.0, 2.0, 3.0], 1.5)
        problem = SubspaceProblem(n=n, mode="conformal", signature=(n + 1, 1),
                                  a_span=[float(v) for v in xa.coeffs],
                                  b_span=[float(v) for v in xb.coeffs])
        calls = []
        contract = Multivector.left_contraction

        def counting(self, other):
            calls.append(self.sig)
            return contract(self, other)

        monkeypatch.setattr(Multivector, "left_contraction", counting)
        doc = run_problem(problem, oracle_enabled=True)
        assert doc["oracle"]["max_deviation"] <= 1e-9
        assert calls == [Signature(n)] * (2 * n)
