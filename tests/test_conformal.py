import functools
import math

import numpy as np
import pytest

from subspace_angles import conformal as cf
from subspace_angles.blades import Blade, blade_from_spanning_vectors
from subspace_angles.engine import relative_angle
from subspace_angles.errors import CarrierError, NotABladeError
from subspace_angles.ga import Multivector, Signature, basis_vectors

N = 3
CSIG = cf.conformal_signature(N)
ESIG = Signature(N)
E1, E2, E3 = basis_vectors(ESIG)


def random_direction_blade(rng, grade):
    rows = rng.uniform(-1.0, 1.0, (grade, N))
    return blade_from_spanning_vectors(rows, ESIG)


def random_flat(rng, grade):
    d = random_direction_blade(rng, grade)
    point = rng.uniform(-3.0, 3.0, N)
    return cf.ConformalObject.from_multivector(cf.flat(CSIG, point, d.mv)), d


class TestNullBasis:
    def test_null_squares(self):
        assert (cf.e_origin(CSIG) * cf.e_origin(CSIG)).scalar_part() == pytest.approx(0.0)
        assert (cf.e_infinity(CSIG) * cf.e_infinity(CSIG)).scalar_part() == pytest.approx(0.0)

    def test_pairing(self):
        assert cf.e_origin(CSIG).scalar_product(cf.e_infinity(CSIG)) == pytest.approx(-1.0)

    def test_minkowski_plane_squares_to_plus_one(self):
        e = cf.minkowski_plane(CSIG)
        assert (e * e).scalar_part() == pytest.approx(1.0)

    def test_translator_is_a_versor(self):
        t = cf.translator(CSIG, [0.4, -1.0, 2.0])
        assert (t * t.reverse()).approx_eq(Multivector.scalar(CSIG, 1.0), 1e-12)

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError, match=r"^not a conformal signature: Cl\(3,0\)$"):
            cf.base_dimension(Signature(3))
        with pytest.raises(ValueError, match="^element does not match the conformal base space$"):
            cf.lift_euclidean(CSIG, Multivector.vector(Signature(2), [1.0, 0.0]))
        with pytest.raises(ValueError, match="^point must have 3 coordinates$"):
            cf.embed_point(CSIG, [1.0, 2.0])


class TestObjectDetection:
    def test_flat_detected(self):
        obj = cf.ConformalObject.from_multivector(cf.flat(CSIG, [1.0, 2.0, 3.0], (E1 ^ E2)))
        assert obj.kind == "flat"

    def test_sphere_detected_as_round(self):
        obj = cf.ConformalObject.from_multivector(cf.sphere(CSIG, [0.0, 0.0, 0.0], 1.0))
        assert obj.kind == "round"

    def test_point_detected_as_round(self):
        obj = cf.ConformalObject.from_multivector(cf.embed_point(CSIG, [1.0, 0.0, 0.0]))
        assert obj.kind == "round"

    def test_non_blade_rejected(self):
        e = basis_vectors(CSIG)
        # e123 + e456 in Cl(5,1) squares to the scalar 2, but does not factor
        sig = cf.conformal_signature(4)
        for bad in ((e[0] ^ e[1]) + (e[2] ^ e[3]),
                    Multivector.basis_blade(sig, "e123") + Multivector.basis_blade(sig, "e456")):
            with pytest.raises(NotABladeError):
                cf.ConformalObject.from_multivector(bad)

    @pytest.mark.parametrize("f, accepted", [(0.3, True), (0.8, False)])
    def test_near_flat_edge(self, f, accepted):
        # the unit flat through the origin along e12 is +-e1256; f ROUND_TOL e3456 is a miss
        # of 2 f ROUND_TOL, against ROUND_TOL: accepted below f = 1/2, refused above
        sig = cf.conformal_signature(4)
        x = cf.flat(sig, [0.0] * 4, Multivector.basis_blade(Signature(4), "e12"))
        x = x / x.coeff_norm() + Multivector.basis_blade(sig, "e3456", f * cf.ROUND_TOL)
        if accepted:
            assert cf.ConformalObject.from_multivector(x).kind == "flat"
        else:
            with pytest.raises(NotABladeError):
                cf.ConformalObject.from_multivector(x)

    def test_spread_dust_is_judged_by_its_norm(self):
        # ten grade-2 coefficients, each below ROUND_TOL |X|, whose norm is above it
        x = cf.flat(CSIG, [1.0, 2.0, 3.0], E1 ^ E2)
        grade2 = np.flatnonzero([bin(m).count("1") == 2 for m in range(CSIG.size)])
        coeffs = x.coeffs.copy()
        coeffs[grade2] = 0.9 * cf.ROUND_TOL * x.coeff_norm()
        dusty = Multivector(CSIG, coeffs)
        assert grade2.size == 10
        assert np.max(np.abs(dusty.grade(2).coeffs)) <= cf.ROUND_TOL * dusty.coeff_norm()
        assert dusty.grade(2).coeff_norm() > cf.ROUND_TOL * dusty.coeff_norm()
        with pytest.raises(NotABladeError, match="not of pure grade"):
            cf.ConformalObject.from_multivector(dusty)
        coeffs[grade2] *= 0.25   # norm below the bound: the dust is stripped
        assert cf.ConformalObject.from_multivector(Multivector(CSIG, coeffs)).mv == x


class TestToOffsetFlat:
    def test_sphere_becomes_wedge_with_infinity(self):
        sphere = cf.ConformalObject.from_multivector(cf.sphere(CSIG, [0.0, 0.0, 0.0], 1.0))
        flat = cf.to_offset_flat(sphere)
        assert flat.kind == "flat"
        assert flat.mv.approx_eq(sphere.mv.outer(cf.e_infinity(CSIG)),
                                 1e-12 * sphere.mv.coeff_norm())

    def test_flat_passes_through(self):
        obj = cf.ConformalObject.from_multivector(cf.flat(CSIG, [1.0, 0.0, 0.0], (E1 ^ E3)))
        assert cf.to_offset_flat(obj) is obj

    def test_point_becomes_flat_point(self):
        p = cf.ConformalObject.from_multivector(cf.embed_point(CSIG, [1.0, 2.0, 3.0]))
        flat = cf.to_offset_flat(p)
        assert flat.mv.max_grade() == 2
        assert flat.mv.outer(cf.e_infinity(CSIG)).coeff_norm() <= 1e-12


class TestCarrier:
    def test_carrier_recovers_direction(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            grade = int(rng.integers(1, N + 1))
            obj, d = random_flat(rng, grade)
            carrier = cf.euclidean_carrier(obj)
            assert carrier.grade == grade
            # equal up to scale: unit blades agree up to sign
            diff_plus = (carrier.unit() - d.unit()).coeff_norm()
            diff_minus = (carrier.unit() + d.unit()).coeff_norm()
            assert min(diff_plus, diff_minus) <= 1e-9

    def test_unit_divides_by_the_coefficient_norm(self):
        # the frame's wedge is part / part.coeff_norm(); unit() must carry those
        # bytes, also where the metric norm, sqrt(<part reverse(part)>_0) as a
        # signed sum of squares, rounds one ulp away from it
        rng = np.random.default_rng(51)
        metric = np.array([(e * e.reverse()).scalar_part() for e in
                           (Multivector.basis_blade(ESIG, m) for m in range(ESIG.size))])
        apart = 0
        for _ in range(40):
            carrier = cf.euclidean_carrier(random_flat(rng, int(rng.integers(1, N + 1)))[0])
            part = carrier.mv
            apart += math.sqrt(np.dot(part.coeffs * part.coeffs, metric)) != part.coeff_norm()
            assert carrier.unit().coeffs.tobytes() == (part / part.coeff_norm()).coeffs.tobytes()
        assert apart > 0

    def test_sphere_carrier_is_full_space(self):
        sphere = cf.ConformalObject.from_multivector(cf.sphere(CSIG, [2.0, 0.0, 1.0], 1.5))
        carrier = cf.euclidean_carrier(sphere)
        assert carrier.grade == N

    def test_point_has_no_carrier(self):
        p = cf.ConformalObject.from_multivector(cf.embed_point(CSIG, [1.0, 2.0, 3.0]))
        with pytest.raises(CarrierError):
            cf.euclidean_carrier(p)

    def test_euclidean_trivector_has_zero_carrier(self):
        # e1 ^ e2 ^ e3 has no e+ or e- factor, so the slice the carrier is read from is empty
        x = cf.ConformalObject.from_multivector(Multivector.basis_blade(CSIG, "e123"))
        with pytest.raises(CarrierError, match="^carrier extraction yields zero$"):
            cf.euclidean_carrier(x)


def contracted_carrier(x):
    """The carrier as <F E>_{g-2} read in Cl(n): the product formula the slice replaces."""
    f = cf.to_offset_flat(x)
    n = cf.base_dimension(f.mv.sig)
    carrier = (f.mv * cf.minkowski_plane(f.mv.sig)).grade(f.mv.max_grade() - 2)
    assert not carrier.coeffs[1 << n:].any()  # no e_plus or e_minus part
    return Multivector(Signature(n), carrier.coeffs[: 1 << n])


def random_objects(rng, n):
    """Flats of every direction grade, one of them axis-aligned so that most carrier
    coefficients are zero, and rounds (point pairs to spheres) in Cl(n+1,1)."""
    csig = cf.conformal_signature(n)
    k = int(rng.integers(1, n + 1))
    direction = blade_from_spanning_vectors(rng.uniform(-1, 1, (k, n))).mv
    axes = Multivector.basis_blade(Signature(n), (1 << k) - 1)
    points = [cf.embed_point(csig, rng.uniform(-3, 3, n)) for _ in range(k + 1)]
    return [cf.flat(csig, rng.uniform(-3, 3, n), direction),
            cf.flat(csig, rng.uniform(-3, 3, n), axes),
            functools.reduce(Multivector.outer, points),
            cf.sphere(csig, rng.uniform(-3, 3, n), float(rng.uniform(0.5, 2.0)))]


class TestCarrierSlice:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_slice_matches_contraction_bit_for_bit(self, n):
        rng = np.random.default_rng([53, n])
        for _ in range(3):
            for mv in random_objects(rng, n):
                x = cf.ConformalObject.from_multivector(mv)
                carrier = cf.euclidean_carrier(x)
                reference = Blade.from_multivector(contracted_carrier(x))
                assert carrier.mv.coeffs.tobytes() == reference.mv.coeffs.tobytes()
                assert carrier.magnitude == reference.magnitude
                assert carrier.frame.tobytes() == reference.frame.tobytes()


class TestConformalRelativeAngle:
    def test_dihedral_planes(self):
        alpha = 0.7
        d1 = (E1 ^ E2)
        d2 = blade_from_spanning_vectors(
            [[math.cos(alpha), 0, math.sin(alpha)], [0, 1, 0]]).mv
        x = cf.ConformalObject.from_multivector(cf.flat(CSIG, [0.0, 0.0, 0.0], d1))
        y = cf.ConformalObject.from_multivector(cf.flat(CSIG, [5.0, -1.0, 2.0], d2))
        rep = cf.conformal_relative_angle(x, y)
        assert rep.s == 1 and rep.t == 0
        assert rep.angles[0] == pytest.approx(alpha, abs=1e-9)

    def test_dihedral_matches_direct_euclidean(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            ga = int(rng.integers(1, N + 1))
            gb = int(rng.integers(1, N + 1))
            x, da = random_flat(rng, ga)
            y, db = random_flat(rng, gb)
            rep = cf.conformal_relative_angle(x, y)
            direct = relative_angle(da, db)
            assert rep.s == direct.s and rep.t == direct.t
            assert np.allclose(rep.angles, direct.angles, atol=1e-8)

    def test_sphere_vs_tangent_plane(self):
        sphere = cf.ConformalObject.from_multivector(cf.sphere(CSIG, [1.0, 0.0, 0.0], 2.0))
        plane = cf.ConformalObject.from_multivector(
            cf.flat(CSIG, [3.0, 0.0, 0.0], (E2 ^ E3)))
        rep = cf.conformal_relative_angle(sphere, plane)
        assert rep.s == 2
        assert rep.t == 0
        assert rep.cos_total == pytest.approx(1.0, abs=1e-10)

    def test_identical_flats(self):
        obj = cf.ConformalObject.from_multivector(cf.flat(CSIG, [1.0, 1.0, 1.0], (E1 ^ E3)))
        rep = cf.conformal_relative_angle(obj, obj)
        assert rep.s == 2 and rep.t == 0
        assert all(abs(a) <= 1e-9 for a in rep.angles)

    def test_translation_invariance(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            x, _ = random_flat(rng, int(rng.integers(1, N + 1)))
            y, _ = random_flat(rng, int(rng.integers(1, N + 1)))
            before = cf.conformal_relative_angle(x, y)
            t = cf.translator(CSIG, rng.uniform(-4.0, 4.0, N))
            xt = cf.ConformalObject.from_multivector(cf.apply_versor(t, x.mv))
            yt = cf.ConformalObject.from_multivector(cf.apply_versor(t, y.mv))
            after = cf.conformal_relative_angle(xt, yt)
            assert before.s == after.s and before.t == after.t
            assert np.allclose(before.angles, after.angles, atol=1e-8)
