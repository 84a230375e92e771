import dataclasses
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from conftest import random_blade, random_rotor

from subspace_angles import engine, ga
from subspace_angles.blades import Blade, blade_from_spanning_vectors
from subspace_angles.engine import (
    CLUSTER_WIDTH,
    EQUAL_ANGLE_TOL,
    AngleReport,
    RESIDUAL_BOUND,
    SPLIT_FLOOR,
    bivector_split,
    relative_angle,
    rotor_reconstruction,
)
from subspace_angles.errors import (
    AmbiguousRankError,
    NonEuclideanError,
    NotABladeError,
    SignatureMismatchError,
)
from subspace_angles.ga import Multivector, Signature, basis_vectors, wedge_vectors
from subspace_angles.oracle import orthonormal_basis, principal_angles, rank_counts
from subspace_angles.problems import parse_problem, run_problem
from subspace_angles.sampling import sample_spans

SIG3 = Signature(3)
E1, E2, E3 = basis_vectors(SIG3)
SQ2 = math.sqrt(0.5)


def blade_of(mv):
    return Blade.from_multivector(mv)


def known_pair(thetas, ra, frame):
    """Blades A = span(f_0..f_{ra-1}) and B with rows cos t_k f_k + sin t_k f_{ra+k},
    f the rows of frame, so that thetas are their interior principal angles."""
    rows = [math.cos(t) * frame[k] + math.sin(t) * frame[ra + k] for k, t in enumerate(thetas)]
    return blade_from_spanning_vectors(frame[:ra]), blade_from_spanning_vectors(rows)


class TestCosTotal:
    def test_lines_at_45_degrees(self):
        a = blade_of(E1)
        b = blade_of((E1 + E2) * SQ2)
        assert relative_angle(a, b).cos_total == pytest.approx(SQ2, abs=1e-12)

    def test_identity(self):
        a = blade_of(E1 ^ E2)
        assert relative_angle(a, a).cos_total == pytest.approx(1.0, abs=1e-12)

    def test_perpendicular_planes_sharing_a_line(self):
        rep = relative_angle(blade_of(E1 ^ E2), blade_of(E1 ^ E3))
        assert rep.cos_total == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            sig = Signature(n)
            r = int(rng.integers(1, min(4, n) + 1))
            a = random_blade(rng, sig, r)
            b = random_blade(rng, sig, r)
            assert abs(relative_angle(a, b).cos_total) <= 1.0 + 1e-12


def product_norms(a: Blade, b: Blade) -> dict[int, float]:
    """Grade norms of A reverse(B)."""
    return (a.mv * b.mv.reverse()).grade_norms()


class TestProductSpectrum:
    def test_identical_planes_scalar_only(self):
        norms = product_norms(blade_of(E1 ^ E2), blade_of(E1 ^ E2))
        assert list(norms) == [0]
        assert norms[0] == pytest.approx(1.0)

    def test_disjoint_planes_top_grade_only(self):
        sig = Signature(4)
        e = basis_vectors(sig)
        norms = product_norms(blade_of(e[0] ^ e[1]), blade_of(e[2] ^ e[3]))
        assert list(norms) == [4]

    def test_mixed_grades_odd(self):
        norms = product_norms(blade_of((E1 ^ E2) ^ E3), blade_of(E1 ^ E2))
        assert all(k % 2 == 1 for k in norms)

    def test_grade_limit_and_parity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            sig = Signature(n)
            rb = int(rng.integers(1, min(4, n) + 1))
            q = int(rng.integers(0, min(2, n - rb) + 1))
            a = random_blade(rng, sig, rb + q)
            b = random_blade(rng, sig, rb)
            top_limit = 2 * min(rb, n // 2) + q
            for k in product_norms(a, b):
                assert k % 2 == q % 2
                assert q <= k <= top_limit

    def test_parts_sum_to_product(self):
        rng = np.random.default_rng(32)
        sig = Signature(5)
        a = random_blade(rng, sig, 2)
        b = random_blade(rng, sig, 2)
        m = a.mv * b.mv.reverse()
        total = Multivector.zero(sig)
        for part in m.graded_parts().values():
            total = total + part
        assert total == m


class TestBivectorSplit:
    def test_single_plane(self):
        parts = bivector_split((E1 ^ E2) * 2.0)
        assert len(parts) == 1
        beta, plane = parts[0]
        assert beta == pytest.approx(2.0, abs=1e-12)
        assert plane.approx_eq(E1 ^ E2, 1e-12)

    def test_two_distinct_planes(self):
        sig = Signature(4)
        e = basis_vectors(sig)
        f = (e[0] ^ e[1]) * 3.0 + (e[2] ^ e[3])
        parts = bivector_split(f)
        assert len(parts) == 2
        assert parts[0][0] == pytest.approx(3.0, abs=1e-9)
        assert parts[1][0] == pytest.approx(1.0, abs=1e-9)
        assert parts[0][1].approx_eq(e[0] ^ e[1], 1e-9)
        assert parts[1][1].approx_eq(e[2] ^ e[3], 1e-9)

    def test_equal_coefficients_contract_only(self):
        sig = Signature(4)
        e = basis_vectors(sig)
        f = (e[0] ^ e[1]) + (e[2] ^ e[3])
        parts = bivector_split(f)
        assert len(parts) == 2
        self._check_contract(f, parts)

    def test_non_bivector_rejected(self):
        with pytest.raises(NotABladeError):
            bivector_split(E1)

    def test_non_euclidean_bivector_rejected(self):
        f = Multivector.basis_blade(Signature(2, 1), "e12")
        with pytest.raises(NonEuclideanError, match="^bivector split implemented for Euclidean signature$"):
            bivector_split(f)

    def test_zero_bivector(self):
        assert bivector_split(Multivector.zero(SIG3)) == []

    def test_negative_plane_at_n2(self):
        # the 2 x 2 shortcut: one plane, oriented so that its coefficient is positive
        e1, e2 = basis_vectors(Signature(2))
        [(beta, plane)] = bivector_split((e1 ^ e2) * -3.0)
        assert beta == 3.0 and plane == (e1 ^ e2) * -1.0

    @staticmethod
    def _check_contract(f, parts):
        sig = f.sig
        rebuilt = Multivector.zero(sig)
        for beta, plane in parts:
            assert beta > 0
            # simple unit bivector: square is -1
            sq = plane * plane
            off_scalar = sq - Multivector.scalar(sig, sq.scalar_part())
            assert off_scalar.coeff_norm() <= 1e-9 * max(1.0, plane.coeff_norm() ** 2)
            assert sq.scalar_part() == pytest.approx(-1.0, abs=1e-9)
            rebuilt = rebuilt + plane * beta
        scale = max(1.0, f.coeff_norm())
        assert (rebuilt - f).coeff_norm() <= 1e-9 * scale
        for i, (_, pi) in enumerate(parts):
            for _, pj in parts[i + 1:]:
                assert pi.left_contraction(pj).coeff_norm() <= 1e-9
                assert (pi * pj - pj * pi).coeff_norm() <= 1e-9

    def test_random_bivectors(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            sig = Signature(n)
            coeffs = np.zeros(sig.size)
            for i in range(n):
                for j in range(i + 1, n):
                    coeffs[(1 << i) | (1 << j)] = rng.uniform(-1, 1)
            f = Multivector(sig, coeffs)
            parts = bivector_split(f)
            self._check_contract(f, parts)
            betas = [b for b, _ in parts]
            assert betas == sorted(betas, reverse=True)

    def test_wide_dynamic_range(self):
        sig = Signature(4)
        e = basis_vectors(sig)
        f = (e[0] ^ e[1]) * 1e4 + (e[2] ^ e[3]) * 1e-3
        parts = bivector_split(f)
        assert len(parts) == 2
        assert parts[0][0] == pytest.approx(1e4, rel=1e-10)
        assert parts[1][0] == pytest.approx(1e-3, rel=1e-8)


    @pytest.mark.parametrize("c", [1e-13, 1e-100, 1e100, 1e200])
    def test_split_is_scale_free(self, c):
        # c f splits into (c beta_k, i_k): once 1e-13 f split into nothing under an absolute
        # floor of 1e-12, and the squared entries of 1e200 f overflowed
        rng = np.random.default_rng(9)
        sig = Signature(6)
        frame = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        vec = [Multivector.vector(sig, row) for row in frame]
        e = basis_vectors(sig)
        for f, planes in (((e[0] ^ e[1]) + (e[2] ^ e[3]) * 0.5, 2),
                          ((vec[0] ^ vec[1]) * 0.9 + (vec[2] ^ vec[3]) * 0.4 + (vec[4] ^ vec[5]) * 0.1, 3)):
            want = bivector_split(f)
            got = bivector_split(f * c)
            assert len(got) == len(want) == planes
            for (beta_c, plane_c), (beta, plane) in zip(got, want):
                assert beta_c / c == pytest.approx(beta, rel=1e-14)
                assert np.max(np.abs(plane_c.coeffs - plane.coeffs)) <= 1e-14


class TestPlanes:
    """_planes gives (rate, x, y) with x, y orthonormal, k x = rate y and
    k y = -rate x, rates above the floor and descending."""

    @staticmethod
    def check(k, planes):
        rates = [rate for rate, _, _ in planes]
        assert rates == sorted(rates, reverse=True) and min(rates) > SPLIT_FLOOR
        for rate, x, y in planes:
            assert np.allclose([x @ x, y @ y, x @ y], [1.0, 1.0, 0.0], rtol=0.0, atol=1e-14)
            assert np.allclose(k @ x, rate * y, rtol=0.0, atol=1e-14)
            assert np.allclose(k @ y, -rate * x, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("entry", [0.75, -0.75])
    def test_two_by_two_shortcut(self, entry):
        # a 2-dim cluster's closed form is _read_clusters'; _planes takes a 2 x 2 through its eigh
        k = np.array([[0.0, -entry], [entry, 0.0]])
        planes = engine._planes(k, SPLIT_FLOOR)
        assert len(planes) == 1 and planes[0][0] == pytest.approx(0.75, rel=1e-15)
        self.check(k, planes)

    def test_eigh_path(self):
        # rates 3, 2 and 2e-13 in a random frame of R^7: the last is under the floor
        frame = np.linalg.qr(np.random.default_rng(12).standard_normal((7, 7)))[0]
        k = np.zeros((7, 7))
        for j, rate in enumerate((3.0, 2.0, 2e-13)):
            u, w = frame[2 * j], frame[2 * j + 1]
            k += rate * (np.outer(w, u) - np.outer(u, w))
        planes = engine._planes(k, SPLIT_FLOOR)
        assert np.allclose([rate for rate, _, _ in planes], [3.0, 2.0], rtol=0.0, atol=1e-14)
        self.check(k, planes)


    def test_closed_form_matches_the_eigensolve(self):
        # a synthetic 2-dim cluster of O, read by _read_clusters' closed form, against
        # _planes' eigh path; each plane in R^n through a random orthonormal basis
        rng = np.random.default_rng(25)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            sig = Signature(n)
            basis = np.linalg.qr(rng.standard_normal((n, 2)))[0]
            theta = rng.uniform(1e-6, math.pi / 2 - 1e-6)
            cos, sin = math.cos(2.0 * theta), math.sin(2.0 * theta)
            block = np.array([[cos, -sin], [sin, cos]]) + np.diag(rng.uniform(-1e-9, 1e-9, 2))
            [(got, (x, y))], flipped = engine._read_clusters([cos, cos], basis, block)
            assert flipped == []
            [(rate_e, x_e, y_e)] = engine._planes(0.5 * (block - block.T), SPLIT_FLOOR)
            trace_e = x_e @ (block @ x_e) + y_e @ (block @ y_e)    # 2 cos 2 theta
            assert got == pytest.approx(0.5 * math.atan2(rate_e, 0.5 * trace_e), rel=0.0, abs=4e-16)
            plane, plane_e = (engine._unit_wedge(sig, pair) for pair in
                              [(x, y), (basis @ x_e, -(basis @ y_e))])
            assert np.max(np.abs(plane - plane_e)) <= 1e-15


def test_unit_wedge_has_the_bytes_of_one_wedge():
    # the reference: each plane's wedge, scaled by its coefficient norm
    rng = np.random.default_rng(26)
    for n in range(2, 13):
        sig = Signature(n)
        for _ in range(int(rng.integers(1, 7))):
            pair = tuple(rng.standard_normal((2, n)))
            c = wedge_vectors(sig, pair).coeffs
            assert engine._unit_wedge(sig, pair).tobytes() == (c / math.sqrt(np.dot(c, c))).tobytes()


@pytest.mark.parametrize("bad", [None, math.nan])
def test_unit_wedge_refuses_a_norm_outside_zero_to_inf(bad):
    # x ^ x = 0 has norm 0, a NaN row a norm that is not finite: refused with the
    # constructor's message, before a division that would warn
    sig = Signature(4)
    x = np.array([1.0, 2.0, 0.0, -1.0])
    rows = (x, x) if bad is None else (x, np.array([0.0, bad, 1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            engine._unit_wedge(sig, rows)


def test_every_unchecked_multivector_is_finite_and_read_only():
    # blades, planes, split parts and L skip the constructor's scan: each is still
    # a read-only array of 2^n finite floats
    rng = np.random.default_rng(45)
    seen = dict.fromkeys(("planes", "parts", "lowest"), 0)
    for _ in range(200):
        a_rows, b_rows, _ = sample_spans(rng)
        a, b = blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows)
        rep = relative_angle(a, b)
        f = sum((2.0 ** -j * wedge_vectors(a.sig, [a_rows[j], b_rows[j]]) for j in range(b.grade)),
                start=Multivector.zero(a.sig))
        parts = [part for _, part in bivector_split(f)]
        seen["planes"] += len(rep.planes)
        seen["parts"] += len(parts)
        seen["lowest"] += rep.lowest_grade > 0
        for mv in [a.mv, b.mv, *rep.planes, *parts, rep.lowest_blade]:
            assert mv.coeffs.shape == (a.sig.size,) and not mv.coeffs.flags.writeable
            assert np.isfinite(mv.coeffs).all()
    assert min(seen.values()) > 0, seen


def test_stages_compose_into_the_report():
    # _spectrum, _read_clusters, one _unit_wedge per plane and _self_check, each on the
    # previous stage's outputs as tools/stages.py times them, give every report's bytes
    rng = np.random.default_rng(44)
    for _ in range(200):
        a_rows, b_rows, _ = sample_spans(rng)
        a, b = blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows)
        rep = relative_angle(a, b)
        if a.grade < b.grade:
            a, b = b, a
        interior, flipped = engine._read_clusters(*engine._spectrum(a, b))
        thetas, pairs = [theta for theta, _ in interior], [pair for _, pair in interior]
        planes = [engine._unit_wedge(a.sig, pair) for pair in pairs]
        lowest, residual = engine._self_check(a, b, thetas, pairs, flipped)
        assert [plane.coeffs.tobytes() for plane in rep.planes] == [plane.tobytes() for plane in planes]
        assert rep.lowest_blade.coeffs.tobytes() == lowest.tobytes()
        assert rep.residual == residual
        # each plane's frame: read-only orthonormal rows whose unit wedge is the plane, byte for byte
        assert len(rep.plane_frames) == len(rep.planes)
        for frame, plane in zip(rep.plane_frames, rep.planes):
            assert frame.shape == (2, a.sig.n) and not frame.flags.writeable
            assert np.max(np.abs(frame @ frame.T - np.eye(2))) <= 1e-14
            assert engine._unit_wedge(a.sig, frame).tobytes() == plane.coeffs.tobytes()


class TestSplitEarlyExit:
    """Coefficients at or below the split floor (1e-12 times the largest
    entry) are dropped; the planes kept have the exact bytes of the basis
    bivectors for these block-diagonal inputs."""

    @staticmethod
    def _bytes(pairs):
        # + 0.0: the sign of a zero follows the sign LAPACK gives an eigenvector
        return [(beta, (plane.coeffs + 0.0).tobytes()) for beta, plane in pairs]

    def test_zero_bivector_skips_eigh(self):
        assert bivector_split(Multivector.zero(Signature(4))) == []

    @pytest.mark.parametrize("coeff,planes", [
        (1e-14, 1),    # 1e-14 e34 is below the floor 2e-12
        (3e-12, 2),    # 3e-12 e34 clears it
    ])
    def test_remainder_below_floor_after_round_one(self, coeff, planes):
        sig = Signature(4)
        e = basis_vectors(sig)
        f = (e[0] ^ e[1]) * 2.0 + (e[2] ^ e[3]) * coeff
        want = [(2.0, (e[0] ^ e[1]).coeffs.tobytes())]
        if planes == 2:
            want.append((coeff, (e[2] ^ e[3]).coeffs.tobytes()))
        assert self._bytes(bivector_split(f)) == want

    def test_negative_coefficient_plane(self):
        sig = Signature(4)
        e = basis_vectors(sig)
        f = (e[0] ^ e[2]) * -5.0 + (e[1] ^ e[3]) * 1e-13
        want = [(5.0, ((e[0] ^ e[2]).coeffs * -1.0 + 0.0).tobytes())]
        assert self._bytes(bivector_split(f)) == want


class TestRelativeAngle:
    def test_identical_blades(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            sig = Signature(n)
            r = int(rng.integers(1, min(4, n) + 1))
            a = random_blade(rng, sig, r)
            rep = relative_angle(a, a)
            assert rep.s == r and rep.t == 0
            assert all(abs(th) <= 1e-7 for th in rep.angles)
            assert rep.cos_total == pytest.approx(1.0, abs=1e-10)

    def test_cached_constants_are_read_only(self):
        # a report with nothing flipped shares the cached L = 1, which no caller can write
        plane = blade_from_spanning_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        first, second = relative_angle(plane, plane), relative_angle(plane, plane)
        assert first.lowest_grade == 0 and first.lowest_blade == second.lowest_blade
        assert not first.lowest_blade.coeffs.flags.writeable
        assert not second.lowest_blade.coeffs.flags.writeable
        for n in range(1, 13):
            assert ga.euclidean_signature(n) is ga.euclidean_signature(n)
            assert ga.euclidean_signature(n) == Signature(n)
            for cached in (engine._eye(n), engine._one(n), ga._square_signs(Signature(n)),
                           ga._square_signs(Signature(n - 1, 1))):
                assert not cached.flags.writeable

    def test_paper_3d_perpendicular_planes(self):
        rep = relative_angle(blade_of(E1 ^ E2), blade_of(E1 ^ E3))
        assert rep.s == 1
        assert rep.t == 1
        assert rep.cos_total == 0.0
        assert rep.angles[0] == pytest.approx(math.pi / 2, abs=1e-12)
        assert rep.angles[1] == pytest.approx(0.0, abs=1e-12)

    def test_rotated_plane(self):
        alpha = 0.3
        b = blade_from_spanning_vectors([[math.cos(alpha), 0, math.sin(alpha)], [0, 1, 0]])
        rep = relative_angle(blade_of(E1 ^ E2), b)
        assert rep.s == 1 and rep.t == 0
        assert rep.angles[0] == pytest.approx(alpha, abs=1e-12)
        assert rep.angles[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.cos_total == pytest.approx(math.cos(alpha), abs=1e-12)
        # the single principal plane lies in span{e1, e3}
        assert len(rep.planes) == 1
        plane = rep.planes[0]
        assert E2.left_contraction(plane).coeff_norm() <= 1e-9
        assert (plane * plane).scalar_part() == pytest.approx(-1.0, abs=1e-9)

    def test_mixed_dimension(self):
        rep = relative_angle(blade_of((E1 ^ E2) ^ E3), blade_of(E1 ^ E2))
        assert rep.s == 2 and rep.t == 0
        assert rep.lowest_grade == 1
        assert rep.cos_total == pytest.approx(1.0, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            a_rows, b_rows, _ = sample_spans(rng)
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            r1 = relative_angle(a, b)
            r2 = relative_angle(b, a)
            assert r1.s == r2.s and r1.t == r2.t
            assert np.allclose(r1.angles, r2.angles, atol=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(36)
        sig = Signature(5)
        a = random_blade(rng, sig, 2)
        b = random_blade(rng, sig, 3)
        r1 = relative_angle(a, b)
        a2 = Blade.from_multivector(a.mv * 7.5)
        b2 = Blade.from_multivector(b.mv * 0.03)
        r2 = relative_angle(a2, b2)
        assert r1.s == r2.s and r1.t == r2.t
        assert np.allclose(r1.angles, r2.angles, atol=1e-10)
        assert r1.cos_total == pytest.approx(r2.cos_total, abs=1e-10)

    def test_rotor_conjugation_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            sig = Signature(n)
            ra = int(rng.integers(1, min(3, n) + 1))
            rb = int(rng.integers(1, ra + 1))
            a = random_blade(rng, sig, ra)
            b = random_blade(rng, sig, rb)
            rot = random_rotor(rng, sig)
            a2 = Blade.from_multivector(rot * a.mv * rot.reverse())
            b2 = Blade.from_multivector(rot * b.mv * rot.reverse())
            r1 = relative_angle(a, b)
            r2 = relative_angle(a2, b2)
            assert r1.s == r2.s and r1.t == r2.t
            assert np.allclose(r1.angles, r2.angles, atol=1e-8)

    def test_grade_parity_exact_support(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            a_rows, b_rows, meta = sample_spans(rng)
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            m = a.mv * b.mv.reverse()
            parity = (a.grade + b.grade) % 2
            for mask in m.support():
                assert int(mask).bit_count() % 2 == parity

    def test_isoclinic_pair_flags_equal_angles(self):
        alpha = 0.6
        c, s = math.cos(alpha), math.sin(alpha)
        a = blade_from_spanning_vectors([[1, 0, 0, 0], [0, 1, 0, 0]])
        b = blade_from_spanning_vectors([[c, 0, s, 0], [0, c, 0, s]])
        rep = relative_angle(a, b)
        assert rep.s == 0 and rep.t == 0
        assert np.allclose(rep.angles, [alpha, alpha], atol=1e-9)
        assert rep.has_equal_angles
        rebuilt = rotor_reconstruction(rep, a.magnitude, b.magnitude)
        assert (rebuilt - a.mv * b.mv.reverse()).coeff_norm() <= 1e-9

    def test_grade_five_in_eleven_dimensions(self):
        rng = np.random.default_rng(43)
        rows = rng.uniform(-1, 1, (5, 11))
        rows_b = np.vstack([rows[:3], rng.uniform(-1, 1, (2, 11))])
        a = blade_from_spanning_vectors(rows)
        b = blade_from_spanning_vectors(rows_b)
        rep = relative_angle(a, b)
        assert rep.s == 3
        pairs = principal_angles(orthonormal_basis(rows), orthonormal_basis(rows_b))
        oracle = sorted((float(x) for x in pairs.angles), reverse=True)
        assert np.allclose(rep.angles, oracle, atol=1e-8)

    def test_non_euclidean_rejected(self):
        # the Blade that relative_angle would read is refused where it is built
        sig = Signature(2, 1)
        e = basis_vectors(sig)
        with pytest.raises(NonEuclideanError, match="^blade frames implemented for Euclidean blades$"):
            Blade(e[0] ^ e[1], 2, 1.0, np.eye(3)[:2])

    def test_mismatched_or_zero_blades_rejected(self):
        b = blade_from_spanning_vectors([[1, 0, 0, 0]])
        with pytest.raises(SignatureMismatchError,
                           match=r"^Signature\(p=3, q=0\) vs Signature\(p=4, q=0\)$"):
            relative_angle(blade_from_spanning_vectors([[1, 0, 0]]), b)
        # the wedge of two 1e-100 rows keeps its 1e-200 coefficient, and its
        # coefficient norm, scaled while its square underflows, is the magnitude
        tiny = blade_from_spanning_vectors([[1e-100, 0, 0, 0], [0, 1e-100, 0, 0]])
        unit = blade_from_spanning_vectors([[1, 0, 0, 0], [0, 1, 0, 0]])
        assert tiny.magnitude == pytest.approx(1e-200, rel=1e-15)
        assert relative_angle(tiny, b).angles == relative_angle(unit, b).angles
        # a zero blade is refused where it is built, so relative_angle never reads one
        with pytest.raises(ValueError, match="^blade magnitude underflows"):
            Blade(Multivector.zero(b.sig), 2, 0.0, np.eye(4)[:2])

    def test_oracle_agreement_small_corpus(self):
        rng = np.random.default_rng(39)
        for _ in range(200):
            a_rows, b_rows, _ = sample_spans(rng)
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            rep = relative_angle(a, b)
            pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
            oracle = sorted((float(x) for x in pairs.angles), reverse=True)
            assert len(oracle) == len(rep.angles)
            for e_ang, o_ang in zip(rep.angles, oracle):
                assert abs(e_ang - o_ang) <= 1e-8
            assert rep.s == int(np.sum(pairs.cosines >= 1.0 - 1e-9))
            assert rep.t == int(np.sum(pairs.cosines <= 1e-9))

    def test_scalar_part_identity(self):
        # the equal-grade draws among the first 150 of seed 40
        rng = np.random.default_rng(40)
        draws = [draw for draw in (sample_spans(rng) for _ in range(150)) if draw[2]["q"] == 0]
        assert len(draws) == 69
        for a_rows, b_rows, _ in draws:
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
            cos_total = a.mv.scalar_product(b.mv.reverse()) / (a.magnitude * b.magnitude)
            assert abs(cos_total) == pytest.approx(float(np.prod(pairs.cosines)), abs=1e-10)

    def test_top_grade_sine_product(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            a_rows, b_rows, _ = sample_spans(rng)
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            rep = relative_angle(a, b)
            pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
            sines = [math.sin(float(th)) for th, c in zip(pairs.angles, pairs.cosines)
                     if c < 1.0 - 1e-9]
            assert rep.sin_interior_product == pytest.approx(float(np.prod(sines)) if sines else 1.0,
                                                             abs=1e-9)


class TestGradeTolerance:
    """s and t are counted at ANGLE_COS_TOL, the oracle's cutoff; no parameter moves it."""

    @staticmethod
    def perpendicular_pair():
        # the first draw of seed 3 with one right angle
        rng = np.random.default_rng(3)
        a_rows, b_rows, meta = next(draw for draw in (sample_spans(rng) for _ in range(100))
                                    if draw[2]["perp"] == 1)
        assert (meta["n"], meta["perp"]) == (2, 1)
        return blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows)

    def test_default_counts_the_right_angle(self):
        assert relative_angle(*self.perpendicular_pair()).t == 1

    def test_relative_angle_has_no_cutoff_parameter(self):
        with pytest.raises(TypeError, match="grade_tol"):
            relative_angle(*self.perpendicular_pair(), grade_tol=1e-9)

    def test_run_problem_has_no_cutoff_parameter(self):
        problem = parse_problem('{"n": 3, "A": [[1, 0, 0], [0, 1, 0]], "B": [[1, 0, 0], [0, 0, 1]]}')
        assert run_problem(problem)["t"] == 1
        with pytest.raises(TypeError, match="tolerance"):
            run_problem(problem, tolerance=1e-9)

    @pytest.mark.parametrize("theta", [1e-3, math.pi / 4, math.pi / 2 - 1e-3])
    def test_counts_agree_with_the_oracle(self, theta):
        # span(e1) against span(cos theta e1 + sin theta e2): one angle, neither zero nor right,
        # so both routes count (0, 0) and the report keeps its invariants
        a_rows, b_rows = [[1.0, 0.0]], [[math.cos(theta), math.sin(theta)]]
        rep = relative_angle(blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows))
        assert (rep.s, rep.t) == rank_counts(principal_angles(a_rows, b_rows)) == (0, 0)
        problem = parse_problem(json.dumps({"n": 2, "A": a_rows, "B": b_rows}))
        report = run_problem(problem, oracle_enabled=True)
        assert (report["s"], report["t"]) == (0, 0)


class TestInvariantGuard:
    def test_residual_above_bound_raises(self, monkeypatch):
        from subspace_angles import engine
        a, b = blade_of(E1 ^ E2), blade_of(E1 ^ E3)
        assert relative_angle(a, b).residual == 0.0
        monkeypatch.setattr(engine, "RESIDUAL_BOUND", -1.0)
        with pytest.raises(AmbiguousRankError, match=r"r=2, 2 angles, s=1, t=1, 0 planes"):
            relative_angle(a, b)


    def test_planes_that_do_not_fit_the_grades(self, monkeypatch):
        # each plane found twice: two planes for blades of grade 1
        read = engine._read_clusters
        monkeypatch.setattr(engine, "_read_clusters",
                            lambda *args: (lambda interior, flipped: (2 * interior, flipped))(*read(*args)))
        a, b = blade_of(E1), blade_of((E1 + E2) * SQ2)
        with pytest.raises(AmbiguousRankError, match="2 principal planes and 0 reversed "
                           "directions do not fit blades of grades 1 and 1"):
            relative_angle(a, b)


class TestRotorReconstruction:
    def test_identity_case(self):
        a = blade_of((E1 ^ E2) * 2.0)
        rep = relative_angle(a, a)
        rebuilt = rotor_reconstruction(rep, a.magnitude, a.magnitude)
        assert rebuilt.approx_eq(Multivector.scalar(SIG3, 4.0), 1e-10)

    def test_paper_case(self):
        a = blade_of(E1 ^ E2)
        b = blade_of(E1 ^ E3)
        rep = relative_angle(a, b)
        rebuilt = rotor_reconstruction(rep, 1.0, 1.0)
        assert rebuilt.approx_eq(a.mv * b.mv.reverse(), 1e-9)

    NEAR_RIGHT = (math.pi / 2 - 1e-7, 0.4)

    def test_near_right_angle_counted_by_t(self):
        # t counts the first angle (cos 1e-10 <= ANGLE_COS_TOL), which still has a plane
        theta1, theta2 = math.pi / 2 - 1e-10, 0.4
        a, b = known_pair((theta1, theta2), 2, np.eye(4))
        rep = relative_angle(a, b)
        assert (rep.s, rep.t, len(rep.planes)) == (0, 1, 2)
        assert np.allclose(rep.angles, [theta1, theta2], rtol=0.0, atol=1e-15)
        rebuilt = rotor_reconstruction(rep, a.magnitude, b.magnitude)
        assert (rebuilt - a.mv * b.mv.reverse()).coeff_norm() <= rep.residual + 1e-15

    def test_reads_the_frames_without_an_eigensolve(self, monkeypatch):
        a, b = known_pair((1.2, 0.7), 3, np.eye(5))
        rep = relative_angle(a, b)
        want = rotor_reconstruction(rep, a.magnitude, b.magnitude)

        def refuse(*args, **kwargs):
            raise AssertionError("rotor_reconstruction ran an eigensolve")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert rotor_reconstruction(rep, a.magnitude, b.magnitude) == want
        assert want.approx_eq(a.mv * b.mv.reverse(), 1e-12)

    def test_report_equality_and_repr_ignore_the_frames(self):
        a, b = known_pair((1.2, 0.7), 3, np.eye(5))
        rep = relative_angle(a, b)
        other = dataclasses.replace(rep, plane_frames=tuple(-frame for frame in rep.plane_frames))
        assert rep == other and repr(rep) == repr(other)
        assert "plane_frames" not in repr(rep)

    def test_report_holds_exactly_its_declared_fields(self):
        # relative_angle fills the report's instance dict in one update, not through the
        # dataclass' __init__: the report has each declared field once, equals the one the
        # constructor builds from them, and stays frozen
        a, b = known_pair((1.2, 0.7), 3, np.eye(5))
        rep = relative_angle(a, b)
        assert list(vars(rep)) == [f.name for f in dataclasses.fields(AngleReport)]
        assert AngleReport(**vars(rep)) == rep
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.s = 0

    def test_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a_rows, b_rows, _ = sample_spans(rng)
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            rep = relative_angle(a, b)
            rebuilt = rotor_reconstruction(rep, a.magnitude, b.magnitude)
            target = a.mv * b.mv.reverse()
            assert (rebuilt - target).coeff_norm() <= 1e-9 * a.magnitude * b.magnitude


class TestRotorChain:
    """rotor_reconstruction and the engine's residual share one chain, and
    the self-check carries unit(B) onto unit(A) without forming A reverse(B)."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(44)
        fixed = [(E1 ^ E2, E1 ^ E3), (E1 ^ E2, E1 ^ E2), (E1, E2)]
        out = [(blade_of(a), blade_of(b)) for a, b in fixed]
        for _ in range(40):
            a_rows, b_rows, _ = sample_spans(rng)
            out.append((blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows)))
        # the sizes the half chain is for (sample_spans stops at n = 8): B of odd
        # grade with L of grade 1, B of even grade, and B with a direction
        # perpendicular to A, so L holds a right-angle plane
        for n, ra, rb in ((11, 4, 3), (12, 5, 4), (12, 4, 4)):
            a_rows = rng.standard_normal((ra, n))
            b_rows = rng.standard_normal((rb, n))
            if ra == rb:
                q, _ = np.linalg.qr(a_rows.T, mode="complete")
                b_rows[0] = q[:, ra:] @ rng.standard_normal(n - ra)
            out.append((blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows)))
        return out

    def test_carries_b_onto_a(self):
        reports = []
        for a, b in self.pairs():
            rep = relative_angle(a, b)
            if a.grade < b.grade:
                a, b = b, a
            carried = rotor_reconstruction(rep, 1.0, 1.0) * b.unit()
            assert abs((carried - a.unit()).coeff_norm() - rep.residual) <= 1e-14
            reports.append(rep)
        assert any(rep.planes for rep in reports)
        assert any(not rep.planes for rep in reports)

    def test_relative_angle_forms_no_product(self, monkeypatch):
        # the chain runs as left products by vectors, so the general kernel is never called
        def refuse(self, other, keep=None):
            raise AssertionError("relative_angle called Multivector._product")

        pairs = self.pairs()
        monkeypatch.setattr(Multivector, "_product", refuse)
        reports = [relative_angle(a, b) for a, b in pairs]
        assert any(rep.planes for rep in reports) and any(rep.lowest_grade for rep in reports)

    def test_relative_angle_makes_only_the_report_multivectors(self, monkeypatch):
        # the self-check runs on coefficient arrays: one Multivector per plane and
        # one lowest_blade, built once with its sign, by either constructor
        made = []
        init, of_finite = Multivector.__init__, Multivector._of_finite

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        def counted_finite(sig, coeffs):
            made.append(of_finite(sig, coeffs))
            return made[-1]

        pairs = self.pairs()
        monkeypatch.setattr(Multivector, "__init__", counted)
        monkeypatch.setattr(Multivector, "_of_finite", staticmethod(counted_finite))
        for a, b in pairs:
            made.clear()
            rep = relative_angle(a, b)
            assert len(made) == len(rep.planes) + 1
            assert made[-1] is rep.lowest_blade

    @pytest.mark.parametrize("a_rows, b_rows", [
        ([[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0]]),          # B = e2 ^ e1: L = -1
        ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
         [[1, 0, 0, 0, 0], [0, 0.6, 0, 0.8, 0]]),                  # one plane, L of grade 1
    ])
    def test_lowest_blade_sign_enters_the_rebuild(self, a_rows, b_rows):
        # B and -B share O, so the sign rule negates L for exactly one of the two
        a = blade_from_spanning_vectors(a_rows)
        lowest = []
        for sign in (1.0, -1.0):
            b = blade_from_spanning_vectors([np.multiply(sign, b_rows[0])] + b_rows[1:])
            rep = relative_angle(a, b)
            rebuilt = rotor_reconstruction(rep, a.magnitude, b.magnitude)
            assert rebuilt.approx_eq(a.mv * b.mv.reverse(), 1e-12)
            lowest.append(rep.lowest_blade)
        assert lowest[0] == -lowest[1]
        if rep.lowest_grade == 0:
            assert Multivector.scalar(rep.lowest_blade.sig, -1.0) in lowest

    def test_nonfinite_scale_still_raises(self):
        rep = relative_angle(blade_of(E1 ^ E2), blade_of(E1 ^ E3))
        with np.errstate(over="ignore", invalid="ignore"):
            for scale in (math.inf, math.nan, 1e300):
                with pytest.raises(ValueError, match="finite"):
                    rotor_reconstruction(rep, scale, 1e300)


class TestFlippedComplement:
    """A cluster with cos 2 theta < 0 holds planes and directions O negates; a QR
    finds the negated ones only when the planes leave room for them."""

    @staticmethod
    def count_qr(monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        return calls

    def test_plane_beside_an_extra_direction(self, monkeypatch):
        # one 3-dim cluster at cos 2 theta ~ -1: the first plane and A's extra e3
        thetas = (math.pi / 2 - 1e-6, 0.4)
        a, b = known_pair(thetas, 3, np.eye(5))
        calls = self.count_qr(monkeypatch)
        rep = relative_angle(a, b)
        assert len(calls) == 1
        assert (rep.lowest_grade, len(rep.planes)) == (1, 2)
        assert np.allclose(rep.angles, thetas, rtol=0.0, atol=1e-15)

    def test_planes_that_fill_their_clusters_skip_the_qr(self, monkeypatch):
        pairs = [known_pair(TestRotorReconstruction.NEAR_RIGHT, 2, np.eye(4))] + TestRotorChain.pairs()
        calls = self.count_qr(monkeypatch)
        reports = [relative_angle(a, b) for a, b in pairs]
        assert calls == []
        assert any(rep.planes and rep.lowest_grade for rep in reports)


class TestClusterEdge:
    """Interior angles whose cos 2 theta lie close, in a random frame of R^6: within
    CLUSTER_WIDTH they share one cluster, split together, past it each plane gets
    its own."""

    @staticmethod
    def report(thetas, seed=5):
        """The report of known_pair(thetas) with A of grade len(thetas), and the sizes of
        the clusters of more than two directions that the engine split."""
        frame = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))[0]
        a, b = known_pair(thetas, len(thetas), frame)
        with mock.patch.object(engine, "_cluster_planes", wraps=engine._cluster_planes) as split:
            rep = relative_angle(a, b)
        assert np.allclose(rep.angles, sorted(thetas, reverse=True), rtol=0.0, atol=1e-13)
        assert rep.residual <= RESIDUAL_BOUND
        return rep, [len(call.args[0]) for call in split.call_args_list]

    @pytest.mark.parametrize("theta", [0.7, 1.2])
    @pytest.mark.parametrize("times, sizes", [(0.9, [4]), (1.1, [])])
    def test_cos_2theta_gap_decides_the_clusters(self, theta, times, sizes):
        # one 4-dim block for both planes within the width, a 2-dim cluster each past it
        other = 0.5 * math.acos(math.cos(2.0 * theta) - times * CLUSTER_WIDTH)
        rep, got = self.report((theta, other))
        assert got == sizes
        # the flag compares the angles, here far more than EQUAL_ANGLE_TOL apart either way
        assert not rep.has_equal_angles

    @pytest.mark.parametrize("theta", [0.7, 1.2])
    @pytest.mark.parametrize("gap, bound", [
        (9e-9, 1e-14), (1.1e-8, 1e-14), (3e-8, 1e-14), (3e-7, 1e-14), (1e-5, 1e-14), (1e-4, 1e-14),
        (1e-3, 1e-12),
    ])
    def test_residual_at_every_gap(self, theta, gap, bound):
        # gaps in cos 2 theta from 0.9 to 1e5 times EQUAL_ANGLE_TOL: planes read from a
        # cluster each come from nearly degenerate eigenvectors, a residual of about
        # 3e-16 / gap, so within CLUSTER_WIDTH both share one cluster and its eigensolve,
        # and at the width itself the residual is about 3e-13
        other = 0.5 * math.acos(math.cos(2.0 * theta) - gap)
        for seed in range(5):
            rep, _ = self.report((theta, other), seed)
            assert rep.residual <= bound

    @pytest.mark.parametrize("delta", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 2e-4])
    def test_mirror_pair_about_pi_4(self, delta):
        # pi/4 + delta and pi/4 - delta turn at one rate sin 2 theta, 4 delta apart in
        # cos 2 theta: one cluster, whose split tells the planes apart by cos 2 theta
        for seed in range(5):
            rep, got = self.report((math.pi / 4 + delta, math.pi / 4 - delta), seed)
            assert got == [4]
            assert rep.residual <= 1e-14

    def test_slow_planes_stay_orthogonal(self):
        # one cluster at cos 2 theta ~ -1 holds a plane turning at 2e-4 and two at 2e-12,
        # whose eigenvectors of i K are read to about 1e-8; near pi/2 each rotor is about
        # its plane, so planes off orthogonal by that much leave a residual of about 6e-9
        for seed in range(5):
            rep, got = self.report((math.pi / 2 - 1e-4, math.pi / 2 - 1e-12, math.pi / 2 - 1e-12), seed)
            assert got == [6]
            assert rep.residual <= 1e-14

    @pytest.mark.parametrize("theta", [0.7, 1.2])
    @pytest.mark.parametrize("times", [0.9, 1.1])
    def test_angle_gap_decides_the_flag(self, theta, times):
        rep, _ = self.report((theta, theta + times * EQUAL_ANGLE_TOL))
        assert rep.has_equal_angles == (times < 1.0)

    def test_distinct_small_angles_share_a_cluster_not_the_flag(self):
        # corpus_small seed 1, pair 425: cos 2 theta ~ 1 - 2 theta^2 puts both angles
        # within EQUAL_ANGLE_TOL of the +1 eigenvalue, so the cluster rule alone would
        # call them equal; each keeps its own plane and the flag compares the angles
        rep, got = self.report((6.1e-7, 7.2e-10))
        assert got == [6]
        assert len(rep.planes) == 2 and not rep.has_equal_angles


class TestSplitFloorEdge:
    """One plane turned at the rate sin 2 theta = c * SPLIT_FLOOR, in a random frame
    of R^4, A of grade ra: under the floor its direction counts as shared, over it
    the plane is kept with its angle."""

    @staticmethod
    def report(c, ra):
        theta = 0.5 * math.asin(c * SPLIT_FLOOR)
        frame = np.linalg.qr(np.random.default_rng(8).standard_normal((4, 4)))[0]
        return theta, relative_angle(*known_pair((theta,), ra, frame))

    @pytest.mark.parametrize("ra", [1, 2])
    def test_under_the_floor_the_direction_is_shared(self, ra):
        _, rep = self.report(0.5, ra)
        assert rep.angles == (0.0,) and rep.planes == ()
        assert (rep.s, rep.t, rep.lowest_grade) == (1, 0, ra - 1)
        assert rep.residual <= 1e-12

    @pytest.mark.parametrize("ra", [1, 2])
    def test_over_the_floor_the_plane_is_kept(self, ra):
        theta, rep = self.report(2.0, ra)
        assert len(rep.planes) == 1 and (rep.s, rep.lowest_grade) == (1, ra - 1)
        assert abs(rep.angles[0] - theta) <= 1e-14


def test_planes_are_oriented_from_a_toward_b():
    # each plane has a positive coefficient dot with a_k ^ b_k, the oracle's
    # principal vectors, A the larger-grade operand; checked where a_k and b_k
    # are defined: single-angle clusters off 0 and pi/2
    rng = np.random.default_rng(7)
    dots = []
    for _ in range(300):
        a_rows, b_rows, _ = sample_spans(rng)
        a, b = blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows)
        rep = relative_angle(a, b)
        pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
        interior = [theta for theta in rep.angles if 0.0 < theta < math.pi / 2]
        for theta, plane in zip(interior, rep.planes):
            near = np.abs(np.cos(2.0 * pairs.angles) - math.cos(2.0 * theta)) <= EQUAL_ANGLE_TOL
            if not 1e-6 <= theta <= math.pi / 2 - 1e-6 or np.count_nonzero(near) != 1:
                continue
            k = int(np.flatnonzero(near)[0])
            ab = wedge_vectors(a.sig, [pairs.a_vectors[k], pairs.b_vectors[k]])
            dots.append(np.dot(plane.coeffs, ab.coeffs) / ab.coeff_norm())
    assert len(dots) >= 200
    assert min(dots) > 0.0
