import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_frame

from subspace_angles import blades, oracle
from subspace_angles import conformal as cf
from subspace_angles import ga
from subspace_angles.blades import (
    Blade,
    blade_from_spanning_vectors,
    is_blade,
    subspace_membership,
)
from subspace_angles.errors import DegenerateSpanError, NonEuclideanError, NotABladeError
from subspace_angles.ga import Multivector, Signature, basis_vectors, contraction_matrix, wedge_vectors
from subspace_angles.oracle import orthonormal_basis
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

    def test_flat_list_of_numbers_rejected(self):
        # one vector not wrapped in a list: no row has a length to read n from
        with pytest.raises(ValueError, match="sequence of length-n vectors"):
            blade_from_spanning_vectors([1.0, 2.0, 3.0])

    def test_empty_or_misfit_span_rejected(self):
        with pytest.raises(DegenerateSpanError, match="^empty spanning set$"):
            blade_from_spanning_vectors([])
        with pytest.raises(ValueError, match=r"^vectors of length 3 in Cl\(4,0\)$"):
            blade_from_spanning_vectors([[1, 0, 0]], Signature(4))

    def test_non_euclidean_signature_raises(self):
        # as Blade.from_multivector: no Gram-Schmidt frame, and no magnitude-0 null blade
        sig = Signature(2, 1)
        for rows in ([[1, 0, 1], [0, 1, 0]], [[1, 0, 1]], [[1, 0, 0]]):
            with pytest.raises(NonEuclideanError, match="blade frames implemented for Euclidean blades"):
                blade_from_spanning_vectors(rows, sig)

    def test_too_many_vectors(self):
        with pytest.raises(DegenerateSpanError):
            blade_from_spanning_vectors([[1, 0], [0, 1], [1, 1]])

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1]], [[1, 0, 0], [0, 1, 0, 5]]])
    def test_ragged_span_rejected(self, rows):
        # the span's one conversion refuses ragged rows, as the oracle's does; the wedge trusts its rows
        with pytest.raises(ValueError, match=r"^setting an array element with a sequence"):
            blade_from_spanning_vectors(rows)
        problem = SubspaceProblem(n=3, mode="euclidean", signature=(3, 0), a_span=rows, b_span=[[1, 1, 0]])
        with pytest.raises(ValueError, match=r"^setting an array element with a sequence"):
            run_problem(problem)

    def test_every_form_of_a_span_gives_the_same_bytes(self):
        # a list of lists, of arrays or of tuples converts to the same (k, n) array: the same blade
        rng = np.random.default_rng(9)
        for n, k in [(2, 1), (3, 2), (6, 3), (12, 12)]:
            rows = rng.standard_normal((k, n))
            want = blade_from_spanning_vectors(rows)
            for form in (rows.tolist(), list(rows), tuple(map(tuple, rows.tolist())), np.asfortranarray(rows)):
                got = blade_from_spanning_vectors(form)
                assert got.mv.coeffs.tobytes() == want.mv.coeffs.tobytes()
                assert got.frame.tobytes() == want.frame.tobytes()
                assert got.magnitude == want.magnitude and got.grade == k

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


EPS = sys.float_info.epsilon


def mgs2_reference(rows) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass, one NumPy call
    per projection: the loop that blades._mgs and oracle.orthonormal_basis each
    ran before they moved to lists of floats, kept as their reference."""
    basis = []
    for v in np.asarray(rows, dtype=float):
        u = v.copy()
        for _ in range(2):
            for b in basis:
                u = u - (u @ b) * b
        basis.append(u / np.sqrt(u @ u))
    return np.array(basis)


def conditioned_span(rng, k, n, cond) -> np.ndarray:
    """k random rows in R^n whose singular values run from 1 down to 1/cond."""
    return (random_frame(rng, k) * np.geomspace(1.0, 1.0 / cond, k)) @ random_frame(rng, n)[:k]


def nearly_dependent_span(rng, k, n, residual) -> np.ndarray:
    """k rows in R^n, the last of unit norm and at distance residual from the span
    of the others, so its Gram-Schmidt residual is residual times its norm."""
    frame = random_frame(rng, n)
    inside = rng.standard_normal(k - 1) @ frame[:k - 1]
    last = math.sqrt(1.0 - residual * residual) * inside / math.sqrt(inside @ inside)
    return np.vstack([conditioned_span(rng, k - 1, k - 1, 4.0) @ frame[:k - 1],
                      last + residual * frame[k - 1]])


# Gram-Schmidt in both routes, each with its own dependence threshold: the
# engine's frames and the oracle's bases
ROUTES = {"blades": (lambda rows: blade_from_spanning_vectors(rows).frame, blades.DEPENDENCE_TOL),
          "oracle": (orthonormal_basis, oracle.DEPENDENCE_TOL)}


@pytest.mark.parametrize("route", ROUTES)
class TestGramSchmidt:
    """Both Gram-Schmidt loops run on lists of floats. Each agrees with the NumPy
    loop it replaced within COND * EPS per entry, the first-order sensitivity of
    Q to rounding in rows of condition <= COND, and keeps DEPENDENCE_TOL's edge.
    The oracle's makes its second pass on every vector, the engine's only where
    the first cancels (DGKS)."""

    COND = 1e3

    def test_matches_numpy_reference(self, route):
        rng = np.random.default_rng(61)
        for n in range(1, 13):
            for k in range(1, n + 1):
                for _ in range(3):
                    rows = conditioned_span(rng, k, n, self.COND)
                    q = ROUTES[route][0](rows)
                    assert np.max(np.abs(q - mgs2_reference(rows))) <= self.COND * EPS
                    assert np.max(np.abs(q @ q.T - np.eye(k))) <= 8 * EPS
                    assert np.all(np.einsum("ij,ij->i", q, rows) > 0.0)

    def test_orthonormal_at_condition_1e8(self, route):
        # the first pass cancels here (one pass alone leaves q q^T - I near 1e8 eps)
        rng = np.random.default_rng(8)
        for n in range(2, 13):
            for k in range(2, n + 1):
                q = ROUTES[route][0](conditioned_span(rng, k, n, 1e8))
                assert np.max(np.abs(q @ q.T - np.eye(k))) <= 8 * EPS

    @pytest.mark.parametrize("n, k", [(2, 2), (6, 3), (12, 6)])
    def test_dependence_edge(self, route, n, k):
        # the last row's residual is 0.5x and 2x DEPENDENCE_TOL of its norm
        orthonormalize, tol = ROUTES[route]
        rng = np.random.default_rng(n)
        with pytest.raises(DegenerateSpanError, match=f"vector {k - 1} is dependent"):
            orthonormalize(nearly_dependent_span(rng, k, n, 0.5 * tol))
        assert orthonormalize(nearly_dependent_span(rng, k, n, 2.0 * tol)).shape == (k, n)

    @pytest.mark.parametrize("rows, message", [
        ([[1e-160, 0, 0]], "vector 0 underflows: its squared norm"),
        ([[1e-170, 0, 0]], "vector 0 underflows: its squared norm"),      # squares to 0.0
        ([[1, 0, 0], [0, 1e-160, 0]], "vector 1 underflows: its squared norm"),
        ([[1e-150, 0, 0], [1e-150, 1e-159, 0]], "vector 1 underflows: its residual's"),
    ])
    def test_underflowing_vector_raises(self, route, rows, message):
        # these once came back as rows of norm 1 + 5.6e-6, or as a "zero vector"
        with pytest.raises(ValueError, match=message):
            ROUTES[route][0](rows)

    def test_zero_vector_is_degenerate(self, route):
        with pytest.raises(DegenerateSpanError, match="zero vector"):
            ROUTES[route][0]([[1, 0, 0], [0.0, -0.0, 0.0]])


def test_second_pass_only_where_the_first_cancels(monkeypatch):
    # the last row's first pass keeps 0.49 or 0.51 of its squared norm: the engine
    # projects it and takes its squared norm once more (2 n products) only at 0.49
    rng = np.random.default_rng(5)
    n, counts = 5, {}
    frame = random_frame(rng, n)
    for kept in (0.49, 0.51):
        calls = []
        last = math.sqrt(1.0 - kept) * frame[0] + math.sqrt(kept) * frame[1]
        lists = [frame[0].tolist(), last.tolist()]
        squares = [sum(x * x for x in u) for u in lists]
        monkeypatch.setattr(blades, "mul", lambda x, y: calls.append(1) or x * y)
        q = blades._mgs(lists, squares)
        counts[kept] = len(calls)
        assert np.max(np.abs(q @ q.T - np.eye(2))) <= 8 * EPS
    assert counts[0.49] - counts[0.51] == 2 * n


def span_forms(rows) -> dict:
    """rows as a list of lists, as one ndarray (an object array of the rows when they are
    ragged) and as a list of 1-D arrays."""
    arrays = [np.asarray(row, dtype=float) for row in rows]
    try:
        whole = np.array(rows, dtype=float)
    except ValueError:
        whole = np.empty(len(arrays), dtype=object)
        whole[:] = arrays
    return {"lists": rows, "ndarray": whole, "arrays": arrays}


def ragged_object_array():
    rows = np.empty(2, dtype=object)
    rows[:] = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0])]
    return rows


# spans whose entries NumPy infers as booleans, strings, bytes or complex numbers: each converts
# to float (a numeric string parses, True reads as 1.0, a complex array loses its imaginary part
# with only a ComplexWarning), so every route refuses them itself, before that conversion
NOT_REAL = {
    "numeric-strings": [["1", "0", "0"]],
    "booleans": [[True, False, False]],
    "bytes": [[b"1", b"0", b"0"]],
    "complex": [[1 + 1j, 0, 0], [0, 1, 0]],
}
NOT_REAL_FORMS = [pytest.param(lambda rows=rows, form=form: form(rows), id=f"{name}-{label}")
                  for name, rows in NOT_REAL.items()
                  for label, form in (("lists", list), ("ndarray", np.array))]


@pytest.mark.parametrize("make, converts", [
    pytest.param(lambda: [[1, 0, 0], [0, 1]], False, id="ragged-lists"),
    pytest.param(lambda: [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0])], False, id="ragged-arrays"),
    pytest.param(ragged_object_array, False, id="object-array-of-ragged-rows"),
    pytest.param(lambda: (row for row in np.eye(3)), False, id="generator"),
    pytest.param(lambda: {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}, False, id="set"),
    pytest.param(lambda: map(list, np.eye(3)), False, id="map"),
    pytest.param(lambda: [1.0, 2.0, 3.0], True, id="flat-list"),
    pytest.param(lambda: [[[1, 0, 0]], [[0, 1, 0]]], True, id="3-D-list"),
    pytest.param(lambda: [], True, id="no-rows"),
    pytest.param(lambda: np.zeros((2, 0)), True, id="rows-of-no-coordinates"),
    pytest.param(lambda: ["1 0 0", "0 1 0"], False, id="strings"),
    pytest.param(lambda: [[1 + 1j, 0, 0]], False, id="complex-entry"),
    pytest.param(lambda: [[10**400, 0, 0]], False, id="int-too-large-for-a-float"),
    *[pytest.param(*form.values, False, id=form.id) for form in NOT_REAL_FORMS],
])
def test_both_routes_refuse_a_malformed_span_alike(make, converts):
    # the blade route and the oracle each convert a span once, so they raise the same
    # exception; what NumPy does not convert (a set, read in hash order, among them) the
    # wedge refuses alike
    routes = [blade_from_spanning_vectors, orthonormal_basis]
    if not converts:
        routes.append(lambda rows: wedge_vectors(SIG3, rows))
    raised = []
    for route in routes:
        with pytest.raises(Exception) as info:
            route(make())
        raised.append(info.type)
    assert len(set(raised)) == 1, raised


@pytest.mark.parametrize("make", NOT_REAL_FORMS)
def test_coordinates_that_are_not_real_numbers_raise_type_error(make):
    # once accepted: "1" parsed as 1.0, True built e1, a complex array lost its imaginary part
    routes = [blade_from_spanning_vectors, orthonormal_basis, lambda rows: wedge_vectors(SIG3, rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in routes:
            with pytest.raises(TypeError, match=r"^coordinates must be real numbers, not "):
                route(make())


def test_object_arrays_still_convert():
    # an object array (a Fraction, an int beyond int64) goes through the float conversion
    rows = np.array([[Fraction(1, 3), 0, 2**70], [0, 1, 0]], dtype=object)
    floats = np.asarray(rows, dtype=float)
    built, expected = blade_from_spanning_vectors(rows), blade_from_spanning_vectors(floats)
    assert built.frame.tobytes() == expected.frame.tobytes()
    assert built.mv.coeffs.tobytes() == expected.mv.coeffs.tobytes()
    assert orthonormal_basis(rows).tobytes() == orthonormal_basis(floats).tobytes()
    assert wedge_vectors(SIG3, rows) == wedge_vectors(SIG3, floats)


S = 2.8e102     # rows orthogonal to (1, 1, 1, 1): four coefficients of 1.3e308, magnitude 2.6e308


@pytest.mark.parametrize("form", ["lists", "ndarray", "arrays"])
@pytest.mark.parametrize("rows, sig, error, message", [
    ([[1, 0, 0], [0, 1]], None, ValueError, r"^setting an array element with a sequence"),
    ([[1, 0, 0], [0, 1, 0, 5]], None, ValueError, r"^setting an array element with a sequence"),
    ([1.0, 2.0, 3.0], None, ValueError, r"^expected a sequence of length-n vectors, one per row$"),
    ([[[1, 0, 0]], [[0, 1, 0]]], None, ValueError, r"^expected a sequence of length-n vectors, one per row$"),
    ([], None, DegenerateSpanError, r"^empty spanning set$"),
    ([[1, 0], [0, 1], [1, 1]], None, DegenerateSpanError, r"^3 vectors cannot be independent in R\^2$"),
    ([[1, 0], [0, 1], [1]], None, ValueError, r"^setting an array element with a sequence"),
    ([[1, 0, 0]], Signature(4), ValueError, r"^vectors of length 3 in Cl\(4,0\)$"),
    ([[1, 0, 0], [0, 1]], Signature(4), ValueError, r"^setting an array element with a sequence"),
    ([[1, 0, 1], [0, 1, 0]], Signature(2, 1), NonEuclideanError, r"^blade frames implemented for Euclidean"),
    ([[1, 0, 1], [0, 1]], Signature(2, 1), ValueError, r"^setting an array element with a sequence"),
    ([[1e160, 0, 0], [0, 1e160, 0]], None, ValueError, r"^coefficients must be finite$"),
    ([[1e155, 0, 0]], None, ValueError, r"^vector 0 overflows"),
    ([[1, 0, 0], [2, 0, 0]], None, DegenerateSpanError, r"^vector 1 is dependent"),
    ([[S, -S, 0, 0], [S, S, -2 * S, 0], [S, S, S, -3 * S]], None, ValueError, r"^blade magnitude overflows"),
])
def test_every_form_of_a_span_is_refused_alike(form, rows, sig, error, message):
    # the same refusal, message and order whichever form the rows come in; ragged rows are
    # refused by the conversion, before the count and the signature are read
    with pytest.raises(error, match=message):
        blade_from_spanning_vectors(span_forms(rows)[form], sig)


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
        # c . c = 1e612 overflows, but the magnitude 1e306 does not: the blade builds
        big = blade_from_spanning_vectors([[1e153, 0, 0], [0, 1e153, 0]])
        assert big.magnitude == pytest.approx(1e306, rel=1e-15)
        assert np.array_equal(big.frame, np.eye(3)[:2])
        # rows orthogonal to (1, 1, 1, 1): four finite coefficients of 1.3e308, magnitude 2.6e308
        s = 2.8e102
        with pytest.raises(ValueError, match="magnitude overflows"):
            blade_from_spanning_vectors([[s, -s, 0, 0], [s, s, -2 * s, 0], [s, s, s, -3 * s]])

    @pytest.mark.parametrize("rows", [
        [[1e160, 0, 0], [0, 1e160, 0]],          # _mgs would say "vector 0 overflows"
        [[math.nan, 1, 0], [0, 1, 0]],           # ... and "is dependent"
        [[math.inf, 0, 0], [0, 0, 1]],
    ])
    def test_nonfinite_wedge_raises_before_gram_schmidt(self, rows):
        # the magnitude is finite only when every coefficient is; when it is not, the
        # coefficients are scanned, and that refusal comes before _mgs's
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^coefficients must be finite$"):
            blade_from_spanning_vectors(rows)

    @pytest.mark.parametrize("wedge", ["blade", "wedge_vectors"])
    @pytest.mark.parametrize("rows", [
        [[1e160, 0, 0], [0, 1e160, 0]],
        [[math.nan, 1, 0], [0, 1, 0]],
        [[math.inf, 0, 0], [0, 0, 1]],
        # the first row squares to 0.0, so the rows' squares multiply to 0, yet the
        # wedge of the first five rows overflows
        np.diag([1e-170] + [1e150] * 11).tolist(),
    ])
    def test_nonfinite_wedge_raises_no_warning(self, wedge, rows):
        # the twin of the test above with warnings as errors and no np.errstate: the wedge
        # turns its own warnings off where a step can overflow, and the ValueError comes out
        build = {"blade": blade_from_spanning_vectors,
                 "wedge_vectors": lambda rows: wedge_vectors(Signature(len(rows[0])), rows)}[wedge]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                build(rows)

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

    @pytest.mark.parametrize("p, q", [(2, 1), (4, 1)])
    def test_answers_over_a_non_euclidean_signature(self, p, q):
        # blade-ness is decided in coefficient space, so no metric is needed to answer
        sig = Signature(p, q)
        e = basis_vectors(sig)
        assert is_blade(e[0] ^ e[-1])
        assert is_blade((e[0] + 2.0 * e[1]) ^ (e[1] - e[-1]))
        with pytest.raises(NonEuclideanError):
            Blade.from_multivector(e[0] ^ e[-1])

    @pytest.mark.parametrize("p, q", [(2, 1), (4, 1)])
    def test_non_blade_over_a_non_euclidean_signature(self, p, q):
        sig = Signature(p, q)
        e = basis_vectors(sig)
        assert not is_blade(e[0] + (e[1] ^ e[2]))
        if sig.n >= 4:
            assert not is_blade((e[0] ^ e[1]) + (e[2] ^ e[3]))


class TestContractionMatrix:
    @staticmethod
    def _antisymmetric(f):
        # the bivector_split matrix before it read contraction_matrix: [i, j] = f_ij for i < j
        n = f.sig.n
        i, j = np.triu_indices(n, 1)
        c = f.coeffs[(1 << i) | (1 << j)]
        mat = np.zeros((n, n))
        mat[i, j] = c + 0.0
        mat[j, i] = 0.0 - c
        return mat

    def test_grade_two_is_minus_the_antisymmetric_matrix(self):
        rng = np.random.default_rng(15)
        for n in range(2, 13):
            sig = Signature(n)
            for _ in range(5):
                rows = rng.uniform(-1, 1, (2 * (n // 2), n))
                f = sum((wedge_vectors(sig, rows[j:j + 2]) for j in range(0, len(rows), 2)),
                        Multivector.zero(sig))
                old = self._antisymmetric(f)
                c = contraction_matrix(f, 2)
                assert c.shape == (n, n)
                assert np.array_equal(c, -old)
                assert (0.0 - c).tobytes() == old.tobytes()

    def test_rows_are_the_contractions(self):
        sig = Signature(5)
        rows = np.random.default_rng(16).uniform(-1, 1, (3, 5))
        x = wedge_vectors(sig, rows)
        c = contraction_matrix(x, 3)
        grade2 = ga._grade_masks(5, 2)
        direct = np.array([e.left_contraction(x).coeffs[grade2] for e in basis_vectors(sig)])
        assert np.allclose(c, direct, atol=1e-15) or np.allclose(c, -direct, atol=1e-15)


class TestBladeValidationHalves:
    """Two inputs that once each needed a check of their own: a non-blade whose
    square is a scalar, and a near blade that a max-norm reproduction check
    accepted. The one factorization rule of pure_blade refuses both."""

    def test_factorization_rejects_square_scalar_non_blade(self):
        # (e123 + e456) reverse(e123 + e456) = 2: no square test sees that it is no blade
        sig = Signature(6)
        x = Multivector.basis_blade(sig, "e123") + Multivector.basis_blade(sig, "e456")
        with pytest.raises(NotABladeError):
            Blade.from_multivector(x)
        assert not is_blade(x)

    def test_scalar_test_rejects_near_blade(self):
        # the wedge of its frame, e12, misses the unit input by 8e-10 in norm, and 2 * 8e-10 > BLADE_TOL
        sig = Signature(4)
        x = Multivector.basis_blade(sig, "e12") + Multivector.basis_blade(sig, "e34", 8e-10)
        with pytest.raises(NotABladeError):
            Blade.from_multivector(x)

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e9, 1e10])
    def test_validation_is_scale_free(self, scale):
        # the factorization compares unit blades, so its bound does not grow with the magnitude
        sig = Signature(6)
        x = Multivector.basis_blade(sig, "e123") + Multivector.basis_blade(sig, "e456")
        assert not is_blade(x * scale)
        with pytest.raises(NotABladeError):
            Blade.from_multivector(x * scale)
        rows = np.random.default_rng(14).uniform(-1, 1, (3, 6))
        b = Blade.from_multivector(wedge_vectors(sig, rows) * scale)
        assert b.frame.shape == (3, 6)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e200, 1e300])
    def test_off_grade_dust_at_any_scale(self, scale):
        # the off-grade norm is taken scaled: at 1e200 its square would overflow
        b = Blade.from_multivector((E1 ^ E2) * scale + E3 * (1e-10 * scale))
        assert b.grade == 2 and b.mv == (E1 ^ E2) * scale
        assert b.magnitude == pytest.approx(scale, rel=1e-15)
        with pytest.raises(NotABladeError, match="not of pure grade"):
            Blade.from_multivector((E1 ^ E2) * scale + E3 * (1e-8 * scale))

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

    def test_non_euclidean_blade_has_no_frame(self):
        # the frame is orthonormal in the coefficients; only a Euclidean metric agrees
        sig = Signature(2, 1)
        e1, e2, e3 = basis_vectors(sig)
        for x in (e1 ^ e2, e1 ^ e3):
            with pytest.raises(NonEuclideanError):
                Blade.from_multivector(x)

    def test_grade_zero_frame_is_empty(self):
        for sig in (SIG3, Signature(2, 1)):
            b = Blade.from_multivector(Multivector.scalar(sig, -2.0))
            assert b.frame.shape == (0, sig.n)

    def test_frame_is_read_only(self):
        for b in (blade_from_spanning_vectors([[1, 2, 0], [0, 1, 1]]), Blade.from_multivector(E1 ^ E3)):
            assert not b.frame.flags.writeable
            with pytest.raises(ValueError):
                b.frame[0, 0] = 1.0

    def test_constructor_checks_freezes_and_replaces(self):
        # Blade's own __init__, one update of the instance dict: the frame read-only, the
        # magnitude refused when not finite, each declared field once, frozen, and
        # dataclasses.replace still builds through it
        frame = np.eye(3)[:2].copy()
        b = Blade(E1 ^ E2, 2, 1.0, frame)
        assert not frame.flags.writeable
        assert list(vars(b)) == [f.name for f in dataclasses.fields(Blade)]
        for magnitude in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^blade magnitude overflows"):
                Blade(E1 ^ E2, 2, magnitude, np.eye(3)[:2].copy())
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.grade = 1
        assert dataclasses.replace(b, magnitude=2.0) == Blade(E1 ^ E2, 2, 2.0, frame)

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

    def test_conformal_run_reads_carriers_without_products(self, monkeypatch):
        # the carrier is a coefficient slice, and validation factors in coefficient space, its
        # frame kept by the blade; the products left are each object's X ^ e_inf kind test and
        # the sphere's offset flat; the engine's rotor chain multiplies by vectors
        n = 3
        csig = cf.conformal_signature(n)
        xa = cf.flat(csig, [0.0, 0.0, 0.0], E1 ^ E2)
        xb = cf.sphere(csig, [1.0, 2.0, 3.0], 1.5)
        problem = SubspaceProblem(n=n, mode="conformal", signature=(n + 1, 1),
                                  a_span=[float(v) for v in xa.coeffs],
                                  b_span=[float(v) for v in xb.coeffs])
        callers = []
        product = Multivector._product

        def recording(self, other, keep=None):
            frame = sys._getframe(1)  # the caller: past __mul__, outer, ... and comprehensions
            while frame.f_code.co_filename == ga.__file__ or frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            callers.append(frame.f_code.co_qualname)
            return product(self, other, keep)

        monkeypatch.setattr(Multivector, "_product", recording)
        doc = run_problem(problem, oracle_enabled=True)
        assert doc["oracle"]["max_deviation"] <= 1e-9
        assert callers == ["ConformalObject.from_multivector"] * 2 + ["to_offset_flat"]
