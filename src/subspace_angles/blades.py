"""Blades: construction and validation.

A blade (simple k-vector) is the outer product of k independent vectors
and stands for the k-dimensional subspace of vectors whose wedge with it
vanishes. Every Blade carries a frame: k orthonormal vectors whose
geometric product is the unit blade, so the blade is its magnitude times
that product; the frame is the blade's orthogonal factorization. A blade
built from spanning vectors takes its frame from Gram-Schmidt, run on
lists of Python floats (rows have at most 12 entries, where one NumPy call
per projection costs more than its arithmetic) with a second pass only where the first cancels; a blade
read from a multivector takes it from one eigensolve of its projector,
built from ga.contraction_matrix, which also gives engine.bivector_split its
matrix. The frame is not unique, only the reconstruction is contractual.
pure_blade, one grade-and-factor test that reads no metric, answers
whether any multivector is a blade and also validates conformal objects. Blade's constructor is the one place that decides
whether a blade is usable: a Euclidean signature and a magnitude in the normal float
range. blade_from_spanning_vectors refuses malformed rows, then a non-finite wedge (its
norm is the finiteness check; only a non-finite norm scans the coefficients), then
_mgs's refusals, then, in the constructor, a magnitude that overflows or underflows.
_factor's projector C C^T is np.dot, not @: the same bytes, without matmul's dispatch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .errors import DegenerateSpanError, NonEuclideanError, NotABladeError
from .ga import (Multivector, Signature, _norm, _real_rows, _wedge_coeffs, contraction_matrix,
                 euclidean_signature, wedge_vectors)

# A spanning vector is dependent when its Gram-Schmidt residual drops
# below this fraction of its original norm.
DEPENDENCE_TOL = 1e-10

# The smallest normal float: a squared norm below it has lost digits.
NORMAL_MIN = sys.float_info.min

BLADE_TOL = 1e-9


@dataclass(frozen=True, init=False)
class Blade:
    """A multivector checked to be a simple k-vector, with its frame: the
    read-only (k, n) orthonormal rows q_1..q_k with q_1 ^ ... ^ q_k = unit()
    (over a Euclidean signature) that each constructor computes while it
    validates (Gram-Schmidt of the spanning vectors, or an eigensolve of
    the projector for from_multivector), so magnitude * wedge_vectors(sig,
    frame) rebuilds mv. The engine's projectors read the frame; == and
    repr ignore it. The constructor, which every route goes through, refuses
    a signature with q > 0 (NonEuclideanError: the frame is orthonormal in
    the coefficients, which only a Euclidean metric agrees with), a
    magnitude that overflows to inf or nan (ValueError: finite coefficients
    can still have a norm above the float range, e.g. a trivector of R^4
    whose four coefficients are 1.3e308) and one below NORMAL_MIN
    (ValueError, the rule _mgs applies to squared norms: four rows of 1e-80,
    each of a normal squared norm, wedge to about 1e-320, which has lost
    its digits)."""

    mv: Multivector
    grade: int
    magnitude: float
    frame: np.ndarray = field(compare=False, repr=False)

    def __init__(self, mv: Multivector, grade: int, magnitude: float, frame: np.ndarray):
        if not mv.sig.is_euclidean:
            raise NonEuclideanError("blade frames implemented for Euclidean blades")
        if not math.isfinite(magnitude):
            raise ValueError("blade magnitude overflows: its coefficient norm is not finite")
        if magnitude < NORMAL_MIN:
            raise ValueError("blade magnitude underflows: its coefficient norm is below the normal range")
        frame.setflags(write=False)
        # one update of the instance dict, where a frozen dataclass' own __init__ sets each
        # field through object.__setattr__ and then calls __post_init__
        self.__dict__.update(mv=mv, grade=grade, magnitude=magnitude, frame=frame)

    @property
    def sig(self) -> Signature:
        return self.mv.sig

    def unit(self) -> Multivector:
        return self.mv / self.magnitude

    @classmethod
    def from_multivector(cls, mv: Multivector) -> "Blade":
        """Validate (pure_blade at BLADE_TOL), keep its frame and wrap;
        the constructor then checks the signature and the magnitude. The
        magnitude is the coefficient norm, which _factor normalises the
        frame's wedge by."""
        k, clean, frame = pure_blade(mv, BLADE_TOL)
        return cls(clean, k, clean.coeff_norm(), frame)


def pure_blade(mv: Multivector, tol: float) -> tuple[int, Multivector, np.ndarray]:
    """(k, part, frame): mv's dominant grade, its grade-k part with
    off-grade dust stripped, and the part's frame (_factor).

    Raises NotABladeError when mv is zero, when the parts off grade k
    exceed tol * |mv|, or when the part does not factor within tol (see
    _factor); |.| is the coefficient norm and the factorization reads no
    metric, so any signature is checked alike.
    """
    scale = mv.coeff_norm()
    if scale == 0.0:
        raise NotABladeError("zero multivector")
    norms = mv.grade_norms()
    k = max(norms, key=norms.get)
    off = math.hypot(*(v for g, v in norms.items() if g != k))   # scaled: no overflow at 1e200
    if off > tol * scale:
        raise NotABladeError(f"not of pure grade: grades {sorted(norms)}")
    part = mv.grade(k)
    return k, part, _factor(part, k, tol)


def blade_from_spanning_vectors(vectors) -> Blade:
    """Outer product of spanning vectors; magnitude is the spanned volume.

    Parameters
    ----------
    vectors : sequence of length-n arrays, whose width n fixes Cl(n,0)

    Raises DegenerateSpanError on dependent vectors and ValueError on a
    malformed span, on overflow and on a magnitude that underflows.
    """
    rows, lists, sig = _span(vectors)
    squares = [sum(map(mul, u, u)) for u in lists]
    # Hadamard: a step's terms are a minor of the rows before it, at most the product of
    # their norms, times an entry of the next row, so below 1e300 none overflows; a
    # product of 0 (a zero row, or an underflow that hides the rows after it), inf or nan
    # runs the wedge with its warnings off, and its non-finite coefficients raise below
    if 0.0 < math.prod(squares) < 1e300:
        coeffs = _wedge_coeffs(sig, rows)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _wedge_coeffs(sig, rows)
    magnitude = _norm(coeffs)  # finite only when every coefficient is
    if not math.isfinite(magnitude) and not np.isfinite(coeffs).all():
        raise ValueError("coefficients must be finite")  # before _mgs, as an overflowing wedge
    frame = _mgs(lists, squares)  # raises on dependence; R's positive diagonal keeps the orientation
    return Blade(Multivector._of_finite(sig, coeffs), len(lists), magnitude, frame)


def _span(vectors) -> tuple[np.ndarray, list[list[float]], Signature]:
    """(rows, lists, sig): the k spanning vectors as one (k, n) float array and as lists of
    floats, and their signature, Euclidean Cl(n,0).

    vectors is converted once (ga._real_rows), as oracle.orthonormal_basis converts it, so both
    routes refuse the same malformed spans with the same exception. The refusals come in this
    order: NumPy's conversion (ragged rows, an iterable that is not a sequence, an object it
    cannot make a float), entries NumPy infers as booleans, strings, bytes or complex numbers
    (TypeError), no coordinates, rows that do not form a 2-D array, more rows than n.
    """
    rows = _real_rows(vectors)
    if rows.size == 0:
        raise DegenerateSpanError("empty spanning set")
    if rows.ndim != 2:
        raise ValueError("expected a sequence of length-n vectors, one per row")
    k, n = rows.shape
    if k > n:
        raise DegenerateSpanError(f"{k} vectors cannot be independent in R^{n}")
    return rows, rows.tolist(), euclidean_signature(n)


def _mgs(lists: list[list[float]], squares: list[float]) -> np.ndarray:
    """Modified Gram-Schmidt on lists of floats, given with their squared norms, projecting a
    vector again only when its first pass keeps less than half its squared norm: the DGKS test
    with eta = 1/sqrt(2) (Daniel, Gragg, Kaufman & Stewart, 1976); twice is enough (Giraud,
    Langou & Rozloznik, 2005).

    Returns a (k, n) array of orthonormal rows q_j with q_j . v_j > 0;
    raises DegenerateSpanError when some vector is zero or its residual
    falls below DEPENDENCE_TOL relative to its original norm, and
    ValueError when its squared norm overflows, or when that of a nonzero
    vector or of its residual is below the normal range, where its square
    root loses digits and the row would not be of unit length.
    """
    basis: list[list[float]] = []
    for u, squared in zip(lists, squares):
        if not math.isfinite(squared):
            raise ValueError(f"vector {len(basis)} overflows: its squared norm is not finite")
        if squared < NORMAL_MIN:
            if not any(u):
                raise DegenerateSpanError("zero vector in spanning set")
            raise ValueError(f"vector {len(basis)} underflows: its squared norm is below the normal range")
        original = math.sqrt(squared)
        for _ in range(2):
            for b in basis:
                p = sum(map(mul, u, b))
                u = [x - p * y for x, y in zip(u, b)]
            kept = sum(map(mul, u, u))
            if kept >= 0.5 * squared:   # the pass did not cancel: no second one
                break
        res = math.sqrt(kept)
        if res < DEPENDENCE_TOL * original:
            raise DegenerateSpanError(
                f"vector {len(basis)} is dependent (residual {res:.3e})"
            )
        if kept < NORMAL_MIN:
            raise ValueError(f"vector {len(basis)} underflows: its residual's squared norm "
                             "is below the normal range")
        basis.append([x / res for x in u])
    return np.array(basis)


def _factor(mv: Multivector, k: int, tol: float) -> np.ndarray:
    """Frame of a nonzero grade-k mv: (k, n) rows, orthonormal in the
    coefficients, whose wedge is unit = mv / |mv|, |.| the coefficient norm.

    With C = contraction_matrix(unit, k), C C^T is the blade's projector
    (C's global sign cancels). The frame is the eigenvectors of the k
    largest eigenvalues of C C^T, the last row oriented so that the plain
    coefficient dot of their wedge with unit is >= 0; no step reads the
    metric. Raises NotABladeError when 2 |wedge - unit| > tol; the factor 2
    refuses e12 + eps e34 where its square's non-scalar part 2 eps e1234
    reaches tol.
    """
    if k == 0:
        return np.zeros((0, mv.sig.n))
    unit = mv / mv.coeff_norm()
    c = contraction_matrix(unit, k)
    factors = np.ascontiguousarray(np.linalg.eigh(np.dot(c, c.T))[1][:, -k:].T)

    rebuilt = wedge_vectors(mv.sig, factors)
    if np.dot(rebuilt.coeffs, unit.coeffs) < 0.0:
        factors[-1] = -factors[-1]
        rebuilt = -rebuilt
    if 2.0 * (rebuilt - unit).coeff_norm() > tol:
        raise NotABladeError("orthogonal factors do not reproduce the input")
    return factors


def subspace_membership(x: Multivector, b: Blade) -> bool:
    """x lies in the blade's subspace iff |x ^ b| <= BLADE_TOL |x| |b|."""
    wedge = x.outer(b.mv)
    return wedge.coeff_norm() <= BLADE_TOL * x.coeff_norm() * b.mv.coeff_norm()
