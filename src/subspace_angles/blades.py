"""Blades: construction and validation.

A blade (simple k-vector) is the outer product of k independent vectors
and stands for the k-dimensional subspace of vectors whose wedge with it
vanishes. Every Blade carries a frame: k orthonormal vectors whose
geometric product is the unit blade, so the blade is its magnitude times
that product; the frame is the blade's orthogonal factorization. The
frame is not unique, only the reconstruction is contractual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpanError, NonEuclideanError, NotABladeError
from .ga import Multivector, Signature, wedge_vectors

# A spanning vector is dependent when its Gram-Schmidt residual drops
# below this fraction of its original norm.
DEPENDENCE_TOL = 1e-10

BLADE_TOL = 1e-9


@dataclass(frozen=True)
class Blade:
    """A multivector checked to be a simple k-vector, with its frame: the
    read-only (k, n) orthonormal rows q_1..q_k with q_1 ^ ... ^ q_k = unit()
    (over a Euclidean signature) that each constructor computes while it
    validates, so magnitude * wedge_vectors(sig, frame) rebuilds mv. The
    engine's projectors read the frame; == and repr ignore it. A magnitude
    that overflows to inf or nan raises ValueError."""

    mv: Multivector
    grade: int
    magnitude: float
    frame: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.magnitude):
            raise ValueError("blade magnitude overflows: its squared norm is not finite")
        self.frame.setflags(write=False)

    @property
    def sig(self) -> Signature:
        return self.mv.sig

    def unit(self) -> Multivector:
        return self.mv / self.magnitude

    @classmethod
    def from_multivector(cls, mv: Multivector) -> "Blade":
        """Validate and wrap; strips off-grade numerical dust first."""
        scale = mv.coeff_norm()
        if scale == 0.0:
            raise NotABladeError("zero multivector")
        norms = mv.grade_norms()
        k_dom = max(norms, key=norms.get)
        off = np.sqrt(sum(v * v for g, v in norms.items() if g != k_dom))
        if off > BLADE_TOL * scale:
            raise NotABladeError(f"not of pure grade: grades {sorted(norms)}")
        clean = mv.grade(k_dom)
        if nonscalar_square(clean) > BLADE_TOL * max(clean.coeff_norm() ** 2, 1e-300):
            raise NotABladeError("x * reverse(x) has non-scalar part")
        magnitude = clean.norm()
        return cls(clean, k_dom, magnitude, _factor(clean, k_dom, magnitude))


def nonscalar_square(mv: Multivector) -> float:
    """Coefficient norm of the non-scalar part of mv * reverse(mv).

    It vanishes for a blade, simple or null; each caller scales its own bound.
    """
    sq = mv * mv.reverse()
    return (sq - Multivector.scalar(mv.sig, sq.scalar_part())).coeff_norm()


def blade_from_spanning_vectors(vectors, sig: Signature | None = None) -> Blade:
    """Outer product of spanning vectors; magnitude is the spanned volume.

    Parameters
    ----------
    vectors : sequence of length-n arrays
    sig : optional Signature, defaults to Euclidean Cl(n,0)

    Raises DegenerateSpanError on dependent vectors and ValueError on overflow.
    """
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if not rows:
        raise DegenerateSpanError("empty spanning set")
    n = rows[0].shape[0]
    if sig is None:
        sig = Signature(n)
    if sig.n != n:
        raise ValueError(f"vectors of length {n} in Cl({sig.p},{sig.q})")
    if len(rows) > n:
        raise DegenerateSpanError(f"{len(rows)} vectors cannot be independent in R^{n}")

    out = wedge_vectors(sig, rows)  # first: an overflowing wedge says "coefficients must be finite"
    frame = _mgs(rows)  # raises on dependence; R's positive diagonal keeps the orientation
    return Blade(out, len(rows), out.norm(), frame)


def _mgs(rows: list[np.ndarray]) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Returns a (k, n) array of orthonormal rows; raises DegenerateSpanError
    when some vector's residual falls below DEPENDENCE_TOL relative to its
    original norm, and ValueError when its squared norm overflows.
    """
    basis: list[np.ndarray] = []
    for v in rows:
        original = np.sqrt(v @ v)
        if original == 0.0:
            raise DegenerateSpanError("zero vector in spanning set")
        if not np.isfinite(original):
            raise ValueError(f"vector {len(basis)} overflows: its squared norm is not finite")
        u, res = _residual(v, basis)
        if res < DEPENDENCE_TOL * original:
            raise DegenerateSpanError(
                f"vector {len(basis)} is dependent (residual {res:.3e})"
            )
        basis.append(u / res)
    return np.array(basis)


def _residual(v: np.ndarray, basis: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """v minus its projections onto the orthonormal rows of basis, in two
    Gram-Schmidt passes, and the norm of what is left."""
    u = v.copy()
    for _ in range(2):
        for b in basis:
            u = u - (u @ b) * b
    return u, np.sqrt(u @ u)


def _factor(mv: Multivector, k: int, magnitude: float) -> np.ndarray:
    """Frame of a validated grade-k blade mv: (k, n) orthonormal rows.

    Projects the basis vectors of R^n into the blade's subspace,
    orthonormalizes the images, and fixes the orientation of the last
    row so the wedge of the rows reproduces mv / magnitude.
    """
    sig = mv.sig
    if k == 0:
        return np.zeros((0, sig.n))
    if not sig.is_euclidean:
        raise NonEuclideanError("factorization implemented for Euclidean blades")
    if magnitude == 0.0:
        raise NotABladeError("cannot factor the zero blade")

    unit = mv / magnitude
    unit_rev = unit.reverse()
    # the projections (e_i _| unit) reverse(unit) of the basis vectors, longest first
    images = [(Multivector.basis_blade(sig, 1 << i).left_contraction(unit) * unit_rev)
              .grade(1).vector_coords() for i in range(sig.n)]
    images.sort(key=lambda w: -float(np.sqrt(w @ w)))

    factors: list[np.ndarray] = []
    for w in images:
        if len(factors) == k:
            break
        u, res = _residual(w, factors)
        if res > 1e-6:
            factors.append(u / res)
    if len(factors) != k:
        raise NotABladeError("projection rank below grade; not a blade")

    rebuilt = wedge_vectors(sig, factors)  # of orthonormal vectors: their geometric product
    if rebuilt.scalar_product(unit_rev) < 0.0:
        factors[-1] = -factors[-1]
        rebuilt = -rebuilt
    if not rebuilt.approx_eq(unit, BLADE_TOL * max(1.0, magnitude)):
        raise NotABladeError("orthogonal factors do not reproduce the input")
    return np.array(factors)


def is_blade(mv: Multivector) -> bool:
    """True iff mv is pure-grade, squares to a scalar and factors cleanly."""
    try:
        Blade.from_multivector(mv)
    except NotABladeError:
        return False
    return True


def subspace_membership(x: Multivector, b: Blade) -> bool:
    """x lies in the blade's subspace iff |x ^ b| <= BLADE_TOL |x| |b|."""
    wedge = x.outer(b.mv)
    return wedge.coeff_norm() <= BLADE_TOL * x.coeff_norm() * b.mv.coeff_norm()
