"""Conformal-model adapter: angles between flats and rounds in Cl(n+1,1).

The conformal algebra of R^n adds two basis vectors: e_plus (index n+1,
squares +1) and e_minus (index n+2, squares -1). The null basis is the
fixed linear combination

    e_o   = (e_minus - e_plus) / 2        e_o . e_inf = -1
    e_inf =  e_minus + e_plus             e_o^2 = e_inf^2 = 0

A round X (sphere-like: X ^ e_inf != 0) is first replaced by its offset
embedding flat X ^ e_inf. Contracting an offset flat with the Minkowski
plane E = e_o ^ e_inf strips the null directions and leaves the
Euclidean carrier blade, where the ordinary angle engine applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blades import Blade, nonscalar_square
from .engine import AngleReport, relative_angle
from .errors import CarrierError, NotABladeError
from .ga import Multivector, Signature

ROUND_TOL = 1e-10
CARRIER_TOL = 1e-9


def conformal_signature(n: int) -> Signature:
    """Cl(n+1,1) for a Euclidean base space R^n."""
    return Signature(n + 1, 1)


def base_dimension(sig: Signature) -> int:
    if sig.q != 1 or sig.p < 2:
        raise ValueError(f"not a conformal signature: Cl({sig.p},{sig.q})")
    return sig.p - 1


def e_plus(sig: Signature) -> Multivector:
    return Multivector.basis_blade(sig, 1 << base_dimension(sig))


def e_minus(sig: Signature) -> Multivector:
    return Multivector.basis_blade(sig, 1 << (base_dimension(sig) + 1))


def e_origin(sig: Signature) -> Multivector:
    return (e_minus(sig) - e_plus(sig)) * 0.5


def e_infinity(sig: Signature) -> Multivector:
    return e_minus(sig) + e_plus(sig)


def minkowski_plane(sig: Signature) -> Multivector:
    """E = e_o ^ e_inf."""
    return e_origin(sig).outer(e_infinity(sig))


def pseudoscalar_inverse(sig: Signature) -> Multivector:
    i = Multivector.basis_blade(sig, sig.size - 1)
    return i.reverse() / (i * i.reverse()).scalar_part()


def dual(x: Multivector) -> Multivector:
    return x * pseudoscalar_inverse(x.sig)


def lift_euclidean(sig: Signature, mv: Multivector) -> Multivector:
    """Embed a Cl(n,0) element into the conformal algebra Cl(n+1,1)."""
    n = base_dimension(sig)
    if mv.sig != Signature(n):
        raise ValueError("element does not match the conformal base space")
    coeffs = np.zeros(sig.size)
    coeffs[: mv.sig.size] = mv.coeffs
    return Multivector(sig, coeffs)


def embed_point(sig: Signature, x) -> Multivector:
    """Conformal point e_o + x + (x^2/2) e_inf."""
    x = np.asarray(x, dtype=float)
    n = base_dimension(sig)
    if x.shape != (n,):
        raise ValueError(f"point must have {n} coordinates")
    xe = lift_euclidean(sig, Multivector.vector(Signature(n), x))
    return e_origin(sig) + xe + e_infinity(sig) * (0.5 * float(x @ x))


def translator(sig: Signature, t) -> Multivector:
    """Versor translating by the Euclidean vector t: 1 - (t e_inf)/2."""
    t = np.asarray(t, dtype=float)
    n = base_dimension(sig)
    te = lift_euclidean(sig, Multivector.vector(Signature(n), t))
    return Multivector.scalar(sig, 1.0) - (te * e_infinity(sig)) * 0.5


def apply_versor(versor: Multivector, x: Multivector) -> Multivector:
    return versor * x * versor.reverse()


def flat(sig: Signature, point, direction: Multivector) -> Multivector:
    """Offset flat through a point with a Euclidean direction blade."""
    return embed_point(sig, point).outer(lift_euclidean(sig, direction)).outer(e_infinity(sig))


def sphere(sig: Signature, center, radius: float) -> Multivector:
    """Direct-form sphere: dual of the vector point(center) - (r^2/2) e_inf."""
    s = embed_point(sig, center) - e_infinity(sig) * (0.5 * radius * radius)
    return dual(s)


@dataclass(frozen=True)
class ConformalObject:
    """A blade of Cl(n+1,1); kind ('round' or 'flat') is detected, not declared."""

    mv: Multivector
    kind: str

    @classmethod
    def from_multivector(cls, mv: Multivector) -> "ConformalObject":
        base_dimension(mv.sig)  # validates the signature shape
        scale = mv.coeff_norm()
        if scale == 0.0:
            raise NotABladeError("zero conformal object")
        grades = mv.grades(tol=ROUND_TOL * scale)
        if len(grades) != 1:
            raise NotABladeError(f"conformal object must be pure grade, got {grades}")
        clean = mv.grade(grades[0])
        # simplicity: x reverse(x) must be scalar (null blades square to 0)
        if nonscalar_square(clean) > ROUND_TOL * scale * scale:
            raise NotABladeError("conformal object is not a blade")
        wedge = clean.outer(e_infinity(mv.sig))
        kind = "round" if wedge.coeff_norm() > ROUND_TOL * scale else "flat"
        return cls(clean, kind)


def to_offset_flat(x: ConformalObject) -> ConformalObject:
    """Rounds become their offset embedding flat X ^ e_inf; flats pass through."""
    if x.kind == "flat":
        return x
    return ConformalObject(x.mv.outer(e_infinity(x.mv.sig)), "flat")


def euclidean_carrier(x: ConformalObject) -> Blade:
    """Carrier direction blade of an object, as a Blade over Cl(n,0).

    Contracts the offset flat with E = e_o ^ e_inf and re-reads the
    result in the Euclidean subalgebra. Raises CarrierError when no
    direction part remains (e.g. for a conformal point).
    """
    f = to_offset_flat(x)
    sig = f.mv.sig
    n = base_dimension(sig)
    g = f.mv.max_grade()
    if g < 3:
        raise CarrierError("object has no Euclidean direction part")
    carrier = (f.mv * minkowski_plane(sig)).grade(g - 2)
    scale = carrier.coeff_norm()
    if scale == 0.0:
        raise CarrierError("carrier extraction yields zero")
    euclid = carrier.coeffs[: 1 << n]
    tail = carrier.coeffs[1 << n:]
    leak = float(np.sqrt(tail @ tail))
    if leak > CARRIER_TOL * scale:
        raise CarrierError(f"carrier has non-Euclidean components ({leak:.2e})")
    mv = Multivector(Signature(n), euclid)
    return Blade.from_multivector(mv)


def conformal_relative_angle(x: ConformalObject, y: ConformalObject) -> AngleReport:
    """Angle report between two conformal objects via their carriers."""
    return relative_angle(euclidean_carrier(x), euclidean_carrier(y))
