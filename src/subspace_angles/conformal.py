"""Conformal-model adapter: angles between flats and rounds in Cl(n+1,1).

The conformal algebra of R^n adds two basis vectors: e_plus (index n+1,
squares +1) and e_minus (index n+2, squares -1). The null basis is the
fixed linear combination

    e_o   = (e_minus - e_plus) / 2        e_o . e_inf = -1
    e_inf =  e_minus + e_plus             e_o^2 = e_inf^2 = 0

A round X (sphere-like: X ^ e_inf != 0) is first replaced by its offset
embedding flat X ^ e_inf. Contracting an offset flat with the Minkowski
plane E = e_o ^ e_inf strips the null directions and leaves the
Euclidean carrier blade, where the ordinary angle engine applies; as E
is a single basis blade, that contraction is a signed coefficient slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blades import Blade, pure_blade
from .engine import AngleReport, relative_angle
from .errors import CarrierError
from .ga import Multivector, Signature, euclidean_signature

ROUND_TOL = 1e-10


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
    if mv.sig != euclidean_signature(n):
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
    xe = lift_euclidean(sig, Multivector.vector(euclidean_signature(n), x))
    return e_origin(sig) + xe + e_infinity(sig) * (0.5 * float(x @ x))


def translator(sig: Signature, t) -> Multivector:
    """Versor translating by the Euclidean vector t: 1 - (t e_inf)/2."""
    t = np.asarray(t, dtype=float)
    n = base_dimension(sig)
    te = lift_euclidean(sig, Multivector.vector(euclidean_signature(n), t))
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
    """A blade of Cl(n+1,1), checked by blades.pure_blade at ROUND_TOL; kind
    ('round' or 'flat') is detected, not declared: a round's wedge with e_inf
    exceeds ROUND_TOL times the input's coefficient norm."""

    mv: Multivector
    kind: str

    @classmethod
    def from_multivector(cls, mv: Multivector) -> "ConformalObject":
        base_dimension(mv.sig)  # validates the signature shape
        _k, clean, _frame = pure_blade(mv, ROUND_TOL)
        wedge = clean.outer(e_infinity(mv.sig))
        kind = "round" if wedge.coeff_norm() > ROUND_TOL * mv.coeff_norm() else "flat"
        return cls(clean, kind)


def to_offset_flat(x: ConformalObject) -> ConformalObject:
    """Rounds become their offset embedding flat X ^ e_inf; flats pass through."""
    if x.kind == "flat":
        return x
    return ConformalObject(x.mv.outer(e_infinity(x.mv.sig)), "flat")


def euclidean_carrier(x: ConformalObject) -> Blade:
    """Carrier direction blade of an object, as a Blade over Cl(n,0).

    The carrier is the contraction of the offset flat F with
    E = e_o ^ e_inf. E is exactly -e_plus e_minus, one basis blade, so
    <F E>_{g-2} is minus F's coefficients on the masks that hold both
    null bits (the top quarter of the mask range), read as a Euclidean
    element; it never has an e_plus or e_minus part. Raises CarrierError
    when no direction part remains (e.g. for a conformal point).
    """
    f = to_offset_flat(x)
    n = base_dimension(f.mv.sig)
    if f.mv.max_grade() < 3:
        raise CarrierError("object has no Euclidean direction part")
    carrier = Multivector(euclidean_signature(n), 0.0 - f.mv.coeffs[3 << n:], _copy=False)  # never -0.0
    if carrier.coeff_norm() == 0.0:
        raise CarrierError("carrier extraction yields zero")
    return Blade.from_multivector(carrier)


def conformal_relative_angle(x: ConformalObject, y: ConformalObject) -> AngleReport:
    """Angle report between two conformal objects via their carriers."""
    return relative_angle(euclidean_carrier(x), euclidean_carrier(y))
