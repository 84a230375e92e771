"""Full relative-orientation of two subspace blades, read from what A reverse(B) does.

For unit blades A and B of grades r+q and r, the product M = A reverse(B)
factors as (c_1 + i_1 s_1) ... (c_r + i_r s_r) L with c_k, s_k the cosine
and sine of the k-th principal angle, i_k its principal-plane bivector
and L a unit blade of grade q + 2t. Read as a versor, x -> M x reverse(M)
is, up to sign, the orthogonal map O = (2 P_A - I)(2 P_B - I) of the two
subspace projectors (Halmos, "Two subspaces", 1969), which

  * turns each principal plane i_k by 2 theta_k,
  * sends the q + 2t directions of L to their negatives,
  * and fixes the s shared directions and everything outside A + B.

So the engine builds each projector as P = F^T F from the orthonormal
frame F its blade carries (see Blade) and reads the report in three
stages. _spectrum forms O, the eigensolve of S = (O + O^T)/2 and O in
S's eigenbasis, where each cluster of equal cos 2 theta is a diagonal
block. _read_clusters splits each block by one Hermitian eigensolve of
its antisymmetric part (_planes) into planes, with each plane's rate,
sin 2 theta, and its oriented orthonormal pair (x, y); cos 2 theta is the
mean of the block's diagonal entries on x and y. A 2-dim cluster needs no
eigensolve: its one rate is |K[1, 0]| for the block's antisymmetric part
K, and its pair the cluster's basis. Every angle is taken as
theta = atan2(sin 2 theta, cos 2 theta) / 2, which is as accurate near 0
as near pi/2 (Knyazev & Argentati, 2002). No grade of M is thresholded:
s and t count the angles by the oracle's per-angle rule, and M is never
formed: as reverse(B) B = 1, _self_check tests that the rebuilt chain
R = (c_1 + i_1 s_1) ... L carries unit(B) onto unit(A). The residual
|R unit(B) - unit(A)| = |R - M| also ties frames to blades. The chain is
ga._rotor_chain, left products by vectors on one parity at a time (its
docstring has the mechanics): _self_check feeds it the plane frames, L's rows
and unit(B), rotor_reconstruction the report's plane_frames and |A||B| L.
The self-check runs on coefficient arrays: unit(A), unit(B), the carried
chain, its sign test and its residual are plain 2^n arrays, and the only
Multivectors a report makes are its planes and its lowest blade, each the
wedge of its orthonormal rows over its coefficient norm (_unit_wedge): a norm
outside (0, inf) raises "coefficients must be finite", so none is scanned again.
Products are np.dot, not @: on these n x n arrays (n <= 12) the call costs more
than the arithmetic, matmul's dispatch more than np.dot's, for the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .blades import Blade
from .errors import AmbiguousRankError, NonEuclideanError, NotABladeError, SignatureMismatchError
from .ga import Multivector, _parity_half, _rotor_chain, _wedge_coeffs, contraction_matrix

# A principal angle counts as zero when its versine 2 sin^2(theta/2) = 1 - cos
# theta is <= this value and as right when its cosine is; the rule of
# oracle.rank_counts, so both routes classify borderline angles the same way.
ANGLE_COS_TOL = 1e-9

# Rotation rates (split coefficients, relative to the largest) at or below
# this floor are rounding noise: those directions lie in no plane.
SPLIT_FLOOR = 1e-12

# Two scales, one value: eigenvalues cos 2 theta of S within this distance
# share a cluster, and adjacent interior angles theta within it set
# has_equal_angles. A pair of angles can share a cluster and not count as
# equal, or count as equal and sit in two clusters. As cos 2 theta ~ 1 - 2 theta^2,
# angles of 6.1e-7 and 7.2e-10 share the +1 cluster, each in its own plane,
# so the flag is not read off the clusters.
EQUAL_ANGLE_TOL = 1e-8

# A report whose rebuilt chain misses unit(A) by more than this is not returned.
RESIDUAL_BOUND = 1e-6


@dataclass(frozen=True)
class AngleReport:
    """Complete relative-orientation data for a pair of blades.

    angles holds all r = min(grade) principal angles in descending
    order: the directions at a right angle (exactly pi/2) first, then
    the interior angles strictly inside (0, pi/2), then the shared
    directions (exactly 0.0). planes pairs one unit principal bivector
    with each interior angle, in the same order, oriented from A toward B:
    plane k has a positive coefficient dot with a_k ^ b_k, for principal
    vectors a_k of A and b_k of B with a_k . b_k = cos theta_k, where A is
    the operand of larger grade (the first one when the grades are
    equal). s counts the angles whose versine 2 sin^2(theta/2) = 1 - cos
    theta is at most ANGLE_COS_TOL and t those whose cosine is, so a near-zero
    or near-right interior angle is counted there and still has its computed
    value and its plane. lowest_blade is the unit blade of the directions O
    sends to their negatives: the right-angle planes plus, for blades of
    different grade, the extra dimensions of the larger blade; lowest_grade
    is its grade. Rotor reconstruction multiplies the interior rotors by it,
    and the rebuilt chain carries unit(B) onto unit(A), B the smaller-grade
    blade, up to residual (a coefficient norm). cos_interior multiplies the
    cosines of the angles t does not count, sin_interior_product the sines
    of the angles s does not count, and cos_total is cos_interior, or 0.0
    when t > 0. has_equal_angles is True when two adjacent interior
    angles (by the ordering above) lie within EQUAL_ANGLE_TOL of each other.
    plane_frames holds per plane the read-only (2, n) orthonormal rows u and w
    with unit(u ^ w) = planes[k], the pair the rotor chain reads; == and repr ignore it.
    """

    s: int
    t: int
    angles: tuple[float, ...]
    planes: tuple[Multivector, ...]
    cos_total: float
    cos_interior: float
    sin_interior_product: float
    lowest_grade: int
    residual: float
    has_equal_angles: bool
    lowest_blade: Multivector
    plane_frames: tuple[np.ndarray, ...] = field(compare=False, repr=False)


def _planes(k: np.ndarray, floor: float) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(rate, x, y) for each invariant plane of the antisymmetric array k
    whose rotation rate exceeds floor, fastest first: x and y orthonormal,
    k x = rate y and k y = -rate x.

    One Hermitian eigh of i k: an eigenvector x + i y of an eigenvalue
    rate > 0 has k x = rate y, k y = -rate x, x orthogonal to y and
    |x| = |y|, and eigenvectors of one repeated eigenvalue give mutually
    orthogonal planes, so coinciding rates need no further care. Rates
    are bounded by |k|_F / sqrt(2), which decides most calls without the eigh.
    """
    if float(np.sum(k * k)) <= 2.0 * floor * floor:
        return []
    w, z = np.linalg.eigh(1j * k)
    out = []
    for j in np.flatnonzero(w > floor)[::-1]:
        x, y = z[:, j].real, z[:, j].imag
        x = x / math.sqrt(float(np.dot(x, x)))
        y = y - np.dot(y, x) * x
        out.append((float(w[j]), x, y / math.sqrt(float(np.dot(y, y)))))
    return out


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=None)
def _one(n: int) -> np.ndarray:
    """The 2^n coefficients of the scalar 1, L when nothing is flipped: built once per n, read-only."""
    one = np.zeros(1 << n)
    one[0] = 1.0
    one.setflags(write=False)
    return one


def _unit_wedge(sig, rows) -> np.ndarray:
    """Coefficients of the wedge of rows over its coefficient norm: a plane, a split part or L.
    A norm outside (0, inf) is refused, so the result is finite and may be wrapped unscanned."""
    c = _wedge_coeffs(sig, rows)
    norm = math.sqrt(np.dot(c, c))
    if not 0.0 < norm < math.inf:
        raise ValueError("coefficients must be finite")
    return c / norm


def bivector_split(f: Multivector) -> list[tuple[float, Multivector]]:
    """Split a bivector into orthogonal commuting simple parts (Riesz).

    Returns [(beta_k, i_k)] with beta_k > 0 descending, i_k unit simple
    bivectors satisfying i_k^2 = -1, pairwise orthogonal and commuting,
    and sum(beta_k i_k) = f. The planes are the invariant planes of the
    antisymmetric matrix 0.0 - contraction_matrix(f, 2) (entry [i, j] the
    coefficient of e_i ^ e_j for i < j, every zero +0.0), from one
    Hermitian eigh (_planes): beta_k is the rate of plane k and, as the
    matrix takes x to beta_k y for its pair (x, y), i_k = unit(y ^ x).
    Coefficients at or below SPLIT_FLOOR times the largest entry are
    dropped; the eigensolve reads f over a power of two, so c f splits into
    (c beta_k, i_k) at any scale. The split is unique only for distinct coefficients; for
    coinciding ones any orthogonal choice inside the eigenspace is returned.
    """
    if f.grades() not in ([], [2]):
        raise NotABladeError(f"bivector_split needs a pure bivector, grades {f.grades()}")
    if not f.sig.is_euclidean:
        raise NonEuclideanError("bivector split implemented for Euclidean signature")
    mat = 0.0 - contraction_matrix(f, 2)
    peak, e = math.frexp(float(np.max(np.abs(mat))))
    planes = _planes(np.ldexp(mat, -e), SPLIT_FLOOR * peak)
    return [(math.ldexp(rate, e), Multivector._of_finite(f.sig, _unit_wedge(f.sig, (y, x))))
            for rate, x, y in planes]


def _spectrum(a: Blade, b: Blade) -> tuple[list[float], np.ndarray, np.ndarray]:
    """(w, v, rot): the ascending eigenvalues w, as a list, and eigenvectors v of
    S = (O + O^T)/2 for O = (2 P_A - I)(2 P_B - I), and rot = v^T O v. Each
    reflection 2 P - I and S is scaled in place, on the product's own array."""
    eye = _eye(a.sig.n)
    pa, pb = np.dot(a.frame.T, a.frame), np.dot(b.frame.T, b.frame)
    pa *= 2.0
    pa -= eye
    pb *= 2.0
    pb -= eye
    o = np.dot(pa, pb)
    sym = o + o.T
    sym *= 0.5
    w, v = np.linalg.eigh(sym)
    return w.tolist(), v, np.dot(np.dot(v.T, o), v)


def _read_clusters(w: list[float], v: np.ndarray, rot: np.ndarray) -> tuple[list, list]:
    """(interior, flipped) from _spectrum's (w, v, rot): (theta, frame) of each principal
    plane, theta descending, frame its orthonormal rows (x, -y), and the directions O sends
    to their negatives, L's. A cluster is a run of w whose neighbours lie within
    EQUAL_ANGLE_TOL; its block of rot is O on it. A 2-dim cluster's frame is one copy of
    its two rows of v^T, the second negated where k10 > 0."""
    cuts = [0, *(j for j in range(1, len(w)) if w[j] - w[j - 1] > EQUAL_ANGLE_TOL), len(w)]
    rl = rot.tolist()
    interior, flipped = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        local, found = [], []
        # trace: of the block on the plane, 2 cos 2 theta; O turns -y toward x: the frame is (x, -y)
        if hi - lo == 2:
            # the block's antisymmetric part is [[0, -k10], [k10, 0]]: x is column lo of v, and y
            # is column lo + 1 times sign(k10), so -y is that column negated where k10 > 0
            k10 = 0.5 * (rl[lo + 1][lo] - rl[lo][lo + 1])
            if abs(k10) > SPLIT_FLOOR:
                frame = v.T[lo:hi].copy()
                if k10 > 0.0:
                    row = frame[1]
                    np.negative(row, out=row)
                found = [(abs(k10), rl[lo][lo] + rl[lo + 1][lo + 1], frame)]
        elif hi - lo > 2:
            block, basis = rot[lo:hi, lo:hi], v[:, lo:hi]
            local = _planes(0.5 * (block - block.T), SPLIT_FLOOR)
            found = [(rate, np.dot(x, np.dot(block, x)) + np.dot(y, np.dot(block, y)),
                      np.array((np.dot(basis, x), -np.dot(basis, y))))
                     for rate, x, y in local]
        interior += [(0.5 * math.atan2(rate, 0.5 * trace), frame) for rate, trace, frame in found]
        # O negates the directions of a cos 2 theta < 0 cluster outside its
        # planes: none when the planes fill it, so the QR runs only when they don't
        if w[lo] < 0.0 and 2 * len(found) < hi - lo:
            if local:
                spanned = np.column_stack([u for _, x, y in local for u in (x, y)])
                flipped += list(np.dot(basis, np.linalg.qr(spanned, mode="complete")[0][:, spanned.shape[1]:]).T)
            else:
                flipped += list(v.T[lo:hi])
    interior.sort(key=lambda pair: -pair[0])
    return interior, flipped


def _self_check(a: Blade, b: Blade, thetas, frames, flipped) -> tuple[np.ndarray, float]:
    """(L, residual): L's coefficients, the unit wedge of flipped, and the coefficient
    norm of R unit(B) - unit(A) for the chain R of the planes (thetas, frames) and L,
    both signed so that R unit(B) leans toward unit(A); B is the smaller-grade blade."""
    sig = a.sig
    lowest = _unit_wedge(sig, flipped) if flipped else _one(sig.n)   # L = 1: nothing flipped
    unit_a = a.mv.coeffs / a.magnitude
    parity = b.grade & 1
    carried = _rotor_chain(sig, thetas, frames, flipped, _parity_half(sig, b.mv.coeffs, parity) / b.magnitude,
                           parity)
    # <carried reverse(unit_a)>_0: over Cl(n,0) the reverse signs square to 1
    if np.dot(carried, unit_a) < 0.0:
        lowest, carried = -lowest, -carried
    d = carried - unit_a
    return lowest, math.sqrt(np.dot(d, d))


def relative_angle(a: Blade, b: Blade) -> AngleReport:
    """Full relative-orientation report for two blades over Cl(n,0).

    The blades may have different grades; the larger-grade blade plays
    the role of A internally, which leaves the report unchanged under
    swapping. s and t are counted at ANGLE_COS_TOL, the oracle's cutoff.
    Raises AmbiguousRankError when the report would break its own
    invariants (see AngleReport and RESIDUAL_BOUND). See AngleReport for
    the layout of the result.
    """
    if a.sig != b.sig:
        raise SignatureMismatchError(f"{a.sig} vs {b.sig}")
    if not a.sig.is_euclidean:
        raise NonEuclideanError("relative angles are computed in Euclidean carriers")
    if a.magnitude == 0.0 or b.magnitude == 0.0:
        raise NotABladeError("zero blade")
    if a.grade < b.grade:
        a, b = b, a
    q, r, sig = a.grade - b.grade, b.grade, a.sig

    interior, flipped = _read_clusters(*_spectrum(a, b))
    t_exact, odd = divmod(len(flipped) - q, 2)
    s_exact = r - len(interior) - t_exact
    if odd or t_exact < 0 or s_exact < 0:
        raise AmbiguousRankError(
            f"{len(interior)} principal planes and {len(flipped)} reversed directions "
            f"do not fit blades of grades {a.grade} and {b.grade}")

    thetas, frames, planes = [], [], []
    for theta, frame in interior:
        frame.setflags(write=False)
        thetas.append(theta)
        frames.append(frame)
        planes.append(Multivector._of_finite(sig, _unit_wedge(sig, frame)))
    angles = [math.pi / 2.0] * t_exact + thetas + [0.0] * s_exact
    lowest, residual = _self_check(a, b, thetas, frames, flipped)

    # s on the versine 2 sin^2(theta/2) = 1 - cos theta, which keeps a small angle's digits
    s = t = 0
    cos_interior = sin_prod = 1.0
    for theta in angles:
        c = math.cos(theta)
        if c > ANGLE_COS_TOL:
            cos_interior *= c
        else:
            t += 1
        if 2.0 * math.sin(0.5 * theta) ** 2 > ANGLE_COS_TOL:
            sin_prod *= math.sin(theta)
        else:
            s += 1

    if (len(angles) != r or s + t > r or len(planes) != sum(0.0 < x < math.pi / 2.0 for x in angles)
            or not residual <= RESIDUAL_BOUND):
        raise AmbiguousRankError(
            f"report breaks its invariants: r={r}, {len(angles)} angles, s={s}, t={t}, "
            f"{len(planes)} planes, residual {residual:.3e} (bound {RESIDUAL_BOUND:g})")

    # one update of the instance dict: the frozen dataclass' __init__, which checks nothing,
    # would set each of the twelve fields through object.__setattr__
    report = object.__new__(AngleReport)
    report.__dict__.update(
        s=s,
        t=t,
        angles=tuple(angles),
        planes=tuple(planes),
        cos_total=0.0 if t > 0 else cos_interior,
        cos_interior=cos_interior,
        sin_interior_product=sin_prod,
        lowest_grade=len(flipped),
        residual=residual,
        has_equal_angles=any(x - y <= EQUAL_ANGLE_TOL for x, y in zip(thetas, thetas[1:])),
        lowest_blade=Multivector._of_finite(sig, lowest),
        plane_frames=tuple(frames),
    )
    return report


def rotor_reconstruction(report: AngleReport, norm_a: float, norm_b: float) -> Multivector:
    """Rebuild |A||B| (c_1 + i_1 s_1)...(c_k + i_k s_k) L from a report.

    One factor per plane, each with its interior angle (the angles
    strictly inside (0, pi/2)); the right-angle planes and any extra
    dimensions of the larger blade enter through L = report.lowest_blade.
    This is A reverse(B), with A the larger-grade operand of relative_angle:
    the rebuilt chain carries unit(B) onto unit(A) up to the report's residual.
    The chain (ga._rotor_chain) starts at |A||B| L as the report holds it and
    reads each plane's orthonormal (x, y) from report.plane_frames, with no
    eigensolve, so each factor acts as c X + s x (y X), at vector cost.
    """
    thetas = [theta for theta in report.angles if 0.0 < theta < math.pi / 2.0]
    sig, parity = report.lowest_blade.sig, report.lowest_grade & 1
    start = (norm_a * norm_b) * _parity_half(sig, report.lowest_blade.coeffs, parity)
    chain = _rotor_chain(sig, thetas, report.plane_frames, [], start, parity)
    return Multivector(sig, chain, _copy=False)
