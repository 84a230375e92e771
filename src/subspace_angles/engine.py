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
frame F its blade carries (see Blade), splits S = (O + O^T)/2 into
clusters of equal cos 2 theta and each cluster by the rotation rates of
K = (O - O^T)/2, and takes every angle as
theta = atan2(sin 2 theta, cos 2 theta) / 2, which is as accurate near 0
as near pi/2 (Knyazev & Argentati, 2002). No grade of M is thresholded:
s and t count the angles by the oracle's per-angle rule. M, formed from
the blades' coefficients, is the self-check: its distance from the rebuilt
rotor chain (c_1 + i_1 s_1) ... L, the residual, also ties frames to blades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blades import Blade
from .errors import AmbiguousRankError, NonEuclideanError, NotABladeError, SignatureMismatchError
from .ga import Multivector, wedge_vectors

# A principal angle counts as zero when its cosine is >= 1 - this value and
# as right when its cosine is <= this value; the rule of oracle.rank_counts,
# so both routes classify borderline angles the same way.
ANGLE_COS_TOL = 1e-9

# Rotation rates (split coefficients, relative to the largest) at or below
# this floor are rounding noise: those directions lie in no plane.
SPLIT_FLOOR = 1e-12

# Values of cos 2 theta within this distance share a cluster, and interior
# angles within it count as equal.
EQUAL_ANGLE_TOL = 1e-8

# A report whose rotor chain misses M by more than this is not returned.
RESIDUAL_BOUND = 1e-6


@dataclass(frozen=True)
class AngleReport:
    """Complete relative-orientation data for a pair of blades.

    angles holds all r = min(grade) principal angles in descending
    order: the directions at a right angle (exactly pi/2) first, then
    the interior angles strictly inside (0, pi/2), then the shared
    directions (exactly 0.0). planes pairs one unit principal bivector
    with each interior angle, in the same order. s and t count the
    angles whose cosine is within grade_tol of 1 and of 0, so a
    near-zero or near-right interior angle is counted there and still
    has its computed value and its plane. lowest_blade is the unit
    blade of the directions O sends to their negatives: the right-angle
    planes plus, for blades of different grade, the extra dimensions of
    the larger blade; lowest_grade is its grade. Rotor reconstruction
    multiplies the interior rotors by it. cos_interior multiplies the
    cosines of the angles t does not count, sin_interior_product the
    sines of the angles s does not count, and cos_total is cos_interior,
    or 0.0 when t > 0.
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


@lru_cache(maxsize=None)
def _bivector_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs i < j of R^n and the masks of their basis bivectors e_i ^ e_j."""
    i, j = np.triu_indices(n, 1)
    masks = (1 << i) | (1 << j)
    for arr in (i, j, masks):
        arr.setflags(write=False)
    return i, j, masks


def _bivector_matrix(f: Multivector) -> np.ndarray:
    """Antisymmetric n x n array paired with a bivector's coefficients."""
    n = f.sig.n
    i, j, masks = _bivector_layout(n)
    c = f.coeffs[masks]
    mat = np.zeros((n, n))
    # + 0.0 and 0.0 - c make every zero entry +0.0, whatever the sign of a zero coefficient
    mat[i, j] = c + 0.0
    mat[j, i] = 0.0 - c
    return mat


def _planes(k: np.ndarray, floor: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Orthonormal pairs (x, y) spanning the invariant planes of the
    antisymmetric array k whose rotation rate exceeds floor, fastest first.

    One Hermitian eigh of i k: an eigenvector x + i y of a nonzero
    eigenvalue has x orthogonal to y and |x| = |y|, and eigenvectors of
    one repeated eigenvalue give mutually orthogonal planes, so
    coinciding rates need no further care. Rates are bounded by
    |k|_F / sqrt(2), which decides most calls without the eigh, and a
    2 x 2 array above the floor is one plane.
    """
    if float(np.sum(k * k)) <= 2.0 * floor * floor:
        return []
    if k.shape[0] == 2:
        return [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    w, z = np.linalg.eigh(1j * k)
    out = []
    for j in np.flatnonzero(w > floor)[::-1]:
        x, y = z[:, j].real, z[:, j].imag
        x = x / math.sqrt(float(x @ x))
        y = y - (y @ x) * x
        out.append((x, y / math.sqrt(float(y @ y))))
    return out


def _unit_wedge(sig, rows) -> Multivector:
    """rows[0] ^ ... ^ rows[k-1], scaled to unit coefficient norm."""
    blade = wedge_vectors(sig, rows)
    return blade / blade.coeff_norm()


def _plane_from_pair(f: Multivector, u: np.ndarray, v: np.ndarray) -> tuple[float, Multivector]:
    """Unit simple bivector of span{u, v}, oriented so f's coefficient is >= 0."""
    plane = _unit_wedge(f.sig, (u, v))
    coeff = f.scalar_product(plane.reverse())
    if coeff < 0.0:
        plane = -plane
        coeff = -coeff
    return coeff, plane


def bivector_split(f: Multivector) -> list[tuple[float, Multivector]]:
    """Split a bivector into orthogonal commuting simple parts (Riesz).

    Returns [(beta_k, i_k)] with beta_k > 0 descending, i_k unit simple
    bivectors satisfying i_k^2 = -1, pairwise orthogonal and commuting,
    and sum(beta_k i_k) = f. The planes are the invariant planes of the
    paired antisymmetric matrix, from one Hermitian eigh, and each
    beta_k is f projected onto its plane. Coefficients at or below
    SPLIT_FLOOR times the largest entry are dropped. The split is unique
    only for distinct coefficients; for coinciding ones any orthogonal
    choice inside the eigenspace is returned.
    """
    if f.grades(tol=0.0) not in ([], [2]):
        raise NotABladeError(f"bivector_split needs a pure bivector, grades {f.grades()}")
    if not f.sig.is_euclidean:
        raise NonEuclideanError("bivector split implemented for Euclidean signature")
    mat = _bivector_matrix(f)
    floor = SPLIT_FLOOR * max(1.0, float(np.max(np.abs(mat))))
    parts = [_plane_from_pair(f, x, y) for x, y in _planes(mat, floor)]
    return sorted((p for p in parts if p[0] > floor), key=lambda p: -p[0])


def _clusters(w: np.ndarray) -> list[np.ndarray]:
    """Runs of the ascending values w whose neighbours lie within EQUAL_ANGLE_TOL."""
    return np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > EQUAL_ANGLE_TOL) + 1)


def relative_angle(a: Blade, b: Blade, *, grade_tol: float = ANGLE_COS_TOL) -> AngleReport:
    """Full relative-orientation report for two blades over Cl(n,0).

    The blades may have different grades; the larger-grade blade plays
    the role of A internally, which leaves the report unchanged under
    swapping. grade_tol, in (0, 1), is the per-angle cutoff of s and t.
    Raises AmbiguousRankError when the report would break its own
    invariants (see AngleReport and RESIDUAL_BOUND). See AngleReport for
    the layout of the result.
    """
    if a.sig != b.sig:
        raise SignatureMismatchError(f"{a.sig} vs {b.sig}")
    if not a.sig.is_euclidean:
        raise NonEuclideanError("relative angles are computed in Euclidean carriers")
    if not 0.0 < grade_tol < 1.0:
        raise ValueError(f"grade_tol must lie in (0, 1), got {grade_tol!r}")
    if a.magnitude == 0.0 or b.magnitude == 0.0:
        raise NotABladeError("zero blade")
    if a.grade < b.grade:
        a, b = b, a
    q = a.grade - b.grade
    r = b.grade
    sig = a.sig

    eye = np.eye(sig.n)
    o = (2.0 * (a.frame.T @ a.frame) - eye) @ (2.0 * (b.frame.T @ b.frame) - eye)
    skew = 0.5 * (o - o.T)
    w, v = np.linalg.eigh(0.5 * (o + o.T))
    pairs = []      # orthonormal (x, y) of each principal plane
    flipped = []    # directions O sends to their negatives: L's
    for idx in _clusters(w):
        basis = v[:, idx]
        local = _planes(basis.T @ skew @ basis, SPLIT_FLOOR)
        pairs += [(basis @ x, basis @ y) for x, y in local]
        if w[idx[0]] < 0.0:
            if local:
                spanned = np.column_stack([u for pair in local for u in pair])
                basis = basis @ np.linalg.qr(spanned, mode="complete")[0][:, spanned.shape[1]:]
            flipped += list(basis.T)

    t_exact, odd = divmod(len(flipped) - q, 2)
    s_exact = r - len(pairs) - t_exact
    if odd or t_exact < 0 or s_exact < 0:
        raise AmbiguousRankError(
            f"{len(pairs)} principal planes and {len(flipped)} reversed directions "
            f"do not fit blades of grades {a.grade} and {b.grade}")

    interior = []
    for x, y in pairs:
        ox = o @ x
        turn = float(y @ ox)
        if turn > 0.0:          # orient the plane so that O turns y toward x
            y = -y
        interior.append((0.5 * math.atan2(abs(turn), float(x @ ox)), _unit_wedge(sig, (x, y))))
    interior.sort(key=lambda pair: -pair[0])
    thetas = [theta for theta, _ in interior]
    planes = tuple(plane for _, plane in interior)
    angles = [math.pi / 2.0] * t_exact + thetas + [0.0] * s_exact

    lowest = _unit_wedge(sig, flipped) if flipped else Multivector.scalar(sig, 1.0)
    m = a.unit() * b.unit().reverse()
    rebuilt = _rotor_chain(1.0, thetas, planes, lowest)
    if rebuilt.scalar_product(m.reverse()) < 0.0:
        lowest, rebuilt = -lowest, -rebuilt
    residual = (rebuilt - m).coeff_norm()

    cosines = [math.cos(theta) for theta in angles]
    s = sum(c >= 1.0 - grade_tol for c in cosines)
    t = sum(c <= grade_tol for c in cosines)
    cos_interior = math.prod((c for c in cosines if c > grade_tol), start=1.0)
    sin_prod = math.prod((math.sin(theta) for theta, c in zip(angles, cosines)
                          if c < 1.0 - grade_tol), start=1.0)

    if (len(angles) != r or s + t > r or len(planes) != sum(0.0 < x < math.pi / 2.0 for x in angles)
            or not residual <= RESIDUAL_BOUND):
        raise AmbiguousRankError(
            f"report breaks its invariants: r={r}, {len(angles)} angles, s={s}, t={t}, "
            f"{len(planes)} planes, residual {residual:.3e} (bound {RESIDUAL_BOUND:g})")

    return AngleReport(
        s=s,
        t=t,
        angles=tuple(angles),
        planes=planes,
        cos_total=0.0 if t > 0 else cos_interior,
        cos_interior=cos_interior,
        sin_interior_product=sin_prod,
        lowest_grade=len(flipped),
        residual=residual,
        has_equal_angles=any(x - y <= EQUAL_ANGLE_TOL for x, y in zip(thetas, thetas[1:])),
        lowest_blade=lowest,
    )


def rotor_reconstruction(report: AngleReport, norm_a: float, norm_b: float) -> Multivector:
    """Rebuild |A||B| (c_1 + i_1 s_1)...(c_k + i_k s_k) L from a report.

    One factor per plane, each with its interior angle (the angles
    strictly inside (0, pi/2)); the right-angle planes and any extra
    dimensions of the larger blade enter through L = report.lowest_blade.
    Matches A reverse(B), with A the larger-grade operand of
    relative_angle, up to the report's residual.
    """
    thetas = [theta for theta in report.angles if 0.0 < theta < math.pi / 2.0]
    return _rotor_chain(norm_a * norm_b, thetas, report.planes, report.lowest_blade)


def _rotor_chain(scale: float, angles, planes, lowest_blade: Multivector) -> Multivector:
    """scale (c_1 + i_1 s_1)...(c_k + i_k s_k) lowest_blade, one factor per plane.

    The chain starts from its first factor x as x * scale + 0.0, which
    has the bytes of the product scalar(scale) * x.
    """
    sig = lowest_blade.sig
    factors = [Multivector.scalar(sig, math.cos(theta)) + plane * math.sin(theta)
               for theta, plane in zip(angles, planes)]
    factors.append(lowest_blade)
    out = Multivector(sig, factors[0].coeffs * scale + 0.0, _copy=False)
    for factor in factors[1:]:
        out = out * factor
    return out
