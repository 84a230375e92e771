"""Full relative-orientation of two subspace blades from one product A reverse(B).

For normalized blades of grades r+q and r the product M = A reverse(B)
carries everything at once:

  * the lowest nonzero grade equals 2t + q, so its grade reveals the
    perpendicularity count t, and its norm is the product of the
    interior cosines;
  * the top grade norm is the product of the interior sines;
  * dividing M by its lowest-grade part leaves a multivector with scalar
    part one whose bivector part is sum(tan(theta_k) i_k) over the
    strictly interior principal angles, with i_k the principal-plane
    unit bivectors;
  * splitting that bivector into orthogonal commuting simple parts
    recovers each angle and plane; whatever directions are left over
    are the s shared (zero-angle) directions.

Everything is reassembled into an AngleReport and self-checked by
rebuilding the product of rotors |A||B| (c_1 + i_1 s_1) ... (c_r + i_r s_r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blades import Blade
from .errors import AmbiguousRankError, NonEuclideanError, NotABladeError, SignatureMismatchError
from .ga import Multivector, wedge_vectors

# A graded part of the normalized product counts as zero below this norm.
GRADE_ZERO_TOL = 1e-9

# A principal angle counts as zero when its cosine is >= 1 - this value;
# matches the rule of oracle.rank_counts so both routes classify
# borderline angles the same way.
ZERO_ANGLE_COS_TOL = 1e-9
ZERO_ANGLE_MAX = math.acos(1.0 - ZERO_ANGLE_COS_TOL)

# Split coefficients below this (relative) floor are eigen-noise.
SPLIT_FLOOR = 1e-12

# Eigenvalues of the split within this relative distance count as equal.
EQUAL_ANGLE_TOL = 1e-8

# Two grade norms straddling GRADE_ZERO_TOL within this factor make the
# integer ranks ambiguous.
AMBIGUITY_FACTOR = 10.0


@dataclass(frozen=True)
class AngleReport:
    """Complete relative-orientation data for a pair of blades.

    angles holds all r = min(grade) principal angles in descending
    order: the t right angles first (exactly pi/2), then the interior
    angles, then the s zero angles. planes pairs one unit principal
    bivector with each angle the bivector split extracted, i.e. with
    angles[t : t + len(planes)]. Those can include angles at or below
    ZERO_ANGLE_MAX that s counts as zero, so s + t + len(planes) may
    exceed r. lowest_blade is the unit lowest-grade part of the
    normalized product; it carries the perpendicular principal planes
    (and, for blades of different grade, the extra dimensions of the
    larger blade) and is what rotor reconstruction multiplies the
    interior rotors by.
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


def _plane_from_pair(f: Multivector, u: np.ndarray, v: np.ndarray) -> tuple[float, Multivector]:
    """Unit simple bivector of span{u, v}, oriented so f's coefficient is >= 0."""
    plane = wedge_vectors(f.sig, (u, v))
    plane = plane / plane.coeff_norm()
    coeff = f.scalar_product(plane.reverse())
    if coeff < 0.0:
        plane = -plane
        coeff = -coeff
    return coeff, plane


def bivector_split(f: Multivector) -> list[tuple[float, Multivector]]:
    """Split a bivector into orthogonal commuting simple parts (Riesz).

    Returns [(beta_k, i_k)] with beta_k > 0 descending, i_k unit simple
    bivectors satisfying i_k^2 = -1, pairwise orthogonal and commuting,
    and sum(beta_k i_k) = f. The split is unique only for distinct
    coefficients; for coinciding ones any orthogonal choice inside the
    eigenspace is returned.
    """
    pairs, _ = _split_with_flag(f)
    return pairs


def _split_with_flag(f: Multivector):
    """bivector_split plus a flag for coinciding coefficients.

    Invariant planes come from the eigenvectors of the symmetric array
    -F^2 of the paired antisymmetric matrix F; coefficients are refined
    by projecting f onto each plane, and extraction runs in rounds from
    the largest scale down so widely separated coefficients stay
    resolvable.
    """
    if f.grades(tol=0.0) not in ([], [2]):
        raise NotABladeError(f"bivector_split needs a pure bivector, grades {f.grades()}")
    if not f.sig.is_euclidean:
        raise NonEuclideanError("bivector split implemented for Euclidean signature")

    remaining = _bivector_matrix(f)
    coeff_floor = SPLIT_FLOOR * max(1.0, float(np.max(np.abs(remaining))))

    result: list[tuple[float, Multivector]] = []
    equal_flag = False
    n = f.sig.n
    for _round in range(n // 2 + 1):
        # lam_max <= |remaining|_F^2 / 2 (eigenvalues come in pairs), so this
        # round would break below without needing eigh
        if float(np.sum(remaining * remaining)) <= 0.5 * coeff_floor * coeff_floor:
            break
        smat = remaining @ remaining.T
        w, vecs = np.linalg.eigh(smat)
        lam_max = float(w[-1])
        if lam_max <= coeff_floor * coeff_floor:
            break
        # only trust eigenvalues well above this round's noise floor
        gate = max(lam_max * 1e-10, coeff_floor * coeff_floor)
        sel = np.flatnonzero(w > gate)
        if sel.size == 0:
            break
        # cluster selected eigenvalues (they come in pairs per plane)
        order = sel[np.argsort(-w[sel])]
        clusters: list[list[int]] = []
        for idx in order:
            if clusters and abs(w[idx] - w[clusters[-1][0]]) <= EQUAL_ANGLE_TOL * max(1.0, lam_max):
                clusters[-1].append(int(idx))
            else:
                clusters.append([int(idx)])
        extracted = 0
        for cluster in clusters:
            space = vecs[:, cluster]
            if len(cluster) > 2:
                equal_flag = True
            while space.shape[1] >= 2:
                u = space[:, 0]
                wvec = remaining @ u
                beta_est = math.sqrt(float(wvec @ wvec))
                if beta_est <= coeff_floor:
                    break
                v = wvec / beta_est
                v = v - (v @ u) * u
                v = v / math.sqrt(float(v @ v))
                beta, plane = _plane_from_pair(f, u, v)
                if beta > coeff_floor:
                    result.append((beta, plane))
                    remaining = remaining - beta * _bivector_matrix(plane)
                    extracted += 1
                # deflate the cluster space against u, v
                space = space - np.outer(u, u @ space) - np.outer(v, v @ space)
                keep = []
                for col in range(space.shape[1]):
                    c = space[:, col]
                    for kc in keep:
                        c = c - (c @ kc) * kc
                    nrm = math.sqrt(float(c @ c))
                    if nrm > 1e-6:
                        keep.append(c / nrm)
                space = np.array(keep).T if keep else np.zeros((n, 0))
        if extracted == 0:
            break

    result.sort(key=lambda p: -p[0])
    return result, equal_flag


def _classify_grades(norms: dict[int, float], tol: float) -> list[int]:
    """Grades whose norm clears tol; raises when the cut is ambiguous."""
    above = {k: v for k, v in norms.items() if v > tol}
    below = {k: v for k, v in norms.items() if v <= tol}
    if not above:
        raise NotABladeError("product has no grade part above tolerance")
    if below:
        lo = min(above.values())
        hi = max(below.values())
        if hi > 0.0 and lo / hi < AMBIGUITY_FACTOR:
            raise AmbiguousRankError(
                f"grade norms {hi:.3e} and {lo:.3e} straddle the zero "
                f"threshold {tol:.1e} within a factor {AMBIGUITY_FACTOR}"
            )
    return sorted(above)


def relative_angle(a: Blade, b: Blade, *, grade_tol: float = GRADE_ZERO_TOL) -> AngleReport:
    """Full relative-orientation report for two blades over Cl(n,0).

    The blades may have different grades; the larger-grade blade plays
    the role of A internally, which leaves the report unchanged under
    swapping. See AngleReport for the layout of the result.
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

    m = a.unit() * b.unit().reverse()
    norms = m.grade_norms()
    present = _classify_grades(norms, grade_tol)

    lowest = present[0]
    top = present[-1]
    if (lowest - q) % 2 != 0 or lowest < q:
        raise AmbiguousRankError(f"lowest grade {lowest} incompatible with grade gap {q}")
    t = (lowest - q) // 2
    c_int = norms[lowest]
    sin_prod = norms[top]

    lowest_part = m.grade(lowest)
    lowest_unit = lowest_part / c_int
    # bivector part of M divided by its lowest-grade part (blade inverse = reverse / |.|^2)
    divided = m.grade_product(lowest_part.reverse(), 2) / (c_int * c_int)
    pairs, equal_flag = _split_with_flag(divided)

    interior: list[tuple[float, Multivector]] = []
    for beta, plane in pairs:
        interior.append((math.atan(beta), plane))

    strictly_interior = sum(1 for theta, _ in interior if theta > ZERO_ANGLE_MAX)
    s = r - t - strictly_interior

    angles = [math.pi / 2.0] * t
    angles += [theta for theta, _ in interior]
    angles += [0.0] * (r - t - len(interior))
    planes = tuple(plane for _, plane in interior)

    rebuilt = _rotor_chain(1.0, angles[t:], planes, lowest_unit)
    residual = (rebuilt - m).coeff_norm()

    return AngleReport(
        s=s,
        t=t,
        angles=tuple(angles),
        planes=planes,
        cos_total=0.0 if t > 0 else c_int,
        cos_interior=c_int,
        sin_interior_product=sin_prod,
        lowest_grade=lowest,
        residual=residual,
        has_equal_angles=equal_flag,
        lowest_blade=lowest_unit,
    )


def rotor_reconstruction(report: AngleReport, norm_a: float, norm_b: float) -> Multivector:
    """Rebuild |A||B| (c_1 + i_1 s_1)...(c_r + i_r s_r) from a report.

    The t pure-perpendicular factors and any extra dimensions of the
    larger blade enter through report.lowest_blade. Matches
    A reverse(B), with A the larger-grade operand of relative_angle,
    up to the report's residual.
    """
    return _rotor_chain(norm_a * norm_b, report.angles[report.t:], report.planes,
                        report.lowest_blade)


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
