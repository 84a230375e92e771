"""Seeded inputs with the answer built in.

Nothing here imports the package under test, so a change to the
package (its `sampling` module included) cannot change a workload.

A pair is made from its principal angles: a random orthonormal frame
f_0..f_{n-1} gives A the basis f_0..f_{ra-1}; B gets
b_k = cos(theta_k) f_k + sin(theta_k) w_k with w_k a fresh frame
vector, so theta_k are exactly the principal angles.  Each basis is
then mixed by a random matrix of condition number <= 4, so the
spanning vectors are neither orthonormal nor aligned with the frame.

Conformal objects of Cl(n+1,1) are wedges of conformal vectors.  The
coefficient of a wedge of m vectors on the basis blade e_S is the
m x m minor of their coordinate matrix on the columns S, which holds
in any metric because the outer product does not use it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# The oracle's classification rule: cos >= 1 - ZERO_COS counts as a zero
# angle and cos <= RIGHT_COS as a right angle.
ZERO_COS = 1e-9
RIGHT_COS = 1e-9
# Near-threshold angles keep the classified quantity (1 - cos near zero,
# cos near pi/2) at least this factor away from the 1e-9 cutoff.
CUTOFF_MARGIN = 10.0
GENERIC_MARGIN = 0.05  # generic angles lie in [0.05, pi/2 - 0.05]
REPRODUCER_EPS = (3e-5, 1e-5)


@dataclass(frozen=True)
class Pair:
    """Two spanning sets and the principal angles between their spans."""

    a_rows: np.ndarray      # (ra, n)
    b_rows: np.ndarray      # (rb, n), rb <= ra
    angles: tuple           # rb true angles, descending
    cosines: tuple          # their cosines, computed without cancellation
    kinds: tuple            # the kind each angle was drawn as
    label: str

    @property
    def r(self) -> int:
        return len(self.angles)

    @property
    def s(self) -> int:
        return sum(c >= 1.0 - ZERO_COS for c in self.cosines)

    @property
    def t(self) -> int:
        return sum(c <= RIGHT_COS for c in self.cosines)

    @property
    def near_threshold(self) -> bool:
        return any(k.startswith("near") for k in self.kinds)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _mix(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Rows spanning the same space, through a matrix of condition <= 4."""
    k = basis.shape[0]
    m = (_orthogonal(rng, k) * rng.uniform(0.5, 2.0, k)) @ _orthogonal(rng, k)
    return m @ basis


def _log_uniform_off_cutoff(rng: np.random.Generator, classified) -> float:
    """eps log-uniform in [1e-12, 1e-3] with classified(eps) >= 10x from 1e-9."""
    while True:
        eps = 10.0 ** rng.uniform(-12.0, -3.0)
        x = classified(eps)
        if x <= ZERO_COS / CUTOFF_MARGIN or x >= ZERO_COS * CUTOFF_MARGIN:
            return eps


def draw_angle(rng: np.random.Generator, kind: str) -> tuple[float, float, float]:
    """(theta, cos theta, sin theta) for one angle of the given kind."""
    if kind == "zero":
        return 0.0, 1.0, 0.0
    if kind == "right":
        return math.pi / 2, 0.0, 1.0
    if kind == "generic":
        theta = rng.uniform(GENERIC_MARGIN, math.pi / 2 - GENERIC_MARGIN)
        return theta, math.cos(theta), math.sin(theta)
    if kind == "near_zero":
        d = _log_uniform_off_cutoff(rng, lambda e: 2.0 * math.sin(e / 2) ** 2)
        return d, math.cos(d), math.sin(d)
    if kind == "near_right":
        e = _log_uniform_off_cutoff(rng, math.sin)
        return math.pi / 2 - e, math.sin(e), math.cos(e)
    raise ValueError(kind)


def pair_from_angles(rng, n: int, ra: int, rb: int, kinds, label: str = "") -> Pair:
    """A pair with the given angle kinds; needs ra + #(nonzero kinds) <= n."""
    frame = _orthogonal(rng, n)
    a_basis = frame[:ra]
    spare = ra
    b_basis, drawn = [], []
    for k, kind in enumerate(kinds):
        theta, c, s = draw_angle(rng, kind)
        if kind == "zero":
            b_basis.append(a_basis[k])
        else:
            b_basis.append(c * a_basis[k] + s * frame[spare])
            spare += 1
        drawn.append((theta, c, kind))
    assert spare <= n and len(drawn) == rb
    drawn.sort(key=lambda d: -d[0])
    return Pair(a_rows=_mix(rng, a_basis), b_rows=_mix(rng, np.array(b_basis)),
                angles=tuple(d[0] for d in drawn), cosines=tuple(d[1] for d in drawn),
                kinds=tuple(d[2] for d in drawn), label=label)


def _draw_kinds(rng, rb: int, room: int, weights: dict) -> list[str]:
    """rb angle kinds; once the n - ra spare directions run out, angles are zero."""
    names = list(weights)
    p = np.array([weights[k] for k in names], dtype=float)
    kinds = []
    for _ in range(rb):
        kind = names[rng.choice(len(names), p=p / p.sum())] if room > 0 else "zero"
        if kind != "zero":
            room -= 1
        kinds.append(kind)
    return kinds


def reproducer(eps: float) -> Pair:
    """A = span(e1, e2), B = span(eps e1 + e3, eps e2 + e4): both angles pi/2 - atan(eps)."""
    a = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    b = np.array([[eps, 0, 1.0, 0], [0, eps, 0, 1.0]])
    c = eps / math.sqrt(1.0 + eps * eps)
    theta = math.atan2(1.0, eps)
    return Pair(a_rows=a, b_rows=b, angles=(theta, theta), cosines=(c, c),
                kinds=("near_right", "near_right"), label=f"reproducer eps={eps:g}")


# Angle kinds and their weights; only corpus_small has near-threshold angles.
SMALL_KINDS = {"generic": 0.4, "zero": 0.15, "right": 0.15, "near_zero": 0.15, "near_right": 0.15}
PER_CELL = 20   # corpus_small pairs per (n, grade A, grade B) cell


def _cells(ns, grades, max_gap):
    for n in ns:
        for rb in grades:
            for ra in range(rb, min(rb + max_gap, grades[-1], n) + 1):
                yield n, ra, rb


def corpus_small(seed: int) -> list[Pair]:
    """n = 2..8, grades 1..4, gap 0..2, plus the two fixed reproducers."""
    rng = np.random.default_rng([seed, 1])
    pairs = [reproducer(eps) for eps in REPRODUCER_EPS]
    for n, ra, rb in _cells(range(2, 9), range(1, 5), 2):
        for i in range(PER_CELL):
            kinds = _draw_kinds(rng, rb, n - ra, SMALL_KINDS)
            pairs.append(pair_from_angles(rng, n, ra, rb, kinds, f"n={n} ra={ra} rb={rb} #{i}"))
    return pairs


def _profile_kinds(rb: int, room: int, first: str) -> list[str]:
    """`first`, then generic angles; zeros where the n - ra spare directions run out."""
    kinds = [first] + ["generic"] * (rb - 1)
    for k in range(rb - 1, -1, -1):
        if sum(kind != "zero" for kind in kinds) <= room:
            break
        kinds[k] = "zero"
    return kinds


def wide_dense(seed: int) -> list[Pair]:
    """n = 10..12, grades 3..6, gap 0..1.

    Each cell has a generic pair, one with a forced shared direction and
    one with a forced perpendicular direction, so the cost of the mix
    does not depend on the seed.
    """
    rng = np.random.default_rng([seed, 2])
    return [pair_from_angles(rng, n, ra, rb, _profile_kinds(rb, n - ra, first),
                             f"n={n} ra={ra} rb={rb} {first}")
            for n, ra, rb in _cells(range(10, 13), range(3, 7), 1)
            for first in ("generic", "zero", "right")]


# ---- problem documents for the command line -------------------------------

def blade_name(indices) -> str:
    """The package's basis-blade name for 1-based indices (all <= 9 here)."""
    return "e" + "".join(str(i) for i in indices)


def wedge_map(vectors: np.ndarray) -> dict[str, float]:
    """v_1 ^ ... ^ v_m as a sparse blade-name map, one minor per blade."""
    m, dim = vectors.shape
    out = {}
    for cols in itertools.combinations(range(dim), m):
        c = float(np.linalg.det(vectors[:, cols]))
        if c != 0.0:
            out[blade_name(i + 1 for i in cols)] = c
    return out


def conformal_point(x: np.ndarray) -> np.ndarray:
    """e_o + x + |x|^2/2 e_inf in the basis e_1..e_n, e_plus, e_minus."""
    h = 0.5 * float(x @ x)
    return np.concatenate([x, [h - 0.5, h + 0.5]])


def conformal_object(rng, directions: np.ndarray, kind: str) -> dict[str, float]:
    """A flat or round whose Euclidean carrier is span(directions)."""
    k, n = directions.shape
    p = rng.uniform(-1.0, 1.0, n)
    if kind == "flat":
        e_inf = np.zeros(n + 2)
        e_inf[n:] = 1.0
        lifted = np.hstack([directions, np.zeros((k, 2))])
        vectors = np.vstack([conformal_point(p), lifted, e_inf])
    else:  # round through p and p + d_i: its carrier flat has the d_i as directions
        vectors = np.array([conformal_point(p)] + [conformal_point(p + d) for d in directions])
    return wedge_map(vectors)


@dataclass(frozen=True)
class Problem:
    """One CLI problem document and the pair it was made from."""

    name: str
    doc: dict
    pair: Pair


def euclidean_problems(seed: int) -> list[Problem]:
    """Two documents for each n = 3..8, ordered so each run of three costs about the same.

    Grades and angle kinds follow from n alone, so the seed changes values, not costs.
    """
    rng = np.random.default_rng([seed, 3])
    out = []
    for i, first in enumerate(("zero", "right")):
        for n in (3, 5, 7, 4, 6, 8):
            rb = min(1 + (n + i) % 4, n - 1)
            ra = min(rb + (n + i) % 3, n)
            pair = pair_from_angles(rng, n, ra, rb, _profile_kinds(rb, n - ra, first))
            out.append(Problem(f"euclid_n{n}_{i}.json", {
                "n": n, "A": pair.a_rows.tolist(), "B": pair.b_rows.tolist()}, pair))
    return out


def conformal_problems(seed: int) -> list[Problem]:
    """Two documents for each n = 3..6: a flat against a round and a round against a flat,
    of direction grades 1..3 that follow from n alone."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for i, (first, kinds) in enumerate((("generic", ("flat", "round")),
                                        ("right", ("round", "flat")))):
        for n in range(3, 7):
            rb = min(1 + (n + i) % 3, n - 1)
            ra = min(rb + (n + i) % 2, n - 1)
            pair = pair_from_angles(rng, n, ra, rb, _profile_kinds(rb, n - ra, first))
            doc = {"n": n, "A": conformal_object(rng, pair.a_rows, kinds[0]),
                   "B": conformal_object(rng, pair.b_rows, kinds[1])}
            out.append(Problem(f"conformal_n{n}_{i}.json", doc, pair))
    return out
