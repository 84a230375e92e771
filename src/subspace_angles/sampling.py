"""Seeded subspace pairs built from known principal angles.

Each principal angle is defined by a pair of principal vectors with
a_k . b_k = cos(theta_k) (Björck & Golub, 1973); run backwards, that
definition builds a pair whose angles are known. A random orthonormal
frame f_0..f_{n-1} gives A the basis f_0..f_{ra-1} and B the vectors
b_k = cos(theta_k) f_k + sin(theta_k) w_k, with w_k a fresh frame vector
for each angle off zero, so the theta_k are exactly the principal angles.
Each basis is then mixed by a random matrix of condition number <= 4.
"""

from __future__ import annotations

import math

import numpy as np

ZERO = (0.0, 1.0, 0.0)
RIGHT = (math.pi / 2, 0.0, 1.0)


def _mixed(rng: np.random.Generator, basis):
    """Rows spanning the same space, through a matrix of condition <= 4."""
    k = basis.shape[0]
    q1 = np.linalg.qr(rng.standard_normal((k, k)))[0]
    q2 = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (q1 * rng.uniform(0.5, 2.0, k)) @ q2 @ basis


def spans_from_angles(rng: np.random.Generator, n: int, q: int, drawn):
    """Spanning rows of A (grade len(drawn) + q) and B with the drawn angles.

    drawn holds (theta, cos theta, sin theta) per angle. An angle whose
    sine is 0.0 shares its frame vector with A; every other angle takes a
    fresh one, so n must cover len(drawn) + q plus those angles.
    """
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0]
    ra = len(drawn) + q
    spare = ra
    rows = []
    for k, (_, c, s) in enumerate(drawn):
        if s == 0.0:
            rows.append(frame[k])
        else:
            rows.append(c * frame[k] + s * frame[spare])
            spare += 1
    return _mixed(rng, frame[:ra]), _mixed(rng, np.array(rows))


def sample_spans(rng: np.random.Generator):
    """Draw one random pair of spanning sets with known angles.

    Draws n in 2..8, the smaller grade rb in 1..min(4, n), the grade
    difference q, then each of the rb angles as exactly zero (1 in 4),
    exactly right (1 in 4) or generic, uniform in [0.05, pi/2 - 0.05].
    An angle off zero takes one of the n - ra spare frame vectors; once
    they run out, the remaining angles are zero.
    Returns (a_rows, b_rows, meta) where a_rows spans the larger-grade
    subspace (grade ra = rb + q) and meta records the draw: n, ra, rb, q,
    the number of zero angles (shared), of right angles (perp) and the
    true angles in descending order (angles).
    """
    n = int(rng.integers(2, 9))
    rb = int(rng.integers(1, min(4, n) + 1))
    q = int(rng.integers(0, min(2, n - rb) + 1))
    ra = rb + q
    drawn = []
    for _ in range(rb):
        u = rng.random()
        if u < 0.25 or len(drawn) - drawn.count(ZERO) == n - ra:   # no spare frame vector left
            drawn.append(ZERO)
        elif u < 0.5:
            drawn.append(RIGHT)
        else:
            theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            drawn.append((theta, math.cos(theta), math.sin(theta)))
    a_rows, b_rows = spans_from_angles(rng, n, q, drawn)
    meta = {"n": n, "ra": ra, "rb": rb, "q": q, "shared": drawn.count(ZERO), "perp": drawn.count(RIGHT),
            "angles": sorted((theta for theta, _, _ in drawn), reverse=True)}
    return a_rows, b_rows, meta
