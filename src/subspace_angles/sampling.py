"""Seeded random subspace-pair generation for self-tests and demos.

Spanning vectors are drawn from a uniform distribution; a fraction of
the pairs gets forced shared directions (vectors of B drawn inside
span A) and forced perpendicular directions (vectors of B orthogonal to
all of span A), so zero and right principal angles are exercised.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSpanError
from .oracle import orthonormal_basis


def sample_spans(rng: np.random.Generator):
    """Draw one random pair of spanning sets.

    Draws n in 2..8, the smaller grade rb in 1..min(4, n), the grade
    difference q and whether to force shared and perpendicular
    directions, in that order.
    Returns (a_rows, b_rows, meta) where a_rows spans the larger-grade
    subspace (grade rb + q) and meta records the draw.
    """
    n = int(rng.integers(2, 9))
    rb = int(rng.integers(1, min(4, n) + 1))
    q = int(rng.integers(0, min(2, n - rb) + 1))
    ra = rb + q
    force_shared = bool(rng.random() < 0.25)
    force_perp = bool(rng.random() < 0.25)

    shared = 0
    if force_shared:
        shared = int(rng.integers(1, min(2, rb) + 1))
    perp = 0
    perp_cap = min(2, rb - shared, n - ra)
    if force_perp and perp_cap >= 1:
        perp = int(rng.integers(1, perp_cap + 1))

    for _attempt in range(100):
        a_rows = rng.uniform(-1.0, 1.0, (ra, n))
        try:
            qa = orthonormal_basis(a_rows)
        except DegenerateSpanError:
            continue
        b_list = []
        degenerate = False
        for _ in range(shared):
            b_list.append(rng.uniform(-1.0, 1.0, ra) @ a_rows)
        for _ in range(perp):
            v = rng.uniform(-1.0, 1.0, n)
            v = v - qa.T @ (qa @ v)
            nrm = float(np.sqrt(v @ v))
            if nrm < 1e-6:
                degenerate = True
                break
            b_list.append(v / nrm)
        if degenerate:
            continue
        while len(b_list) < rb:
            b_list.append(rng.uniform(-1.0, 1.0, n))
        b_rows = np.array(b_list)
        rng.shuffle(b_rows)
        try:
            orthonormal_basis(b_rows)
        except DegenerateSpanError:
            continue
        meta = {"n": n, "ra": ra, "rb": rb, "q": q, "shared": shared, "perp": perp}
        return a_rows, b_rows, meta
    raise RuntimeError("failed to draw an independent spanning set")
