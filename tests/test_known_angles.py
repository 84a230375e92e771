"""Pairs built from known principal angles, drawn with hypothesis.

`sampling.spans_from_angles` builds each pair: a random orthonormal frame
f_0..f_{n-1} gives A the basis f_0..f_{ra-1} and B the vectors
b_k = cos(theta_k) f_k + sin(theta_k) w_k, with w_k a fresh frame vector,
so the theta_k are exactly the principal angles; each basis is then mixed
by a random matrix of condition number <= 4.
Offsets from 0 and pi/2 run from 1e-12 to 1e-3 and keep the classified
quantity (1 - cos near zero, cos near pi/2) at least 10x from the 1e-9
cutoff, so the true s and t are unambiguous. Two tests place one angle
right at either cutoff instead, where only the classified quantity of
each route decides, and check both routes' counts against the truth.
An edge search draws angles next to each other and to 0 and pi/2 and lets
hypothesis steer toward the largest residual and angle error.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from subspace_angles.blades import blade_from_spanning_vectors
from subspace_angles.engine import SPLIT_FLOOR, relative_angle, rotor_reconstruction
from subspace_angles.oracle import orthonormal_basis, principal_angles, rank_counts
from subspace_angles.sampling import spans_from_angles

CUTOFF = 1e-9
MARGIN = 10.0
KINDS = ("zero", "right", "generic", "near_zero", "near_right")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def off_cutoff(x: float) -> bool:
    return x <= CUTOFF / MARGIN or x >= CUTOFF * MARGIN


@st.composite
def angle(draw, kind):
    """(theta, cos theta, sin theta) of one angle of the given kind."""
    if kind == "zero":
        return 0.0, 1.0, 0.0
    if kind == "right":
        return math.pi / 2, 0.0, 1.0
    if kind == "generic":
        theta = draw(st.floats(0.05, math.pi / 2 - 0.05))
        return theta, math.cos(theta), math.sin(theta)
    eps = 10.0 ** draw(st.floats(-12.0, -3.0))
    if kind == "near_zero":
        assume(off_cutoff(2.0 * math.sin(eps / 2.0) ** 2))
        return eps, math.cos(eps), math.sin(eps)
    assume(off_cutoff(math.sin(eps)))
    return math.pi / 2 - eps, math.sin(eps), math.cos(eps)


@st.composite
def known_pairs(draw, kinds=st.sampled_from(KINDS)):
    """(A rows, B rows, [(theta, cos, sin)]) with 1..4 angles and grade gap 0..2."""
    drawn = draw(st.lists(kinds.flatmap(angle), min_size=1, max_size=4))
    q = draw(st.integers(0, 2))
    needed = len(drawn) + q + sum(s != 0.0 for _, _, s in drawn)
    n = draw(st.integers(max(needed, 2), 10))
    a_rows, b_rows = spans_from_angles(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, q, drawn)
    return a_rows, b_rows, drawn


def check(a_rows, b_rows, drawn):
    """The report against the truth; returns it."""
    a = blade_from_spanning_vectors(a_rows)
    b = blade_from_spanning_vectors(b_rows)
    rep = relative_angle(a, b)
    truth = sorted(drawn, reverse=True)
    assert len(rep.angles) == len(truth)
    for got, (theta, _, _) in zip(rep.angles, truth):
        assert abs(got - theta) <= 1e-8
    assert rep.s == sum(c >= 1.0 - CUTOFF for _, c, _ in truth)
    assert rep.t == sum(c <= CUTOFF for _, c, _ in truth)
    # exact zeros and right angles come back exact; every other angle keeps its value
    assert rep.angles.count(0.0) == sum(s == 0.0 for _, _, s in truth)
    assert rep.angles.count(math.pi / 2) == sum(c == 0.0 for _, c, _ in truth)
    assert len(rep.planes) == sum(0.0 < x < math.pi / 2 for x in rep.angles)
    rebuilt = rotor_reconstruction(rep, a.magnitude, b.magnitude)
    assert (rebuilt - a.mv * b.mv.reverse()).coeff_norm() <= 1e-8 * a.magnitude * b.magnitude
    return rep


@SETTINGS
@given(known_pairs())
def test_known_angles(pair):
    check(*pair)


@SETTINGS
@given(known_pairs(kinds=st.sampled_from(("zero", "right"))))
def test_exact_zero_and_right_angles(pair):
    rep = check(*pair)
    assert rep.planes == ()


@SETTINGS
@given(known_pairs(kinds=st.sampled_from(("near_zero", "near_right"))))
def test_offsets_from_zero_and_right(pair):
    check(*pair)


@SETTINGS
@given(st.sampled_from(("near_zero", "near_right")).flatmap(angle),
       st.sampled_from(("near_zero", "near_right")).flatmap(angle),
       st.integers(0, 2**32 - 1))
def test_near_zero_and_near_right_in_one_pair(low, high, seed):
    assume(low[0] < math.pi / 4 < high[0])
    a_rows, b_rows = spans_from_angles(np.random.default_rng(seed), 6, 1, [low, high])
    check(a_rows, b_rows, [low, high])


@SETTINGS
@given(st.sampled_from(("generic", "near_zero", "near_right")).flatmap(angle),
       st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_equal_angle_clusters_set_the_flag(theta, times, seed):
    drawn = [theta] * times
    a_rows, b_rows = spans_from_angles(np.random.default_rng(seed), 2 * times + 1, 1, drawn)
    rep = check(a_rows, b_rows, drawn)
    assert len(rep.planes) == times
    assert rep.has_equal_angles


@pytest.mark.parametrize("eps", [3e-5, 1e-5])
def test_reproducers(eps):
    a_rows = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    b_rows = np.array([[eps, 0, 1.0, 0], [0, eps, 0, 1.0]])
    theta = math.atan2(1.0, eps)
    c = eps / math.sqrt(1.0 + eps * eps)
    rep = check(a_rows, b_rows, [(theta, c, 1.0 / math.sqrt(1.0 + eps * eps))] * 2)
    assert (rep.s, rep.t, len(rep.planes)) == (0, 0, 2)
    assert rep.has_equal_angles
    assert rep.residual <= 1e-12


def both_counts(a_rows, b_rows):
    """(s, t) of the engine and of the oracle for one pair of spans."""
    rep = relative_angle(blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows))
    return (rep.s, rep.t), rank_counts(principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows)))


@pytest.mark.parametrize("d", [-1e-8, 1e-8])
def test_zero_cutoff_by_construction(d):
    # 1 - cos theta = CUTOFF (1 + d): a cosine near 1 resolves 1 - cos only to 1.1e-16,
    # 1.1e-7 of the cutoff, so both routes count s on the versine of their own angle
    theta = 2.0 * math.asin(math.sqrt(CUTOFF * (1.0 + d) / 2.0))
    drawn = [(theta, math.cos(theta), math.sin(theta)), (0.7, math.cos(0.7), math.sin(0.7))]
    for seed in range(20):
        engine, oracle = both_counts(*spans_from_angles(np.random.default_rng(seed), 6, seed % 3, drawn))
        assert engine[0] == oracle[0] == (d < 0.0)


@pytest.mark.parametrize("d", [-1e-5, 1e-5])
def test_right_cutoff_by_construction(d):
    # cos theta = CUTOFF (1 + d): near pi/2 both routes resolve the cosine to about 1e-16
    c = CUTOFF * (1.0 + d)
    drawn = [(math.acos(c), c, math.sqrt(1.0 - c * c)), (0.7, math.cos(0.7), math.sin(0.7))]
    for seed in range(20):
        engine, oracle = both_counts(*spans_from_angles(np.random.default_rng(seed), 6, seed % 3, drawn))
        assert engine[1] == oracle[1] == (d < 0.0)


# Where an edge search moves angles from: both ends, pi/4, three interior angles and, for
# every angle after the first, the pair's first angle and its mirror pi/2 - first, whose
# rate sin 2 theta is the first angle's
ANCHORS = (0.0, math.pi / 2, math.pi / 4, 0.3, 0.7, 1.2)


@st.composite
def edge_pairs(draw):
    """(A rows, B rows, drawn) with 1..4 angles, each an anchor moved by 10^e for e in
    [-16, -2]: inward at 0 and pi/2, either way elsewhere."""
    k = draw(st.integers(1, 4))
    drawn = []
    for _ in range(k):
        anchor = draw(st.sampled_from(ANCHORS + ((drawn[0][0], math.pi / 2 - drawn[0][0]) if drawn else ())))
        step = 10.0 ** draw(st.floats(-16.0, -2.0))
        if anchor == 0.0:
            theta = step
        elif anchor == math.pi / 2:
            theta = anchor - step
        else:
            theta = anchor + draw(st.sampled_from((step, -step)))
        assume(0.0 <= theta <= math.pi / 2)
        drawn.append((theta, math.cos(theta), math.sin(theta)))
    q = draw(st.integers(0, 2))
    n = draw(st.integers(2 * k + q, 10))
    a_rows, b_rows = spans_from_angles(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, q, drawn)
    return a_rows, b_rows, drawn


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edge_pairs())
def test_edge_search(pair):
    # the bounds the engine claims: a residual of about 3e-16 / gap past CLUSTER_WIDTH and
    # at rounding within it, and an angle whose plane turns at a rate under SPLIT_FLOOR
    # read as shared or right, an error of up to SPLIT_FLOOR / 2
    a_rows, b_rows, drawn = pair
    rep = relative_angle(blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows))
    truth = sorted((theta for theta, _, _ in drawn), reverse=True)
    assert len(rep.angles) == len(truth)
    error = max(abs(x - y) for x, y in zip(rep.angles, truth))
    target(math.log10(max(rep.residual, 1e-300)), label="log10 residual")
    target(math.log10(max(error, 1e-300)), label="log10 angle error")
    assert rep.residual <= 1e-11
    assert error <= SPLIT_FLOOR
