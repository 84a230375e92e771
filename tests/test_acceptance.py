"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; all tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from subspace_angles import conformal as cf
from subspace_angles.blades import blade_from_spanning_vectors
from subspace_angles.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_PARSE, main
from subspace_angles.engine import (
    bivector_split,
    relative_angle,
    rotor_reconstruction,
)
from subspace_angles.errors import DegenerateSpanError
from subspace_angles.ga import Multivector, Signature, basis_vectors
from subspace_angles.oracle import orthonormal_basis, principal_angles
from subspace_angles.sampling import sample_spans

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

CORPUS_SEED = 0
CORPUS_SIZE = 1000


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}", flush=True)
        raise
    print(f"[PASS] criterion {num}: {desc}", flush=True)


def corpus(seed=CORPUS_SEED, size=CORPUS_SIZE):
    rng = np.random.default_rng(seed)
    for _ in range(size):
        yield sample_spans(rng)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "engine vs oracle on 1000 seeded problems"):
        start = time.monotonic()
        seen_n, seen_q, seen_rb = set(), set(), set()
        forced_shared = forced_perp = 0
        worst = 0.0
        for a_rows, b_rows, meta in corpus():
            seen_n.add(meta["n"])
            seen_q.add(meta["q"])
            seen_rb.add(meta["rb"])
            forced_shared += meta["shared"] > 0
            forced_perp += meta["perp"] > 0
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            rep = relative_angle(a, b)
            pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
            oracle = sorted((float(x) for x in pairs.angles), reverse=True)
            assert len(oracle) == len(rep.angles)
            for e_ang, o_ang in zip(rep.angles, oracle):
                worst = max(worst, abs(e_ang - o_ang))
                assert abs(e_ang - o_ang) <= 1e-8
            assert rep.s == int(np.sum(pairs.cosines >= 1.0 - 1e-9))
            assert rep.t == int(np.sum(pairs.cosines <= 1e-9))
        elapsed = time.monotonic() - start
        # the corpus itself must cover the required ranges
        assert seen_n == {2, 3, 4, 5, 6, 7, 8}
        assert seen_q == {0, 1, 2}
        assert seen_rb == {1, 2, 3, 4}
        assert forced_shared >= 0.15 * CORPUS_SIZE
        assert forced_perp >= 0.10 * CORPUS_SIZE
        assert elapsed < 60.0
        print(f"  (worst angle deviation {worst:.3e}, {elapsed:.1f}s)", flush=True)


def test_criterion_2_scalar_part_identity():
    with criterion(2, "scalar part equals product of oracle cosines (equal grades)"):
        checked = 0
        for a_rows, b_rows, meta in corpus():
            if meta["q"] != 0:
                continue
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
            cos_total = a.mv.scalar_product(b.mv.reverse()) / (a.magnitude * b.magnitude)
            assert abs(abs(cos_total) - float(np.prod(pairs.cosines))) <= 1e-10
            checked += 1
        assert checked >= 200


def test_criterion_3_top_grade_sine_product():
    with criterion(3, "top grade norm equals product of sines of nonzero angles"):
        for a_rows, b_rows, _meta in corpus():
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            m = a.unit() * b.unit().reverse()
            # maximal grade that is actually present (not floating dust)
            norms = {k: p.coeff_norm() for k, p in m.graded_parts().items()}
            top = norms[max(k for k, v in norms.items() if v > 1e-9)]
            pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
            sines = [math.sin(float(th)) for th, c in zip(pairs.angles, pairs.cosines)
                     if c < 1.0 - 1e-9]
            expected = float(np.prod(sines)) if sines else 1.0
            assert abs(top - expected) <= 1e-9


def test_criterion_4_rotor_reconstruction():
    with criterion(4, "product of rotors rebuilds A reverse(B) within 1e-8 relative"):
        for a_rows, b_rows, _meta in corpus():
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            rep = relative_angle(a, b)
            rebuilt = rotor_reconstruction(rep, a.magnitude, b.magnitude)
            target = a.mv * b.mv.reverse()
            assert (rebuilt - target).coeff_norm() <= 1e-8 * a.magnitude * b.magnitude


def test_criterion_5_paper_3d_scenario():
    with criterion(5, "perpendicular planes sharing a line: e12 vs e13"):
        sig = Signature(3)
        e1, e2, e3 = basis_vectors(sig)
        rep = relative_angle(blade_from_spanning_vectors([[1, 0, 0], [0, 1, 0]]),
                             blade_from_spanning_vectors([[1, 0, 0], [0, 0, 1]]))
        assert rep.s == 1
        assert rep.t == 1
        assert rep.cos_total == 0.0
        assert abs(rep.angles[0] - math.pi / 2) <= 1e-12
        assert abs(rep.angles[1]) <= 1e-12
        # same result from the raw basis bivectors
        from subspace_angles.blades import Blade
        rep2 = relative_angle(Blade.from_multivector(e1 ^ e2), Blade.from_multivector(e1 ^ e3))
        assert (rep2.s, rep2.t) == (1, 1)


def test_criterion_6_bivector_split_contract():
    with criterion(6, "bivector split: rebuild, simplicity, orthogonality on 200 bivectors"):
        rng = np.random.default_rng(CORPUS_SEED + 6)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            sig = Signature(n)
            coeffs = np.zeros(sig.size)
            for i in range(n):
                for j in range(i + 1, n):
                    coeffs[(1 << i) | (1 << j)] = rng.uniform(-1.0, 1.0)
            f = Multivector(sig, coeffs)
            parts = bivector_split(f)
            rebuilt = Multivector.zero(sig)
            for beta, plane in parts:
                assert beta > 0.0
                sq = plane * plane
                assert abs(sq.scalar_part() + 1.0) <= 1e-9
                assert (sq - Multivector.scalar(sig, sq.scalar_part())).coeff_norm() <= 1e-9
                rebuilt = rebuilt + plane * beta
            assert (rebuilt - f).coeff_norm() <= 1e-9 * max(1.0, f.coeff_norm())
            for i_idx, (_, pi) in enumerate(parts):
                for _, pj in parts[i_idx + 1:]:
                    assert pi.left_contraction(pj).coeff_norm() <= 1e-9


def test_criterion_7_grade_parity_exact():
    with criterion(7, "every nonzero grade of A reverse(B) has parity (gA+gB) mod 2"):
        for a_rows, b_rows, _meta in corpus(seed=CORPUS_SEED + 7, size=300):
            a = blade_from_spanning_vectors(a_rows)
            b = blade_from_spanning_vectors(b_rows)
            m = a.mv * b.mv.reverse()
            parity = (a.grade + b.grade) % 2
            for mask in m.support():
                assert int(mask).bit_count() % 2 == parity


def test_criterion_8_conformal_translation_invariance():
    with criterion(8, "translating both conformal flats leaves the report unchanged"):
        rng = np.random.default_rng(CORPUS_SEED + 8)
        csig = cf.conformal_signature(3)
        for _ in range(100):
            flats = []
            for _side in range(2):
                grade = int(rng.integers(1, 4))
                for _draw in range(100):
                    rows = rng.uniform(-1.0, 1.0, (grade, 3))
                    try:
                        d = blade_from_spanning_vectors(rows)
                        break
                    except DegenerateSpanError:
                        continue
                else:
                    raise AssertionError(f"100 draws of grade {grade} all spanned degenerately")
                point = rng.uniform(-3.0, 3.0, 3)
                flats.append(cf.ConformalObject.from_multivector(cf.flat(csig, point, d.mv)))
            before = cf.conformal_relative_angle(*flats)
            t = cf.translator(csig, rng.uniform(-5.0, 5.0, 3))
            moved = [cf.ConformalObject.from_multivector(cf.apply_versor(t, x.mv))
                     for x in flats]
            after = cf.conformal_relative_angle(*moved)
            assert before.s == after.s
            assert before.t == after.t
            assert len(before.angles) == len(after.angles)
            for x, y in zip(before.angles, after.angles):
                assert abs(x - y) <= 1e-8


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "CLI golden outputs, determinism and exit codes"):
        for name in ("perpendicular_planes", "identical_planes", "mixed_dimension"):
            code = main(["run", str(DATA / f"{name}.json"), "--oracle"])
            out = capsys.readouterr().out
            assert code == EXIT_OK
            assert out == (GOLDEN / f"{name}.json.out").read_text(encoding="utf-8")
            # byte-identical round trip of the machine-readable report
            assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3 "A"')
        assert main(["run", str(bad)]) == EXIT_PARSE
        capsys.readouterr()
        degen = tmp_path / "degen.json"
        degen.write_text('{"n": 2, "A": [[1, 0], [1, 0]], "B": [[0, 1]]}')
        assert main(["run", str(degen)]) == EXIT_DEGENERATE
        capsys.readouterr()
