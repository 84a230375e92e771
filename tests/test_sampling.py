"""The one pair builder: `sample_spans` pairs against the angles they are built from."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subspace_angles import sampling
from subspace_angles.blades import blade_from_spanning_vectors
from subspace_angles.engine import relative_angle
from subspace_angles.oracle import orthonormal_basis, principal_angles
from subspace_angles.problems import selftest

ROUTES = {"oracle", "engine", "blades"}


def test_sampling_imports_no_route():
    # the builder is the truth both routes are checked against, so it shares no code with them
    tree = ast.parse(Path(sampling.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert not names & ROUTES, names & ROUTES


def test_the_command_line_loads_no_random_generator():
    # NumPy imports numpy.random on first use, about 8 ms of each `angles run` process,
    # which draws nothing: sampling's annotations must not reach it at import time
    src = str(Path(sampling.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, subspace_angles.cli; print([m for m in sys.modules if m.startswith('numpy.random')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_both_routes_meet_the_built_angles():
    rng = np.random.default_rng(46)
    for _ in range(300):
        a_rows, b_rows, meta = sampling.sample_spans(rng)
        assert a_rows.shape == (meta["ra"], meta["n"]) and b_rows.shape == (meta["rb"], meta["n"])
        assert meta["ra"] == meta["rb"] + meta["q"] and len(meta["angles"]) == meta["rb"]
        assert meta["angles"] == sorted(meta["angles"], reverse=True)
        assert meta["angles"].count(0.0) == meta["shared"]
        assert meta["angles"].count(math.pi / 2) == meta["perp"]
        rep = relative_angle(blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows))
        pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
        truth = np.array(meta["angles"])
        assert np.max(np.abs(np.array(rep.angles) - truth)) <= 1e-13
        assert np.max(np.abs(np.sort(pairs.angles)[::-1] - truth)) <= 1e-13
        # built zeros and right angles come back exact from the engine
        assert rep.angles.count(0.0) == meta["shared"]
        assert rep.angles.count(math.pi / 2) == meta["perp"]


@pytest.mark.parametrize("seed", range(10))
def test_selftest_passes_against_the_truth(seed):
    assert selftest(seed=seed)["ok"]


@pytest.mark.parametrize("cases", [0, -1])
def test_selftest_refuses_to_check_nothing(cases):
    with pytest.raises(ValueError, match=r"^cases: expected an integer >= 1, got -?\d+$"):
        selftest(cases=cases)
