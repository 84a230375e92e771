"""Problem documents: parsing, orchestration and report assembly.

A problem is a single JSON object:

    {"n": 3, "signature": [3, 0], "A": [[1,0,0],[0,1,0]],
     "B": [[1,0,0],[0,0,1]]}

The optional signature must be [n, 0]: angles are taken over a Euclidean
signature only, so the key only restates n and is checked. The report's
input echo gives the signature the mode implies ([n, 0], or [n + 1, 1] in
conformal mode) whether or not the document gives the key. In
conformal mode A and B are conformal objects of Cl(n+1,1) given
either as a dense coefficient list of length 2^(n+2) or as a sparse
map of basis-blade names ("e145": value); basis vectors n+1 and n+2
are e_plus and e_minus of the conformal split.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass

import numpy as np

from . import conformal
from .blades import Blade, blade_from_spanning_vectors
from .engine import AngleReport, relative_angle
from .errors import ProblemFormatError
from .ga import MAX_DIMENSION, Multivector, mask_from_name, name_from_mask
from .oracle import PrincipalPairs, orthonormal_basis, principal_angles, rank_counts
from .sampling import sample_spans

MODES = ("euclidean", "conformal")

# Plane coefficients at or below this magnitude are left out of the report.
PLANE_COEFF_MIN = 1e-12


@dataclass
class SubspaceProblem:
    """A parsed and validated input document."""

    n: int
    mode: str
    signature: tuple[int, int]
    a_span: object
    b_span: object


def _expect(condition: bool, message: str):
    if not condition:
        raise ProblemFormatError(message)


def _number(x) -> float | None:
    """x as a float if it is a JSON number (not a bool), else None; an integer
    too large for a float reads as inf, which the finiteness checks reject."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _parse_vectors(key: str, value, n: int) -> list[list[float]]:
    _expect(isinstance(value, list) and len(value) > 0, f"{key}: need a non-empty list of vectors")
    rows = []
    for i, row in enumerate(value):
        _expect(isinstance(row, list), f"{key}[{i}]: expected a list of numbers")
        _expect(len(row) == n, f"{key}[{i}]: expected {n} components, got {len(row)}")
        values = [_number(x) for x in row]
        for j, x in enumerate(values):
            _expect(x is not None, f"{key}[{i}][{j}]: expected a number")
            _expect(math.isfinite(x), f"{key}[{i}][{j}]: not finite")
        rows.append(values)
    return rows


def _parse_conformal_object(key: str, value, n: int):
    sig = conformal.conformal_signature(n)
    if isinstance(value, list):
        _expect(len(value) == sig.size,
                f"{key}: dense conformal coefficients must have length {sig.size}")
        values = [_number(x) for x in value]
        for j, x in enumerate(values):
            _expect(x is not None and math.isfinite(x), f"{key}[{j}]: expected a finite number")
        return values
    if isinstance(value, dict):
        _expect(len(value) > 0, f"{key}: empty coefficient map")
        out, names = {}, {}
        for name, x in value.items():
            try:
                mask = mask_from_name(name, sig.n)
            except ValueError as exc:
                raise ProblemFormatError(f"{key}[{name!r}]: {exc}") from exc
            _expect(names.setdefault(mask, name) == name,
                    f"{key}[{name!r}]: names the same basis blade as {names[mask]!r}")
            x = _number(x)
            _expect(x is not None and math.isfinite(x), f"{key}[{name!r}]: expected a finite number")
            out[name] = x
        return out
    raise ProblemFormatError(f"{key}: expected a coefficient list or a blade-name map")


def _unique_keys(pairs) -> dict:
    """json.loads object_pairs_hook: a repeated key is malformed input."""
    out = {}
    for key, value in pairs:
        _expect(key not in out, f"repeated key {key!r}")
        out[key] = value
    return out


def parse_problem(text: str, *, mode: str = "euclidean") -> SubspaceProblem:
    """Parse and validate one problem document.

    Raises ProblemFormatError with a position-annotated message on
    malformed JSON and a field-annotated message on invalid content.
    """
    _expect(mode in MODES, f"unknown mode {mode!r}")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ProblemFormatError("arrays or objects nested too deeply to parse") from None
    _expect(isinstance(data, dict), "top level must be a JSON object")
    allowed = {"n", "signature", "A", "B"}
    unknown = set(data) - allowed
    _expect(not unknown, f"unknown keys: {sorted(unknown)}")
    for key in ("n", "A", "B"):
        _expect(key in data, f"missing required key {key!r}")

    n = data["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool), "n: expected an integer")
    max_n = MAX_DIMENSION if mode == "euclidean" else MAX_DIMENSION - 2   # conformal: n + 2 dims
    _expect(1 <= n <= max_n, f"n: must be in 1..{max_n} for {mode} mode")

    if "signature" in data:
        _expect(mode == "euclidean", "signature: only valid in euclidean mode")
        sig = data["signature"]
        _expect(sig == [n, 0] and all(type(v) is int for v in sig),
                f"signature: expected [{n}, 0], the Euclidean signature of n={n}")
    signature = (n, 0) if mode == "euclidean" else astuple(conformal.conformal_signature(n))

    if mode == "euclidean":
        a_span = _parse_vectors("A", data["A"], n)
        b_span = _parse_vectors("B", data["B"], n)
    else:
        a_span = _parse_conformal_object("A", data["A"], n)
        b_span = _parse_conformal_object("B", data["B"], n)

    return SubspaceProblem(n=n, mode=mode, signature=signature,
                           a_span=a_span, b_span=b_span)


def _conformal_multivector(spec, n: int) -> Multivector:
    sig = conformal.conformal_signature(n)
    if isinstance(spec, dict):
        coeffs = np.zeros(sig.size)
        for name, value in spec.items():
            coeffs[mask_from_name(name, sig.n)] += value
        return Multivector(sig, coeffs)
    return Multivector(sig, np.asarray(spec, dtype=float))


def problem_blades(problem: SubspaceProblem) -> tuple[Blade, Blade]:
    """Carrier blades of the two subspaces, both over a Euclidean algebra."""
    if problem.mode == "euclidean":
        return blade_from_spanning_vectors(problem.a_span), blade_from_spanning_vectors(problem.b_span)
    xa = conformal.ConformalObject.from_multivector(_conformal_multivector(problem.a_span, problem.n))
    xb = conformal.ConformalObject.from_multivector(_conformal_multivector(problem.b_span, problem.n))
    return conformal.euclidean_carrier(xa), conformal.euclidean_carrier(xb)


def _sparse_map(mv: Multivector) -> dict[str, float]:
    return {name_from_mask(int(m)): float(mv.coeffs[m])
            for m in mv.support() if abs(mv.coeffs[m]) > PLANE_COEFF_MIN}


def _oracle_bases(problem: SubspaceProblem, blade_a: Blade, blade_b: Blade):
    """Orthonormal bases for the matrix route.

    Euclidean problems feed the raw input spans to the oracle, keeping
    that route fully independent of the algebra layer; conformal
    carriers exist only as blades, so the oracle reads their frames,
    which come from numpy.linalg.eigh of each carrier's projector.
    """
    if problem.mode == "euclidean":
        return orthonormal_basis(problem.a_span), orthonormal_basis(problem.b_span)
    return blade_a.frame, blade_b.frame


def oracle_comparison(pairs: PrincipalPairs, report: AngleReport) -> dict:
    """Matrix-route angles plus the worst deviation from the engine's."""
    oracle_angles = sorted((float(a) for a in pairs.angles), reverse=True)
    deviation = max((abs(e - o) for e, o in zip(report.angles, oracle_angles)), default=0.0)
    return {"angles_rad": oracle_angles, "max_deviation": deviation}


def run_problem(problem: SubspaceProblem, *, oracle_enabled: bool = False) -> dict:
    """Run one problem and assemble the report document.

    oracle_enabled adds the matrix route's angles and their worst deviation
    from the engine's. Engine errors (DegenerateSpanError,
    AmbiguousRankError, ...) propagate to the caller.
    """
    blade_a, blade_b = problem_blades(problem)
    report = relative_angle(blade_a, blade_b)

    doc = {
        "input": {
            "n": problem.n,
            "mode": problem.mode,
            "signature": list(problem.signature),
            "A": problem.a_span,
            "B": problem.b_span,
        },
        "s": report.s,
        "t": report.t,
        "angles_rad": [float(a) for a in report.angles],
        "angles_deg": [math.degrees(a) for a in report.angles],
        "cos_total": report.cos_total,
        "cos_interior": report.cos_interior,
        "sin_interior_product": report.sin_interior_product,
        "planes": [_sparse_map(p) for p in report.planes],
        "residual": report.residual,
        "lowest_grade": report.lowest_grade,
    }
    if oracle_enabled:
        pairs = principal_angles(*_oracle_bases(problem, blade_a, blade_b))
        doc["oracle"] = oracle_comparison(pairs, report)
    return doc


def selftest(seed: int = 0, cases: int = 100) -> dict:
    """Both routes against the truth on seeded pairs of known angles.

    Each case is a `sample_spans` pair, built from the angles and counts
    its meta records. Returns a summary with each route's worst angle
    error against those angles, the case (from 0) of the worst of either,
    the worst residual, and the number and cases where either route's s or
    t differs from the built counts; 'ok' is True when every error is
    within 1e-8 and no count differs. Raises ValueError for cases < 1,
    which would check nothing.
    """
    if cases < 1:
        raise ValueError(f"cases: expected an integer >= 1, got {cases}")
    rng = np.random.default_rng(seed)
    worst, worst_case, worst_residual, mismatched = [0.0, 0.0], None, 0.0, []
    for i in range(cases):
        a_rows, b_rows, meta = sample_spans(rng)
        report = relative_angle(blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows))
        pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
        errors = [max(abs(x - y) for x, y in zip(angles, meta["angles"]))
                  for angles in (report.angles, sorted(pairs.angles.tolist(), reverse=True))]
        if worst_case is None or max(errors) > max(worst):
            worst_case = i
        worst = [max(pair) for pair in zip(worst, errors)]
        worst_residual = max(worst_residual, report.residual)
        counts = (meta["shared"], meta["perp"])
        if (report.s, report.t) != counts or rank_counts(pairs) != counts:
            mismatched.append(i)
    return {
        "cases": cases,
        "seed": seed,
        "max_engine_error": worst[0],
        "max_oracle_error": worst[1],
        "worst_case": worst_case,
        "max_residual": worst_residual,
        "mismatches": len(mismatched),
        "mismatch_cases": mismatched,
        "ok": max(worst) <= 1e-8 and not mismatched,
    }
