"""Problem documents: parsing, orchestration and report assembly.

A problem is a single JSON object:

    {"n": 3, "signature": [3, 0], "A": [[1,0,0],[0,1,0]],
     "B": [[1,0,0],[0,0,1]], "options": {"oracle": true}}

In conformal mode A and B are conformal objects of Cl(n+1,1) given
either as a dense coefficient list of length 2^(n+2) or as a sparse
map of basis-blade names ("e145": value); basis vectors n+1 and n+2
are e_plus and e_minus of the conformal split.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import conformal
from .blades import Blade, blade_from_spanning_vectors
from .engine import ANGLE_COS_TOL, AngleReport, relative_angle
from .errors import ProblemFormatError
from .ga import Multivector, Signature, mask_from_name, name_from_mask
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
    options: dict = field(default_factory=dict)


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


def _expect_tolerance(value, key: str):
    """The grade tolerance, from a document or the command line, lies in (0, 1)."""
    x = _number(value)
    _expect(x is not None and 0 < x < 1, f"{key}: expected a number in (0, 1)")


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
    size = 1 << (n + 2)
    if isinstance(value, list):
        _expect(len(value) == size,
                f"{key}: dense conformal coefficients must have length {size}")
        values = [_number(x) for x in value]
        for j, x in enumerate(values):
            _expect(x is not None and math.isfinite(x), f"{key}[{j}]: expected a finite number")
        return values
    if isinstance(value, dict):
        _expect(len(value) > 0, f"{key}: empty coefficient map")
        out = {}
        for name, x in value.items():
            try:
                mask_from_name(name, n + 2)
            except ValueError as exc:
                raise ProblemFormatError(f"{key}[{name!r}]: {exc}") from exc
            x = _number(x)
            _expect(x is not None and math.isfinite(x), f"{key}[{name!r}]: expected a finite number")
            out[name] = x
        return out
    raise ProblemFormatError(f"{key}: expected a coefficient list or a blade-name map")


def parse_problem(text: str, *, mode: str = "euclidean") -> SubspaceProblem:
    """Parse and validate one problem document.

    Raises ProblemFormatError with a position-annotated message on
    malformed JSON and a field-annotated message on invalid content.
    """
    _expect(mode in MODES, f"unknown mode {mode!r}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    _expect(isinstance(data, dict), "top level must be a JSON object")
    allowed = {"n", "signature", "A", "B", "options"}
    unknown = set(data) - allowed
    _expect(not unknown, f"unknown keys: {sorted(unknown)}")
    for key in ("n", "A", "B"):
        _expect(key in data, f"missing required key {key!r}")

    n = data["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool), "n: expected an integer")
    max_n = 12 if mode == "euclidean" else 10
    _expect(1 <= n <= max_n, f"n: must be in 1..{max_n} for {mode} mode")

    if "signature" in data:
        _expect(mode == "euclidean", "signature: only valid in euclidean mode")
        sig = data["signature"]
        _expect(isinstance(sig, list) and len(sig) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in sig),
                "signature: expected [p, q]")
        p, q = sig
        _expect(p >= 0 and q >= 0 and p + q == n, f"signature: p+q must equal n={n}")
        signature = (p, q)
    elif mode == "euclidean":
        signature = (n, 0)
    else:
        signature = (n + 1, 1)

    options = data.get("options", {})
    _expect(isinstance(options, dict), "options: expected an object")
    unknown_opts = set(options) - {"tolerance", "oracle"}
    _expect(not unknown_opts, f"options: unknown keys {sorted(unknown_opts)}")
    if "tolerance" in options:
        _expect_tolerance(options["tolerance"], "options.tolerance")
    if "oracle" in options:
        _expect(isinstance(options["oracle"], bool), "options.oracle: expected a boolean")

    if mode == "euclidean":
        a_span = _parse_vectors("A", data["A"], n)
        b_span = _parse_vectors("B", data["B"], n)
    else:
        a_span = _parse_conformal_object("A", data["A"], n)
        b_span = _parse_conformal_object("B", data["B"], n)

    return SubspaceProblem(n=n, mode=mode, signature=signature,
                           a_span=a_span, b_span=b_span, options=dict(options))


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
        sig = Signature(*problem.signature)
        return (blade_from_spanning_vectors(problem.a_span, sig),
                blade_from_spanning_vectors(problem.b_span, sig))
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
    carriers exist only as blades, so the oracle reads their frames.
    """
    if problem.mode == "euclidean":
        return orthonormal_basis(problem.a_span), orthonormal_basis(problem.b_span)
    return blade_a.frame, blade_b.frame


def oracle_comparison(pairs: PrincipalPairs, report: AngleReport) -> dict:
    """Matrix-route angles plus the worst deviation from the engine's."""
    oracle_angles = sorted((float(a) for a in pairs.angles), reverse=True)
    deviation = max((abs(e - o) for e, o in zip(report.angles, oracle_angles)), default=0.0)
    return {"angles_rad": oracle_angles, "max_deviation": deviation}


def run_problem(problem: SubspaceProblem, *, oracle_enabled: bool | None = None,
                tolerance: float | None = None) -> dict:
    """Run one problem and assemble the report document.

    oracle_enabled/tolerance override the document's options when given.
    Engine errors (DegenerateSpanError, AmbiguousRankError, ...)
    propagate to the caller.
    """
    if oracle_enabled is None:
        oracle_enabled = bool(problem.options.get("oracle", False))
    if tolerance is None:
        tolerance = float(problem.options.get("tolerance", ANGLE_COS_TOL))

    blade_a, blade_b = problem_blades(problem)
    report = relative_angle(blade_a, blade_b, grade_tol=tolerance)

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
    """Engine-vs-oracle agreement on seeded random problems.

    Returns a summary with the worst angle deviation and its case (from 0),
    the worst residual, and the number and cases of the s/t mismatches;
    'ok' is True when everything is within 1e-8 and the counts agree.
    """
    rng = np.random.default_rng(seed)
    worst_angle, worst_case, worst_residual, mismatched = 0.0, None, 0.0, []
    for i in range(cases):
        a_rows, b_rows, _meta = sample_spans(rng)
        blade_a = blade_from_spanning_vectors(a_rows)
        blade_b = blade_from_spanning_vectors(b_rows)
        report = relative_angle(blade_a, blade_b)
        pairs = principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
        deviation = oracle_comparison(pairs, report)["max_deviation"]
        if worst_case is None or deviation > worst_angle:
            worst_angle, worst_case = deviation, i
        worst_residual = max(worst_residual, report.residual)
        if (report.s, report.t) != rank_counts(pairs):
            mismatched.append(i)
    return {
        "cases": cases,
        "seed": seed,
        "max_angle_deviation": worst_angle,
        "worst_case": worst_case,
        "max_residual": worst_residual,
        "mismatches": len(mismatched),
        "mismatch_cases": mismatched,
        "ok": worst_angle <= 1e-8 and not mismatched,
    }
