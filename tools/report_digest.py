#!/usr/bin/env python3
"""One SHA-256 per (workload, seed) over everything the package reports.

Run from the repository root:

    python3 tools/report_digest.py                      # ./src, seeds 1..3
    python3 tools/report_digest.py --seeds 1 2 3 9 --src /path/to/other/src --src src

The inputs are the benchmark's, imported from perfbench/inputs.py:

* corpus_small, wide_dense: per pair, both blades (coefficient bytes,
  grade, magnitude and the bytes of the orthonormal frame), every field of the `relative_angle` report
  (plane and lowest-blade coefficient bytes included), the public rotor
  rebuild `rotor_reconstruction(report, |A|, |B|)`, the oracle's
  principal pairs and the `bivector_split` of the pair's bivector
  sum_j 2^-j (a_j ^ b_j) over the rows j < min(grades), whose distinct
  coefficients reach the eigensolve; a raising call contributes its
  exception repr.
* cli_batch: per problem file, the `angles run --oracle` JSON text (or
  the exception repr), then the `angles selftest --seed <seed>` summary.

Two package versions whose digests agree therefore agree bit for bit on
every report of those inputs.  With several --src directories each one
is hashed in a fresh process, the digests are printed side by side,
and the exit status is 1 when any row differs.

--per-pair also hashes each pair (each problem file, and the selftest
as the last item of cli_batch) on its own.  With one --src the per-pair
digests follow each row, comma-separated; with several, every differing
row is followed by the indices of the pairs that differ, counted from 0
in the order of perfbench/inputs.py.

--except FIELD leaves one `AngleReport` field out of every hash, and
with it the `FIELD` key of each `angles run` JSON and the `max_FIELD` key
of the selftest summary, where they exist (for `residual`: `residual`
and `max_residual`).  Two versions that agree under `--except residual`
differ at most in their residuals:

    python3 tools/report_digest.py --except residual --src /path/to/parent/src --src src

--max-diff, with two --src, says how far the second version moves the
reports of the first, instead of whether they are identical.  Both
versions are imported side by side in one process and run on the same
inputs; per (workload, seed) it prints the largest absolute difference
of each float field: every float field of the `relative_angle` report
(plane and `lowest_blade` coefficients included), the coefficients of
`rotor_reconstruction` and the oracle's angles, and for cli_batch the
same fields of each `angles run --oracle` JSON plus the selftest's
`max_angle_deviation` and `max_residual`.  It also counts the pairs
whose discrete results differ: s, t, `lowest_grade`, the number of
planes, `has_equal_angles`, the type of a raised exception (and the
selftest's `mismatches` and `ok`).  Those pairs are named by index, and
the exit status is 1 when there are any:

    python3 tools/report_digest.py --max-diff --src /path/to/parent/src --src src

--truth prints, instead of digests, the benchmark's own verdict on each
(workload, seed): every report is checked against the true angles by the
`Tally` of perfbench/run.py (imported, never changed), and the row gives
the pairs attempted and failed, the failures by reason, how many lack the
form of a known defect ("unexplained"), the worst engine and oracle
error against the truth and the worst rotor residual.  cli_batch runs its
problem files in-process, without the selftest, whose cases have no
known truth.  The exit status is 1 when any failure is unexplained.

    python3 tools/report_digest.py --truth --workloads corpus_small wide_dense --seeds 1 2 3
"""

import os

# One BLAS thread, as in the benchmark, so eigh and matmul round the same way.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus_small", "wide_dense", "cli_batch")


def feed(h, value, omit=None) -> None:
    """Add an unambiguous byte encoding of value to the hash h, leaving out
    the AngleReport field named omit."""
    if isinstance(value, BaseException):
        h.update(b"E" + repr(value).encode())
    elif hasattr(value, "coeffs") and hasattr(value, "sig"):          # Multivector
        h.update(b"M" + repr(value.sig).encode() + value.coeffs.tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(b"D" + type(value).__name__.encode())
        for field in dataclasses.fields(value):
            if field.name != omit or type(value).__name__ != "AngleReport":
                h.update(field.name.encode())
                feed(h, getattr(value, field.name), omit)
    elif isinstance(value, np.ndarray):
        h.update(b"A" + value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(value)))
    elif isinstance(value, (tuple, list)):
        h.update(b"L" + str(len(value)).encode())
        for item in value:
            feed(h, item, omit)
    elif isinstance(value, dict):
        h.update(b"P" + str(len(value)).encode())
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key], omit)
    else:                                                              # int, bool, str, None
        h.update(b"R" + repr(value).encode())


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raising call is part of what is hashed
        return exc


class Digest:
    """The row's SHA-256 over all pairs, plus one SHA-256 per pair."""

    def __init__(self, omit=None):
        self.row = hashlib.sha256()
        self.pairs: list[str] = []
        self.omit = omit

    def add_pair(self, values) -> None:
        pair = hashlib.sha256()
        for value in values:
            feed(self.row, value, self.omit)
            feed(pair, value, self.omit)
        self.pairs.append(pair.hexdigest())


def pair_bivector(sa, pair):
    """sum_j 2^-j (a_j ^ b_j) over the rows the two spanning sets share."""
    sig = sa.Signature(pair.a_rows.shape[1])
    f = sa.Multivector.zero(sig)
    for j, (a, b) in enumerate(zip(pair.a_rows, pair.b_rows)):
        f = f + (sa.Multivector.vector(sig, a) ^ sa.Multivector.vector(sig, b)) * 2.0 ** -j
    return f


def library_digest(sa, pairs, omit) -> Digest:
    d = Digest(omit)
    for pair in pairs:
        blades = [attempt(sa.blade_from_spanning_vectors, rows) for rows in (pair.a_rows, pair.b_rows)]
        values = [blades]
        if not any(isinstance(b, Exception) for b in blades):
            report = attempt(sa.relative_angle, *blades)
            values.append(report)
            if not isinstance(report, Exception):
                values.append(attempt(sa.rotor_reconstruction, report,
                                      blades[0].magnitude, blades[1].magnitude))
        values.append(attempt(lambda: sa.principal_angles(sa.orthonormal_basis(pair.a_rows),
                                                          sa.orthonormal_basis(pair.b_rows))))
        values.append(attempt(lambda: sa.bivector_split(pair_bivector(sa, pair))))
        d.add_pair(values)
    return d


def without(doc: dict, key) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def cli_digest(inputs, seed: int, omit) -> Digest:
    from subspace_angles.cli import render_json
    from subspace_angles.problems import parse_problem, run_problem, selftest

    d = Digest()
    for mode, problems in (("euclidean", inputs.euclidean_problems(seed)),
                           ("conformal", inputs.conformal_problems(seed))):
        for problem in problems:
            doc = attempt(lambda: render_json(without(run_problem(
                parse_problem(json.dumps(problem.doc), mode=mode), oracle_enabled=True), omit)))
            d.add_pair([doc])
    summary = attempt(selftest, seed=seed)
    d.add_pair([summary if isinstance(summary, Exception) else without(summary, f"max_{omit}")])
    return d


def digests(src: str, workloads, seeds, omit=None) -> list[tuple[str, int, Digest]]:
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import subspace_angles as sa

    fields = [field.name for field in dataclasses.fields(sa.AngleReport)]
    if omit is not None and omit not in fields:
        raise SystemExit(f"--except takes an AngleReport field: {', '.join(fields)}")
    out = []
    for workload in workloads:
        for seed in seeds:
            if workload == "cli_batch":
                digest = cli_digest(inputs, seed, omit)
            else:
                digest = library_digest(sa, getattr(inputs, workload)(seed), omit)
            out.append((workload, seed, digest))
    return out


def load_package(src: str, name: str):
    """The subspace_angles package under src, imported as the top-level module
    name, so that two versions of it can run side by side in one process."""
    path = Path(src).resolve() / "subspace_angles"
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py",
                                                  submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def kind(value):
    """The type name of a raised exception, None for a result."""
    return type(value).__name__ if isinstance(value, Exception) else None


def library_values(sa, pair) -> tuple[dict, dict]:
    """(discrete, floats) of one pair: the exception types, counts and flags
    that must not move, and the float arrays whose moves are measured."""
    blades = [attempt(sa.blade_from_spanning_vectors, rows) for rows in (pair.a_rows, pair.b_rows)]
    discrete, floats = {"blades": [kind(b) for b in blades]}, {}
    if not any(discrete["blades"]):
        report = attempt(sa.relative_angle, *blades)
        discrete["report"] = kind(report)
        if not discrete["report"]:
            discrete.update(s=report.s, t=report.t, lowest_grade=report.lowest_grade,
                            planes=len(report.planes), has_equal_angles=report.has_equal_angles)
            floats.update(angles=np.array(report.angles),
                          planes=np.array([p.coeffs for p in report.planes]),
                          cos_total=np.array([report.cos_total]),
                          cos_interior=np.array([report.cos_interior]),
                          sin_interior_product=np.array([report.sin_interior_product]),
                          residual=np.array([report.residual]),
                          lowest_blade=report.lowest_blade.coeffs)
            rotor = attempt(sa.rotor_reconstruction, report, blades[0].magnitude, blades[1].magnitude)
            discrete["rotor_reconstruction"] = kind(rotor)
            if not discrete["rotor_reconstruction"]:
                floats["rotor_reconstruction"] = rotor.coeffs
    oracle = attempt(lambda: sa.principal_angles(sa.orthonormal_basis(pair.a_rows),
                                                 sa.orthonormal_basis(pair.b_rows)))
    discrete["oracle"] = kind(oracle)
    if not discrete["oracle"]:
        floats["oracle_angles"] = oracle.angles
    return discrete, floats


def cli_values(sa, mode: str, problem) -> tuple[dict, dict]:
    """(discrete, floats) of one `angles run --oracle` JSON document; the
    planes' sparse coefficient maps are keyed by plane and basis blade."""
    problems = importlib.import_module(sa.__name__ + ".problems")
    doc = attempt(lambda: problems.run_problem(problems.parse_problem(json.dumps(problem.doc), mode=mode),
                                               oracle_enabled=True))
    if isinstance(doc, Exception):
        return {"run": kind(doc)}, {}
    discrete = {"run": None, "s": doc["s"], "t": doc["t"], "lowest_grade": doc["lowest_grade"],
                "planes": len(doc["planes"])}
    floats = {"angles": np.array(doc["angles_rad"]),
              "planes": {(k, name): c for k, plane in enumerate(doc["planes"]) for name, c in plane.items()},
              **{key: np.array([doc[key]]) for key in
                 ("cos_total", "cos_interior", "sin_interior_product", "residual")},
              "oracle_angles": np.array(doc["oracle"]["angles_rad"])}
    return discrete, floats


def selftest_values(sa, seed: int) -> tuple[dict, dict]:
    summary = attempt(importlib.import_module(sa.__name__ + ".problems").selftest, seed=seed)
    if isinstance(summary, Exception):
        return {"selftest": kind(summary)}, {}
    return ({"selftest": None, "mismatches": summary["mismatches"], "ok": summary["ok"]},
            {key: np.array([summary[key]]) for key in ("max_angle_deviation", "max_residual")})


def largest_gap(x, y) -> float:
    """Largest absolute difference of two float arrays (of two {key: float}
    maps, a missing key read as 0.0); equal values, infinities and NaNs
    included, differ by 0, any other NaN by inf, and arrays of different
    shapes by inf."""
    if isinstance(x, dict):
        keys = sorted(x.keys() | y.keys())
        x, y = (np.array([m.get(key, 0.0) for key in keys]) for m in (x, y))
    if x.shape != y.shape:
        return math.inf
    if x.size == 0:
        return 0.0
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
    gap[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
    return float(np.nan_to_num(gap, nan=math.inf).max())


def max_diff(srcs, workloads, seeds) -> int:
    """Print, per (workload, seed), the pairs whose discrete results moved and
    the largest move of each float field from srcs[0] to srcs[1]; 1 when any moved."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    versions = [load_package(src, f"subspace_angles_{i}") for i, src in enumerate(srcs)]

    total = 0
    for workload in workloads:
        for seed in seeds:
            if workload == "cli_batch":
                items = [(lambda sa, mode=mode, problem=problem: cli_values(sa, mode, problem))
                         for mode, problems in (("euclidean", inputs.euclidean_problems(seed)),
                                                ("conformal", inputs.conformal_problems(seed)))
                         for problem in problems]
                items.append(lambda sa: selftest_values(sa, seed))
            else:
                items = [(lambda sa, pair=pair: library_values(sa, pair))
                         for pair in getattr(inputs, workload)(seed)]
            moved, gaps = [], {}
            for index, item in enumerate(items):
                (discrete_a, floats_a), (discrete_b, floats_b) = (item(sa) for sa in versions)
                if discrete_a != discrete_b:
                    moved.append(index)
                    continue
                for name, value in floats_a.items():
                    gaps[name] = max(gaps.get(name, 0.0), largest_gap(value, floats_b[name]))
            total += len(moved)
            print(f"{workload} {seed} pairs={len(items)} moved={len(moved)}",
                  *(f"{name}={gap:.3g}" for name, gap in gaps.items()))
            if moved:
                print("  pairs moved:", *moved)
    print("no discrete field moved" if total == 0 else f"{total} pairs moved")
    return 1 if total else 0


def truth_reports(harness, inputs, sa, workload: str, seed: int):
    """(pair, (angles, s, t, oracle angles, residual)) per input, or the exception
    in place of the tuple."""
    if workload != "cli_batch":
        for pair in getattr(inputs, workload)(seed):
            got = attempt(harness.run_pair, sa, pair)
            yield pair, got if isinstance(got, Exception) else (
                got[0].angles, got[0].s, got[0].t, got[1].angles, got[0].residual)
        return
    from subspace_angles.problems import parse_problem, run_problem
    for mode, problems in (("euclidean", inputs.euclidean_problems(seed)),
                           ("conformal", inputs.conformal_problems(seed))):
        for problem in problems:
            doc = attempt(lambda: run_problem(parse_problem(json.dumps(problem.doc), mode=mode),
                                              oracle_enabled=True))
            yield problem.pair, doc if isinstance(doc, Exception) else (
                doc["angles_rad"], doc["s"], doc["t"], doc["oracle"]["angles_rad"], doc["residual"])


def truth(src: str, workloads, seeds) -> int:
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import run as harness
    import subspace_angles as sa

    unexplained = 0
    for workload in workloads:
        for seed in seeds:
            tally, residual = harness.Tally(), 0.0
            for pair, got in truth_reports(harness, inputs, sa, workload, seed):
                if isinstance(got, Exception):
                    tally.raised(pair, got)
                else:
                    residual = max(residual, float(got[4]))
                    tally.check(pair, *got[:4], float(got[4]))
            unexplained += tally.unexplained
            reasons = ", ".join(f"{k}: {v}" for k, v in tally.reasons.most_common()) or "-"
            print(f"{workload} {seed} attempted={tally.attempted} failed={tally.failed} "
                  f"unexplained={tally.unexplained} engine_err={tally.engine_err:.3g} "
                  f"oracle_err={tally.oracle_err:.3g} residual_max={residual:.3g} "
                  f"reasons: {reasons}")
    return 1 if unexplained else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="directory holding subspace_angles (repeatable; default ./src)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--per-pair", action="store_true",
                        help="also hash each pair, and name the pairs of a differing row")
    parser.add_argument("--truth", action="store_true",
                        help="print the benchmark's verdict against the true angles instead")
    parser.add_argument("--except", dest="omit", metavar="FIELD",
                        help="leave this AngleReport field (and its CLI JSON keys) out of the hash")
    parser.add_argument("--max-diff", action="store_true",
                        help="with two --src: the largest move of each float field, and the pairs "
                             "whose discrete results differ")
    args = parser.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    if args.max_diff:
        if len(srcs) != 2 or args.truth or args.per_pair or args.omit:
            parser.error("--max-diff takes two --src and no --truth, --per-pair or --except")
        return max_diff(srcs, args.workloads, args.seeds)
    if args.truth:
        if len(srcs) != 1:
            parser.error("--truth takes one --src")
        if args.omit:
            parser.error("--except applies to digests, not to --truth")
        return truth(srcs[0], args.workloads, args.seeds)

    if len(srcs) == 1:
        for workload, seed, digest in digests(srcs[0], args.workloads, args.seeds, args.omit):
            line = f"{workload} {seed} {digest.row.hexdigest()}"
            if args.per_pair:
                line += " " + ",".join(p[:16] for p in digest.pairs)
            print(line)
        return 0

    columns = []
    for src in srcs:
        proc = subprocess.run([sys.executable, __file__, "--src", src,
                               "--workloads", *args.workloads,
                               "--seeds", *map(str, args.seeds),
                               *(["--per-pair"] if args.per_pair else []),
                               *(["--except", args.omit] if args.omit else [])],
                              capture_output=True, text=True, check=True)
        columns.append([line.split() for line in proc.stdout.splitlines()])
    differ = 0
    for rows in zip(*columns):
        same = len({row[2] for row in rows}) == 1
        differ += not same
        print(rows[0][0], rows[0][1], *(row[2][:16] for row in rows), "same" if same else "DIFFER")
        if not same and args.per_pair:
            per_pair = zip(*(row[3].split(",") for row in rows))
            moved = [str(i) for i, digests in enumerate(per_pair) if len(set(digests)) > 1]
            print("  pairs differing:", *moved)
    print("identical" if differ == 0 else f"{differ} digests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
