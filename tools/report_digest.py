#!/usr/bin/env python3
"""Compare, value by value, what two versions of the package report.

Run from the repository root:

    python3 tools/report_digest.py --src /path/to/parent/src --src src
    python3 tools/report_digest.py --truth --workloads corpus_small wide_dense --seeds 1 2 3

The inputs are the benchmark's, from perfbench/inputs.py.  Per pair of
corpus_small and wide_dense: both blades, their scalar product
<A reverse(B)>_0 (`a.mv.scalar_product(b.mv.reverse())`), the
`relative_angle` report, `rotor_reconstruction(report, |A|, |B|)`, the
oracle's principal pairs and the `bivector_split` of sum_j 2^-j (a_j ^ b_j)
over the rows j < min(grades), whose distinct coefficients reach the
eigensolve.  Per problem file of
cli_batch: the `angles run --oracle` document, and as the last item the
`angles selftest --seed <seed>` summary.  A raising call gives its exception.

Both versions are imported side by side in one process.  Each result is
walked into leaves named by their path of fields and keys (`blades.frame`,
`report.residual`, `run.oracle.angles_rad`, `selftest.max_residual`), so a
new field is compared without being listed here.  Float leaves are
Multivector coefficients, arrays and floats; a plane's sparse map in
the CLI document is one float field whose missing keys read as 0.0.  Every
other leaf is discrete: ints, flags, strings, list lengths, dict keys,
array shapes, exception reprs.  A pair moved when a discrete leaf differs.

Per (workload, seed) the first line gives the pairs, the moved ones and the
largest absolute move of each float field whose bytes differ in a pair that
did not move; the lines under it name the pairs behind each difference,
counted from 0 in input order.  A field path that only one version has
in a (workload, seed), such as a new dataclass field, is left out of that
comparison; one line per such field, before the last, names the `--src`
that has it.  The last line is `identical` (exit status 0), `no discrete
field moved` (1; also when only such fields differ) or `N pairs moved`
(1).  A copy whose residuals double gives:

    cli_batch 1 pairs=21 moved=0 run.residual=2.55e-15 selftest.max_residual=2.49e-15
      run.residual: 0 1 2 ... 19
      selftest.max_residual: 20
    no discrete field moved

--truth, with one --src, prints instead the benchmark's own verdict on each
(workload, seed): every report is checked against the true angles by the
`Tally` of perfbench/run.py (imported, never changed), and the row gives
the pairs attempted and failed, the failures by reason, how many lack the
form of a known defect ("unexplained"), the worst engine and oracle
error against the truth, their root-mean-square error over every angle
matched to the truth (which, unlike a maximum, ranks two versions that
differ by rounding) and the worst rotor residual.  cli_batch runs its
problem files in-process, without the selftest, which checks both routes
against the angles its own cases are built from (`sampling.sample_spans`)
and whose summary the comparison above reads.  The exit status is 1 when
any failure is unexplained.
"""

import os

# One BLAS thread, as in the benchmark, so eigh and matmul round the same way.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus_small", "wide_dense", "cli_batch")


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raising call is part of what is compared
        return exc


def leaves(value) -> tuple[dict, dict]:
    """(floats, discrete) of value, both keyed by (field, position): field the
    dotted path of dataclass fields and dict keys, position the list indices
    (and a sparse map's keys) on the way."""
    floats, discrete = {}, {}

    def visit(value, field, where):
        key = (field, where)
        if isinstance(value, BaseException):
            discrete[key] = repr(value)
        elif isinstance(value, (float, np.floating)):
            floats[key] = value
        elif hasattr(value, "coeffs") and hasattr(value, "sig"):          # Multivector
            discrete[key] = repr(value.sig)
            floats[key] = value.coeffs
        elif isinstance(value, np.ndarray):
            discrete[key] = (value.dtype.str, value.shape)
            floats[key] = value
        elif dataclasses.is_dataclass(value):
            discrete[key] = type(value).__name__
            for f in dataclasses.fields(value):
                visit(getattr(value, f.name), f"{field}.{f.name}".lstrip("."), where)
        elif isinstance(value, (list, tuple)):
            discrete[key] = len(value)
            for index, item in enumerate(value):
                visit(item, field, where + (index,))
        elif isinstance(value, dict) and all(isinstance(v, float) for v in value.values()):
            for name, v in value.items():                                 # a plane's sparse map
                floats[field, where + (name,)] = v
        elif isinstance(value, dict):
            discrete[key] = tuple(sorted(value))
            for name, item in value.items():
                visit(item, f"{field}.{name}".lstrip("."), where)
        else:                                                              # int, bool, str, None
            discrete[key] = repr(value)

    visit(value, "", ())
    return floats, discrete


def pair_bivector(sa, pair):
    """sum_j 2^-j (a_j ^ b_j) over the rows the two spanning sets share."""
    sig = sa.Signature(pair.a_rows.shape[1])
    f = sa.Multivector.zero(sig)
    for j, (a, b) in enumerate(zip(pair.a_rows, pair.b_rows)):
        f = f + (sa.Multivector.vector(sig, a) ^ sa.Multivector.vector(sig, b)) * 2.0 ** -j
    return f


def library_item(sa, pair) -> dict:
    blades = [attempt(sa.blade_from_spanning_vectors, rows) for rows in (pair.a_rows, pair.b_rows)]
    item = {"blades": blades, "scalar_product": None, "report": None, "rotor_reconstruction": None}
    if not any(isinstance(b, Exception) for b in blades):
        item["scalar_product"] = attempt(lambda: blades[0].mv.scalar_product(blades[1].mv.reverse()))
        item["report"] = report = attempt(sa.relative_angle, *blades)
        if not isinstance(report, Exception):
            item["rotor_reconstruction"] = attempt(sa.rotor_reconstruction, report,
                                                   blades[0].magnitude, blades[1].magnitude)
    item["oracle"] = attempt(lambda: sa.principal_angles(sa.orthonormal_basis(pair.a_rows),
                                                         sa.orthonormal_basis(pair.b_rows)))
    item["bivector_split"] = attempt(lambda: sa.bivector_split(pair_bivector(sa, pair)))
    return item


def problem_files(inputs, seed: int):
    """(mode, problem) of each of cli_batch's problem files, the Euclidean ones first."""
    for mode, problems in (("euclidean", inputs.euclidean_problems(seed)),
                           ("conformal", inputs.conformal_problems(seed))):
        for problem in problems:
            yield mode, problem


def run_document(sa, mode: str, problem):
    """The `angles run --oracle` document of one problem file, or the exception it raised."""
    return attempt(lambda: sa.run_problem(sa.parse_problem(json.dumps(problem.doc), mode=mode),
                                          oracle_enabled=True))


def items(inputs, workload: str, seed: int) -> list:
    """One function per pair (or problem file, or selftest) from a package to its result."""
    if workload != "cli_batch":
        return [partial(library_item, pair=pair) for pair in getattr(inputs, workload)(seed)]
    return [*((lambda sa, mode=mode, problem=problem: {"run": run_document(sa, mode, problem)})
              for mode, problem in problem_files(inputs, seed)),
            lambda sa: {"selftest": attempt(sa.problems.selftest, seed=seed)}]


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


def largest_gap(x: np.ndarray, y: np.ndarray) -> float:
    """Largest absolute difference of two float arrays of one shape; equal
    values, infinities and NaNs included, differ by 0, any other NaN by inf."""
    if x.size == 0:
        return 0.0
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
    gap[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
    return float(np.nan_to_num(gap, nan=math.inf).max())


def compare(srcs, workloads, seeds) -> int:
    """Print, per (workload, seed), the pairs whose discrete leaves moved from
    srcs[0] to srcs[1] and the largest move of each float field whose bytes
    differ in the others, then each field only one version has; 1 unless
    nothing differs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    versions = [load_package(src, f"subspace_angles_{i}") for i, src in enumerate(srcs)]

    total_moved = total_fields = 0
    only = {}                                          # field -> the --src that alone has it
    for workload in workloads:
        for seed in seeds:
            calls = items(inputs, workload, seed)
            results = [[leaves(call(sa)) for sa in versions] for call in calls]
            fields = [{key[0] for result in results for part in result[side] for key in part}
                      for side in (0, 1)]
            for side in (0, 1):
                only.update(dict.fromkeys(fields[side] - fields[1 - side], srcs[side]))
            lone = fields[0] ^ fields[1]                 # left out of this comparison
            moved, gaps, behind = [], {}, {}
            for index, result in enumerate(results):
                (floats_a, discrete_a), (floats_b, discrete_b) = (
                    ({key: v for key, v in part.items() if key[0] not in lone} for part in side)
                    for side in result)
                if discrete_a != discrete_b:
                    moved.append(index)
                    continue
                for key in floats_a.keys() | floats_b.keys():
                    x, y = (np.ravel(np.asarray(f.get(key, 0.0), dtype=float)) for f in (floats_a, floats_b))
                    if x.tobytes() != y.tobytes():
                        field = key[0]
                        gaps[field] = max(gaps.get(field, 0.0), largest_gap(x, y))
                        behind.setdefault(field, set()).add(index)
            total_moved += len(moved)
            total_fields += len(gaps)
            print(f"{workload} {seed} pairs={len(calls)} moved={len(moved)}",
                  *(f"{field}={gaps[field]:.3g}" for field in sorted(gaps)))
            if moved:
                print("  pairs moved:", *moved)
            for field in sorted(gaps):
                print(f"  {field}:", *sorted(behind[field]))
    for field in sorted(only):
        print(f"{field}: only in --src {only[field]}")
    if total_moved:
        print(f"{total_moved} pairs moved")
    else:
        print("no discrete field moved" if total_fields or only else "identical")
    return 1 if total_moved or total_fields or only else 0


def truth_reports(harness, inputs, sa, workload: str, seed: int):
    """(pair, (angles, s, t, oracle angles, residual)) per input, or the exception
    in place of the tuple."""
    if workload != "cli_batch":
        for pair in getattr(inputs, workload)(seed):
            got = attempt(harness.run_pair, sa, pair)
            yield pair, got if isinstance(got, Exception) else (
                got[0].angles, got[0].s, got[0].t, got[1].angles, got[0].residual)
        return
    for mode, problem in problem_files(inputs, seed):
        doc = run_document(sa, mode, problem)
        yield problem.pair, doc if isinstance(doc, Exception) else (
            doc["angles_rad"], doc["s"], doc["t"], doc["oracle"]["angles_rad"], doc["residual"])


def truth(src: str, workloads, seeds) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import run as harness
    sa = load_package(src, "subspace_angles_0")

    unexplained = 0
    for workload in workloads:
        for seed in seeds:
            tally, residual = harness.Tally(), 0.0
            squares = {"engine": [], "oracle": []}     # squared errors of the matched angles
            for pair, got in truth_reports(harness, inputs, sa, workload, seed):
                if isinstance(got, Exception):
                    tally.raised(pair, got)
                    continue
                residual = max(residual, float(got[4]))
                tally.check(pair, *got[:4], float(got[4]))
                for route, angles in (("engine", got[0]), ("oracle", got[3])):
                    squares[route] += [(g - t) ** 2 for _, t, g in harness.matched(angles, pair) or ()]
            rms = {route: math.sqrt(math.fsum(sq) / len(sq)) if sq else 0.0 for route, sq in squares.items()}
            unexplained += tally.unexplained
            reasons = ", ".join(f"{k}: {v}" for k, v in tally.reasons.most_common()) or "-"
            print(f"{workload} {seed} attempted={tally.attempted} failed={tally.failed} "
                  f"unexplained={tally.unexplained} engine_err={tally.engine_err:.3g} "
                  f"engine_rms={rms['engine']:.3g} oracle_err={tally.oracle_err:.3g} "
                  f"oracle_rms={rms['oracle']:.3g} residual_max={residual:.3g} "
                  f"reasons: {reasons}")
    return 1 if unexplained else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="directory holding subspace_angles: twice to compare two versions, "
                             "once with --truth (default ./src)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--truth", action="store_true",
                        help="print the benchmark's verdict against the true angles instead")
    args = parser.parse_args(argv)
    if args.truth:
        srcs = args.src or [str(ROOT / "src")]
        if len(srcs) != 1:
            parser.error("--truth takes one --src")
        return truth(srcs[0], args.workloads, args.seeds)
    if not args.src or len(args.src) != 2:
        parser.error("give two --src to compare, or --truth")
    return compare(args.src, args.workloads, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
