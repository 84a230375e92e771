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
import json  # noqa: E402
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
    args = parser.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
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
