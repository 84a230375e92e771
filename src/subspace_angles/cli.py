"""Batch front door: run subspace problems from files, print reports.

    angles run <files...> [--oracle] [--format json|text] [--mode euclidean|conformal]
    angles selftest [--seed S] [--cases N]

Exit codes: 0 success, 2 parse/usage error, 3 degenerate span,
4 ambiguous rank (a report that breaks its own invariants), 1 any other
computation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AmbiguousRankError, DegenerateSpanError, GaError, ProblemFormatError
from .problems import MODES, parse_problem, run_problem, selftest

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_AMBIGUOUS = 4


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, ProblemFormatError):
        return EXIT_PARSE
    if isinstance(exc, DegenerateSpanError):
        return EXIT_DEGENERATE
    if isinstance(exc, AmbiguousRankError):
        return EXIT_AMBIGUOUS
    return EXIT_FAILURE


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def render_text(doc: dict, source: str) -> str:
    lines = [f"problem: {source}"]
    lines.append(f"n={doc['input']['n']} mode={doc['input']['mode']}")
    lines.append(f"s={doc['s']} t={doc['t']} lowest_grade={doc['lowest_grade']}")
    lines.append("angles (rad): " + ", ".join(f"{a:.9f}" for a in doc["angles_rad"]))
    lines.append("angles (deg): " + ", ".join(f"{a:.6f}" for a in doc["angles_deg"]))
    lines.append(f"cos_total={doc['cos_total']:.12g} cos_interior={doc['cos_interior']:.12g} "
                 f"sin_interior_product={doc['sin_interior_product']:.12g}")
    if doc["planes"]:
        for i, plane in enumerate(doc["planes"]):
            terms = " + ".join(f"{v:.9g}*{k}" for k, v in sorted(plane.items()))
            lines.append(f"plane {i + 1}: {terms}")
    else:
        lines.append("planes: (none)")
    lines.append(f"residual={doc['residual']:.3e}")
    if "oracle" in doc:
        lines.append("oracle angles (rad): "
                     + ", ".join(f"{a:.9f}" for a in doc["oracle"]["angles_rad"]))
        lines.append(f"oracle max deviation: {doc['oracle']['max_deviation']:.3e}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angles",
        description="Relative orientation of linear subspaces via the geometric product.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run problem files and print reports")
    run.add_argument("files", nargs="+", help="problem documents (one JSON object each)")
    run.add_argument("--oracle", action="store_true",
                     help="cross-check with the matrix-decomposition route")
    run.add_argument("--format", choices=("json", "text"), default="json")
    run.add_argument("--mode", choices=MODES, default=MODES[0])

    st = sub.add_parser("selftest", help="engine and oracle checked against seeded pairs of known angles")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--cases", type=int, default=100)
    return parser


def _run_command(args, out, err) -> int:
    first = True
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{path}: cannot read: {exc}", file=err)
            return EXIT_PARSE
        try:
            problem = parse_problem(text, mode=args.mode)
            doc = run_problem(problem, oracle_enabled=args.oracle)
        except (GaError, ValueError) as exc:  # ValueError: non-finite coefficients
            print(f"{path}: {type(exc).__name__}: {exc}", file=err)
            return _exit_code(exc)
        if not first:
            print(file=out)
        first = False
        if args.format == "json":
            print(render_json(doc), file=out)
        else:
            print(render_text(doc, path), file=out)
    return EXIT_OK


def _selftest_command(args, out, err) -> int:
    for flag, value, least in (("--seed", args.seed, 0), ("--cases", args.cases, 1)):
        if value < least:
            print(f"angles selftest: {flag}: expected an integer >= {least}", file=err)
            return EXIT_PARSE
    summary = selftest(seed=args.seed, cases=args.cases)
    print(f"selftest: {summary['cases']} cases, seed {summary['seed']}", file=out)
    print(f"max angle error vs truth: engine {summary['max_engine_error']:.3e}, "
          f"oracle {summary['max_oracle_error']:.3e}", file=out)
    print(f"max reconstruction residual:   {summary['max_residual']:.3e}", file=out)
    print(f"s/t mismatches: {summary['mismatches']}", file=out)
    if not summary["ok"]:
        print(f"failing cases: worst deviation at case {summary['worst_case']}, s/t mismatches at "
              f"cases {', '.join(map(str, summary['mismatch_cases'])) or 'none'}", file=out)
    print("selftest: PASS" if summary["ok"] else "selftest: FAIL", file=out)
    return EXIT_OK if summary["ok"] else EXIT_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_command(args, sys.stdout, sys.stderr)
    return _selftest_command(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
