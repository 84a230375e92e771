#!/usr/bin/env python3
"""Time the library pair path stage by stage, for one or two versions of the package.

Run from the repository root:

    python3 tools/stages.py --src /path/to/parent/src --src src
    python3 tools/stages.py --passes 5

The inputs are the benchmark's seed-1 pairs (perfbench/inputs.py): the
first --pairs (300) of corpus_small and of wide_dense, which has 63.

Each table is one row of SPECS: its whole, the module of the package whose
functions it times, and per function the JSON key and heading of its stage.
The recorder wraps those functions, runs the whole once per pair and keeps
each pair's outermost calls to them, in order, with their arguments: a call
made inside another recorded call, such as the wedge of L that _self_check
makes, is not one of the pair's calls.  The first row's whole is the pair,
perfbench/run.py's run_pair; each other row's whole is one of the first
row's stages, run on the arguments run_pair passed it.  Recording runs
every pair, which fills each version's caches.  A stage is one loop over
its recorded calls, in microseconds per pair.  A row under the first also
times its chain, which replays each pair's recorded calls in order and
drops each result as soon as it returns, and its own work, the whole minus
the chain: the glue between the calls (argument checks, counts, the objects
of the result) and the cost of keeping their outputs alive.  The stages
timed one loop each sum to less than the chain, so the whole minus their
sum would overstate own work.  The whole and the chain are timed in one
loop over the pairs, back to back on each pair, so that each pair's
difference is read at one host speed; own work is, per pair, the median
of that difference over the passes, averaged over the pairs.  The replayed
chain also pays for its own loop over the calls, so an own work near zero
can read slightly below 0.

The versions are imported side by side in one process
(report_digest.load_package), with one BLAS thread as in the benchmark.
Each pass times every loop once per version, the versions taking turns to
go first, and each other figure is the best of --passes passes.

Per version, the first table gives the pair and each of its stages with its
share of their sum; each later table gives its whole, its stages, the chain
and own work, each with its share of the whole.  A version whose module
lacks one of a row's functions gets one line saying so instead of the
table.  The last line of standard output is one JSON object:
{"passes", "pairs", "src", "us_per_pair", "inner_us_per_call"}, where
us_per_pair[workload][key] holds the first table's figures and
inner_us_per_call[workload][key] the later tables', one figure per --src,
in their order, null for a version without the row.  Two versions loaded
in one process are not timed alike: the one loaded second can read a few
per cent apart with identical code, so a gap under about 4 % holds only
when it shows in both load orders (run once with each --src first).

The tables, one line per row of SPECS (whole, module: stage key = function
where they differ; then the chain and own-work keys):

"""

import argparse
import json
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "perfbench"))

# report_digest sets one BLAS thread before NumPy is first imported, so it comes first.
from report_digest import ROOT, load_package  # noqa: E402

import inputs  # noqa: E402
import run as harness  # noqa: E402

WORKLOADS = ("corpus_small", "wide_dense")

# one row per table: stages are (function, JSON key, heading); module "" is the package itself
Spec = namedtuple("Spec", "whole module stages chain own title")
SPECS = (
    Spec("pair", "", (("blade_from_spanning_vectors", "blades", "blades"),
                      ("relative_angle", "relative_angle", "`relative_angle`"),
                      ("orthonormal_basis", "oracle_bases", "oracle bases"),
                      ("principal_angles", "principal_angles", "`principal_angles`")),
         None, None, "{src}, µs per pair, best of {passes} passes"),
    Spec("relative_angle", "engine", (("_spectrum", "_spectrum", "`_spectrum`"),
                                      ("_read_clusters", "_read_clusters", "`_read_clusters`"),
                                      ("_unit_wedge", "plane_wedges", "plane wedges"),
                                      ("_self_check", "_self_check", "`_self_check`")),
         "chained", "own_work", "inside relative_angle, µs per call, share of relative_angle"),
    Spec("blades", "blades", (("_wedge_coeffs", "_wedge_coeffs", "`_wedge_coeffs`"), ("_norm", "_norm", "`_norm`"),
                              ("_mgs", "_mgs", "`_mgs`")),
         "blades_chained", "blades_own_work", "inside blades, µs per pair, share of blades"),
    Spec("principal_angles", "oracle", (("_inner_products", "_inner_products", "`_inner_products`"),
                                        ("_svd", "_svd", "`_svd`"),
                                        ("_principal_vectors", "_principal_vectors", "`_principal_vectors`"),
                                        ("_sine_route", "_sine_route", "`_sine_route`")),
         "oracle_chained", "oracle_own_work", "inside principal_angles, µs per pair, share of principal_angles"),
)
HEADINGS = {"pair": "pair", **{key: heading for spec in SPECS for _, key, heading in spec.stages},
            **{spec.chain: "chained" for spec in SPECS[1:]}, **{spec.own: "own work" for spec in SPECS[1:]}}

__doc__ += "\n".join(
    f"    {spec.whole:<18}{spec.module or 'package'}: "
    + ", ".join(key if key == name else f"{key} = {name}" for name, key, _ in spec.stages)
    + (f"; {spec.chain}, {spec.own}" if spec.chain else "") for spec in SPECS) + "\n"


def columns(spec) -> list[str]:
    """The keys of a row's table: its whole, its stages, then its chain and own work."""
    return [spec.whole, *(key for _, key, _ in spec.stages), *((spec.chain, spec.own) if spec.chain else ())]


def record_calls(module, stages, runs) -> list[list]:
    """Per run (a list of (key, function, arguments) calls, replayed in order), the outermost
    calls it made to the module's functions named in stages, as (key, real function,
    arguments) in order; a call made inside another recorded call is left out."""
    real = {name: getattr(module, name) for name, _, _ in stages}
    recorded, depth = [], 0

    def recorder(function, key):
        def call(*args):
            nonlocal depth
            if depth == 0:
                recorded[-1].append((key, function, args))
            depth += 1
            try:
                return function(*args)
            finally:
                depth -= 1
        return call

    try:
        for name, key, _ in stages:
            setattr(module, name, recorder(real[name], key))
        for calls in runs:
            recorded.append([])
            for _, function, args in calls:
                function(*args)
    finally:
        for name, function in real.items():
            setattr(module, name, function)
    return recorded


def record(sa, pairs) -> dict:
    """{key: per pair, its recorded calls} for one version: the pair itself under "pair",
    each row's calls of each stage under the stage's key, and all of them, in order, under
    the row's chain; a row whose module lacks one of its functions is left out."""
    runs = {"pair": [[("pair", harness.run_pair, (sa, pair))] for pair in pairs]}
    for spec in SPECS:
        module = getattr(sa, spec.module) if spec.module else sa
        if spec.whole not in runs or not all(hasattr(module, name) for name, _, _ in spec.stages):
            continue
        recorded = record_calls(module, spec.stages, runs[spec.whole])
        if spec.chain:
            runs[spec.chain] = recorded
        for _, key, _ in spec.stages:
            runs[key] = [[call for call in calls if call[0] == key] for calls in recorded]
    return runs


def loops(runs: dict) -> dict:
    """{key: [(function, arguments)]}: each key's calls over every pair, in order."""
    return {key: [(function, args) for calls in per_pair for _, function, args in calls]
            for key, per_pair in runs.items()}


def time_loop(calls, pairs: int) -> float:
    """Microseconds per pair of one loop over the calls, each result dropped as it returns."""
    start = time.perf_counter_ns()
    for function, args in calls:
        function(*args)
    return (time.perf_counter_ns() - start) / pairs / 1e3


def time_paired(wholes, chains) -> tuple[float, float, list[float]]:
    """One loop over the pairs that runs each pair's whole and then its chain, each timed,
    back to back: the whole and the chain in microseconds per pair, and per pair the whole
    minus the chain in microseconds."""
    clock = time.perf_counter_ns
    differences, whole_ns, chain_ns = [], 0, 0
    for whole, chain in zip(wholes, chains):
        start = clock()
        for _, function, args in whole:
            function(*args)
        middle = clock()
        for _, function, args in chain:
            function(*args)
        end = clock()
        whole_ns, chain_ns = whole_ns + middle - start, chain_ns + end - middle
        differences.append((2 * middle - start - end) / 1e3)
    return whole_ns / len(wholes) / 1e3, chain_ns / len(wholes) / 1e3, differences


def measure(srcs, passes: int, pairs: int) -> dict:
    """best[workload][key]: the best of passes passes per version, in srcs' order, None for
    a row the version lacks; each own work is, per pair, the median over the passes of its
    whole minus its chain, timed back to back, averaged over the pairs."""
    versions = [load_package(src, f"subspace_angles_{i}") for i, src in enumerate(srcs)]
    corpora = {workload: getattr(inputs, workload)(1)[:pairs] for workload in WORKLOADS}
    runs = {workload: [record(sa, corpora[workload]) for sa in versions] for workload in WORKLOADS}
    timed = {workload: [loops(per_version) for per_version in runs[workload]] for workload in WORKLOADS}
    rows = {spec.whole: spec for spec in SPECS[1:]}
    order = ["pair", *(key for spec in SPECS for _, key, _ in spec.stages)]
    best = {workload: {key: [None] * len(versions) for key in (*order, *(spec.chain for spec in SPECS[1:]))}
            for workload in WORKLOADS}
    differences = {workload: {spec.own: [[] for _ in versions] for spec in SPECS[1:]} for workload in WORKLOADS}

    def keep(figures, i, figure):
        figures[i] = figure if figures[i] is None else min(figures[i], figure)

    for n in range(passes):
        turns = range(len(versions)) if n % 2 == 0 else range(len(versions) - 1, -1, -1)
        for workload in WORKLOADS:
            figures = best[workload]
            for key in order:
                spec = rows.get(key)
                for i in turns:
                    recorded = runs[workload][i]
                    if spec is not None and spec.chain in recorded:
                        whole, chain, per_pair = time_paired(recorded[key], recorded[spec.chain])
                        keep(figures[key], i, whole)
                        keep(figures[spec.chain], i, chain)
                        differences[workload][spec.own][i].append(per_pair)
                    elif key in timed[workload][i]:
                        keep(figures[key], i, time_loop(timed[workload][i][key], len(corpora[workload])))
    for workload, figures in best.items():
        for own, per_version in differences[workload].items():
            figures[own] = [statistics.fmean(map(statistics.median, zip(*per_pass))) if per_pass else None
                            for per_pass in per_version]
    return best


def table(best: dict, i: int, spec) -> list[str]:
    """Version i's table of a row: each figure in µs and as a share of the sum of the stages
    (the first row) or of the whole (a row with a chain, whose stages leave out own work)."""
    keys = columns(spec)
    widths = [max(len(HEADINGS[key]), 13) for key in keys]
    rows = ["| workload     | " + " | ".join(HEADINGS[k].ljust(w) for k, w in zip(keys, widths)) + " |",
            "|--------------|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    for workload in WORKLOADS:
        us = {key: best[workload][key][i] for key in keys}
        whole = us[spec.whole] if spec.chain else sum(us[key] for key in keys[1:])
        cells = [f"{us[keys[0]]:.1f}"] + [f"{us[key]:.1f} ({100.0 * us[key] / whole:.0f} %)" for key in keys[1:]]
        rows.append(f"| {workload:<12} | " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="directory holding subspace_angles, once or twice (default ./src)")
    parser.add_argument("--passes", type=int, default=21, help="timed passes; each figure is the best")
    parser.add_argument("--pairs", type=int, default=300, help="leading seed-1 pairs of each workload")
    args = parser.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    if len(srcs) > 2:
        parser.error("give --src once or twice")
    if args.passes < 1 or args.pairs < 1:
        parser.error("--passes and --pairs must be at least 1")
    best = measure(srcs, args.passes, args.pairs)
    for i, src in enumerate(srcs):
        for spec in SPECS:
            if best[WORKLOADS[0]][columns(spec)[1]][i] is None:
                print(f"version {i}: {spec.whole} has no {', '.join(name for name, _, _ in spec.stages)}")
            else:
                print(f"version {i}: " + spec.title.format(src=src, passes=args.passes))
                print(*table(best, i, spec), sep="\n")

    def figures(keys):
        return {w: {k: [None if x is None else round(x, 1) for x in best[w][k]] for k in keys} for w in WORKLOADS}

    print(json.dumps({"passes": args.passes, "pairs": args.pairs, "src": srcs,
                      "us_per_pair": figures(columns(SPECS[0])),
                      "inner_us_per_call": figures([key for spec in SPECS[1:] for key in columns(spec)[1:]])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
