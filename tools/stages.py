#!/usr/bin/env python3
"""Time the library pair path stage by stage, for one or two versions of the package.

Run from the repository root:

    python3 tools/stages.py --src /path/to/parent/src --src src
    python3 tools/stages.py --passes 5

The inputs are the benchmark's seed-1 pairs (perfbench/inputs.py): the
first --pairs (300) of corpus_small and of wide_dense, which has 63.  Per
version and workload, each of these is timed as its own loop over the
pairs, in microseconds per pair:

    pair              the whole cross-checked pair, perfbench/run.py's run_pair
    blades            blade_from_spanning_vectors of both spans
    relative_angle    relative_angle of the two blades
    oracle_bases      orthonormal_basis of both spans
    principal_angles  principal_angles of the two bases

and, for a version whose engine reads its report in named stages, each
stage inside relative_angle, in microseconds per call, on the outputs of
the stage before it (the larger-grade blade first, as relative_angle
swaps them):

    _spectrum         O, the eigensolve of (O + O^T)/2 and O in its eigenbasis
    _read_clusters    the principal planes and L's directions from them
    plane_wedges      one _unit_wedge per principal plane
    _self_check       L's wedge, the rotor chain, its sign and the residual
    chained           the four stages above back to back, one pair at a time

and, inside blade_from_spanning_vectors, in microseconds per pair (both
spans), each call on the arguments the version passed it, recorded on one
untimed run:

    _wedge_coeffs     the wedge of the rows: the blade's coefficients
    _norm             its magnitude, the 2-norm of those coefficients
    _mgs              Gram-Schmidt of the rows: the blade's frame
    blades_chained    the three back to back, one pair at a time, each
                      _norm on the coefficients just computed

and, for a version whose oracle reads principal_angles in named stages,
each of them in microseconds per pair, on the arguments principal_angles
passed it, recorded on one untimed run:

    _inner_products     the checks of both bases and M = Q_A Q_B^T
    _svd                the one-sided Jacobi SVD of M
    _principal_vectors  the principal vectors and the arccosines
    _sine_route         the sines of the cluster near zero and the result
    oracle_chained      the four back to back, one pair at a time, each on
                        the outputs of the stages before it

The versions are imported side by side in one process
(report_digest.load_package), with one BLAS thread as in the benchmark.
Every pair runs once untimed first, which fills each version's caches.
Then each pass times every loop once per version, the versions taking
turns to go first, and each figure is the best of --passes passes.

Per version, a table gives the pair's time and each stage's time with its
share of the sum of the four stages.  A second table gives relative_angle
and each of its named stages with its share of relative_angle, then
chained and own work, relative_angle minus chained: its argument checks,
the Multivectors of its planes and L, the counts and the report, and the
cost of keeping its planes' and L's arrays alive, which chained drops.
The stages timed one loop each sum to less than chained, so relative_angle
minus their sum overstates its own work; minus chained it does not.  A
third table does the same for blades: the three calls inside it, chained
and own work, blades minus blades_chained (converting and checking the
rows, their squared norms, the finiteness check and the Blade).  A fourth
does the same for principal_angles: its four stages, chained and own work,
principal_angles minus oracle_chained (the calls and the unpacking between
them).  A version without the named stages or calls gets one line saying so
instead of the table.  The last line of standard output is one JSON object:
{"passes", "pairs", "src", "us_per_pair", "inner_us_per_call"}, where
us_per_pair[workload][stage] and inner_us_per_call[workload][stage] (own
work as own_work, blades_own_work and oracle_own_work) hold one figure per
--src, in their order, null for a version without the named stages.  Two versions loaded
in one process are not timed alike: the one loaded second can read a few
per cent apart with identical code, so a gap under about 4 % holds only
when it shows in both load orders (run once with each --src first).
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "perfbench"))

# report_digest sets one BLAS thread before NumPy is first imported, so it comes first.
from report_digest import ROOT, load_package  # noqa: E402

import inputs  # noqa: E402
import run as harness  # noqa: E402

WORKLOADS = ("corpus_small", "wide_dense")
STAGES = ("pair", "blades", "relative_angle", "oracle_bases", "principal_angles")
HEADINGS = ("pair", "blades", "`relative_angle`", "oracle bases", "`principal_angles`")
INNER = ("_spectrum", "_read_clusters", "plane_wedges", "_self_check", "chained")
INNER_HEADINGS = ("`relative_angle`", "`_spectrum`", "`_read_clusters`", "plane wedges", "`_self_check`",
                  "chained", "own work")
NAMED_STAGES = ("_spectrum", "_read_clusters", "_self_check")
BLADE_CALLS = ("_wedge_coeffs", "_norm", "_mgs")
BLADE_INNER = (*BLADE_CALLS, "blades_chained")
BLADE_HEADINGS = ("blades", "`_wedge_coeffs`", "`_norm`", "`_mgs`", "chained", "own work")
ORACLE_CALLS = ("_inner_products", "_svd", "_principal_vectors", "_sine_route")
ORACLE_INNER = (*ORACLE_CALLS, "oracle_chained")
ORACLE_HEADINGS = ("`principal_angles`", "`_inner_products`", "`_svd`", "`_principal_vectors`", "`_sine_route`",
                   "chained", "own work")
OWN_WORK = (("own_work", "relative_angle", "chained"), ("blades_own_work", "blades", "blades_chained"),
            ("oracle_own_work", "principal_angles", "oracle_chained"))
# the order of the loops in a pass: each chain right after its whole, so that own work,
# their difference, is read at one host speed
TIMED = ("pair", "blades", "blades_chained", "relative_angle", "chained", "oracle_bases", "principal_angles",
         "oracle_chained", *INNER[:-1], *BLADE_CALLS, *ORACLE_CALLS)


def stage_loops(sa, pairs) -> dict:
    """{stage: (call, argument tuples, one per pair)} for one version; running every
    pair once here fills the version's caches."""
    for pair in pairs:
        harness.run_pair(sa, pair)
    spans = [(pair.a_rows, pair.b_rows) for pair in pairs]
    blade_calls = blade_loops(sa.blades, spans)
    blades = [tuple(map(sa.blade_from_spanning_vectors, span)) for span in spans]
    bases = [tuple(map(sa.orthonormal_basis, span)) for span in spans]
    return {
        "pair": (lambda pair: harness.run_pair(sa, pair), [(pair,) for pair in pairs]),
        "blades": (lambda a, b: (sa.blade_from_spanning_vectors(a), sa.blade_from_spanning_vectors(b)),
                   spans),
        "relative_angle": (sa.relative_angle, blades),
        "oracle_bases": (lambda a, b: (sa.orthonormal_basis(a), sa.orthonormal_basis(b)), spans),
        "principal_angles": (sa.principal_angles, bases),
        **inner_loops(sa.engine, blades),
        **blade_calls,
        **oracle_loops(sa.oracle, bases),
    }


def record_calls(module, names, run) -> tuple[dict, dict] | None:
    """(real, recorded): the module's functions of those names, and {name: [argument tuples]}
    of every call run() made to them, in order; None for a module without them."""
    if not all(hasattr(module, name) for name in names):
        return None
    real = {name: getattr(module, name) for name in names}
    recorded = {name: [] for name in names}

    def recorder(name):
        def call(*args):
            recorded[name].append(args)
            return real[name](*args)
        return call

    try:
        for name in names:
            setattr(module, name, recorder(name))
        run()
    finally:
        for name, call in real.items():
            setattr(module, name, call)
    return real, recorded


def blade_loops(blades, spans) -> dict:
    """{stage: (call, argument tuples, one per pair)} for the calls inside
    blade_from_spanning_vectors, on the arguments it passes them for each span, recorded
    while it builds every span once; {} for a blades module without those calls."""
    calls = record_calls(blades, BLADE_CALLS,
                         lambda: [blades.blade_from_spanning_vectors(rows) for span in spans for rows in span])
    if calls is None:
        return {}
    real, recorded = calls
    wedge, norm, mgs = real.values()

    def chained(a, b):
        for wedge_args, mgs_args in (a, b):
            norm(wedge(*wedge_args))
            mgs(*mgs_args)

    def per_pair(args):
        return list(zip(args[0::2], args[1::2]))

    return {
        **{name: (lambda a, b, call=call: (call(*a), call(*b)), per_pair(recorded[name]))
           for name, call in real.items()},
        "blades_chained": (chained, per_pair(list(zip(recorded["_wedge_coeffs"], recorded["_mgs"])))),
    }


def oracle_loops(oracle, bases) -> dict:
    """{stage: (call, argument tuples, one per pair)} for the named stages inside
    principal_angles, on the arguments it passes them for each pair's bases, recorded while
    it runs every pair once; {} for an oracle without those stages."""
    calls = record_calls(oracle, ORACLE_CALLS, lambda: [oracle.principal_angles(*pair) for pair in bases])
    if calls is None:
        return {}
    real, recorded = calls
    inner_products, svd, principal_vectors, sine_route = real.values()

    def chained(basis_a, basis_b):
        qa, qb, m = inner_products(basis_a, basis_b)
        u, s, v = svd(m)
        sine_route(*principal_vectors(u, s, v, qa, qb), qa)

    return {**{name: (call, recorded[name]) for name, call in real.items()}, "oracle_chained": (chained, bases)}


def inner_loops(engine, blades) -> dict:
    """{stage: (call, argument tuples)} for the named stages inside relative_angle, each
    on the previous stage's outputs; {} for an engine without them."""
    if not all(hasattr(engine, name) for name in NAMED_STAGES):
        return {}
    ordered = [(a, b) if a.grade >= b.grade else (b, a) for a, b in blades]
    spectra = [engine._spectrum(a, b) for a, b in ordered]
    clusters = [engine._read_clusters(*spectrum) for spectrum in spectra]
    checks = [(a, b, [theta for theta, _ in interior], [pair for _, pair in interior], flipped)
              for (a, b), (interior, flipped) in zip(ordered, clusters)]

    def chained(a, b):
        interior, flipped = engine._read_clusters(*engine._spectrum(a, b))
        pairs = [pair for _, pair in interior]
        for pair in pairs:
            engine._unit_wedge(a.sig, pair)
        engine._self_check(a, b, [theta for theta, _ in interior], pairs, flipped)

    return {
        "_spectrum": (engine._spectrum, ordered),
        "_read_clusters": (engine._read_clusters, spectra),
        "plane_wedges": (lambda sig, pairs: [engine._unit_wedge(sig, pair) for pair in pairs],
                         [(a.sig, pairs) for a, _, _, pairs, _ in checks]),
        "_self_check": (engine._self_check, checks),
        "chained": (chained, ordered),
    }


def time_loop(call, arguments) -> float:
    """Microseconds per call of one loop over the arguments."""
    start = time.perf_counter_ns()
    for args in arguments:
        call(*args)
    return (time.perf_counter_ns() - start) / len(arguments) / 1e3


def measure(srcs, passes: int, pairs: int) -> dict:
    """best[workload][stage]: the best of passes passes per version, in srcs' order,
    None for a stage the version lacks; own_work is relative_angle minus chained,
    blades_own_work blades minus blades_chained and oracle_own_work principal_angles
    minus oracle_chained."""
    versions = [load_package(src, f"subspace_angles_{i}") for i, src in enumerate(srcs)]
    loops = {workload: [stage_loops(sa, getattr(inputs, workload)(1)[:pairs]) for sa in versions]
             for workload in WORKLOADS}
    best = {workload: {stage: [None] * len(versions) for stage in STAGES + INNER + BLADE_INNER + ORACLE_INNER}
            for workload in WORKLOADS}
    for n in range(passes):
        order = range(len(versions)) if n % 2 == 0 else range(len(versions) - 1, -1, -1)
        for workload in WORKLOADS:
            for stage in TIMED:
                for i in order:
                    if stage in loops[workload][i]:
                        figure = time_loop(*loops[workload][i][stage])
                        old = best[workload][stage][i]
                        best[workload][stage][i] = figure if old is None else min(old, figure)
    for stages in best.values():
        for own, whole, chain in OWN_WORK:
            stages[own] = [None if part is None else total - part
                           for total, part in zip(stages[whole], stages[chain])]
    return best


def table(best: dict, i: int, stages, headings) -> list[str]:
    """Version i's table of stages[1:], each in µs and as a share of their sum (stages[0] is
    the pair) or of stages[0] (a whole whose stages leave out its own work)."""
    widths = [max(len(h), 13) for h in headings]
    rows = ["| workload     | " + " | ".join(h.ljust(w) for h, w in zip(headings, widths)) + " |",
            "|--------------|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    for workload in WORKLOADS:
        us = {stage: best[workload][stage][i] for stage in stages}
        whole = sum(us[stage] for stage in stages[1:]) if stages[0] == "pair" else us[stages[0]]
        cells = [f"{us[stages[0]]:.1f}"] + [f"{us[stage]:.1f} ({100.0 * us[stage] / whole:.0f} %)"
                                            for stage in stages[1:]]
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
        print(f"version {i}: {src}, µs per pair, best of {args.passes} passes")
        print(*table(best, i, STAGES, HEADINGS), sep="\n")
        if best[WORKLOADS[0]][INNER[0]][i] is None:
            print(f"version {i}: relative_angle has no named stages ({', '.join(NAMED_STAGES)})")
        else:
            print(f"version {i}: inside relative_angle, µs per call, share of relative_angle")
            print(*table(best, i, ("relative_angle", *INNER, "own_work"), INNER_HEADINGS), sep="\n")
        if best[WORKLOADS[0]][BLADE_CALLS[0]][i] is None:
            print(f"version {i}: blades has no {', '.join(BLADE_CALLS)}")
        else:
            print(f"version {i}: inside blades, µs per pair, share of blades")
            print(*table(best, i, ("blades", *BLADE_INNER, "blades_own_work"), BLADE_HEADINGS), sep="\n")
        if best[WORKLOADS[0]][ORACLE_CALLS[0]][i] is None:
            print(f"version {i}: principal_angles has no named stages ({', '.join(ORACLE_CALLS)})")
        else:
            print(f"version {i}: inside principal_angles, µs per pair, share of principal_angles")
            print(*table(best, i, ("principal_angles", *ORACLE_INNER, "oracle_own_work"), ORACLE_HEADINGS),
                  sep="\n")

    def figures(stages):
        return {w: {s: [None if x is None else round(x, 1) for x in best[w][s]] for s in stages}
                for w in WORKLOADS}

    print(json.dumps({"passes": args.passes, "pairs": args.pairs, "src": srcs,
                      "us_per_pair": figures(STAGES),
                      "inner_us_per_call": figures((*INNER, "own_work", *BLADE_INNER, "blades_own_work",
                                                    *ORACLE_INNER, "oracle_own_work"))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
