#!/usr/bin/env python3
"""Benchmark of the subspace-angles package, run from the repository root:

    python3 perfbench/run.py --workload corpus_small|wide_dense|cli_batch
                             --seed N --seconds S --trace 0|1

Inputs come from perfbench/inputs.py and carry their true angles; every
report is checked against them outside the timed region.  Human-readable
lines come first; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  The
package is imported from ./src, never from site-packages.  See
perfbench/README.md for what each metric and workload means.
"""

import os

# One BLAS thread: all load comes from one process on at most nproc threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from speed import Speed, process_slowdown  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "subspace_angles" / "__init__.py"
WORK = HERE / "out"

ANGLE_TOL = 1e-8
# Bounds of the known defects' forms (see engine_defect and oracle_defect).
RESIDUAL_DISOWNED = 1e-12
TINY_ANGLE = 1e-7
# Share of the separately timed pair time that a traced pair's self times must cover.
MIN_TRACED_SHARE = 0.95
SETUP_PROBES = 9
CLI_CHUNK = {"euclidean": 3, "conformal": 4}   # problem files per `angles run` process
PROCESS_TIMEOUT_S = 120
CLI_SPEED_EVERY = 2   # `angles` processes between two speed processes in cli_batch

# Tail percentiles sit inside one cost class of each workload's fixed mix.  The
# timed loop runs on past --seconds until at least TAIL_ABOVE samples lie above it.
TAIL_ABOVE = 10
WORKLOADS = {
    "corpus_small": {"dims": range(2, 9), "conformal_dims": (), "tail": 95.0},
    "wide_dense": {"dims": range(10, 13), "conformal_dims": (), "tail": 97.0},
    "cli_batch": {"dims": range(3, 9), "conformal_dims": range(3, 7), "tail": 75.0},
}

END_TO_END_UNITS = {"pairs_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# One pass over a workload's inputs: seconds per timed unit (a pair or a
# process), the number of pairs verified, the machine's slowdown measured
# over the pass (see speed.py), and the pass's Tally.
Pass = namedtuple("Pass", "times verified slowdown tally")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_package():
    """The package from ./src; refuse any other copy."""
    if not PACKAGE_INIT.is_file():
        fail(f"no package source at {PACKAGE_INIT.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import subspace_angles
    if Path(subspace_angles.__file__).resolve() != PACKAGE_INIT.resolve():
        fail(f"imported subspace_angles from {subspace_angles.__file__}, not ./src")
    import subspace_angles.cli  # noqa: F401  (tracing needs every module loaded)
    return subspace_angles


def machine_notes() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": {v: os.environ[v] for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "scipy": scipy_version}


def above_tail(count: int, p: float) -> int:
    """How many of `count` samples lie above their nearest-rank p-th percentile."""
    return count - math.ceil(p / 100.0 * count)


def tail_percentile(samples, p: float) -> tuple[float, int]:
    """(value, samples above) of the nearest-rank p-th percentile."""
    ordered = sorted(samples)
    rank = len(ordered) - above_tail(len(ordered), p)
    return ordered[rank - 1], len(ordered) - rank


def loop_done(deadline: float, passes, tail: float) -> bool:
    """Past the deadline, and enough samples for the tail percentile."""
    count = sum(len(p.times) for p in passes)
    return time.perf_counter() >= deadline and above_tail(count, tail) >= TAIL_ABOVE


# ---- checking reports against the truth -------------------------------------

def matched(got, pair):
    """(kind, true angle, reported angle) of each angle, matched after sorting;
    None when the counts differ (or nothing was reported)."""
    if got is None or len(got) != pair.r:
        return None
    truth = sorted(zip(pair.angles, pair.kinds))
    return [(kind, t, g) for g, (t, kind) in zip(sorted(float(x) for x in got), truth)]


def angle_error(got, pair):
    """Largest deviation from the truth; None when the counts differ."""
    angles = matched(got, pair)
    return None if angles is None else max((abs(g - t) for _, t, g in angles), default=0.0)


def deviations(got, pair):
    """The matched angles more than ANGLE_TOL off; None when the counts differ."""
    angles = matched(got, pair)
    return None if angles is None else [a for a in angles if abs(a[2] - a[1]) > ANGLE_TOL]


def engine_defect(pair, engine_devs, s, t, residual) -> bool:
    """Whether an engine failure of a near-threshold pair has the known defect's form.

    ROADMAP item 1: the engine classifies the product's grades, not each angle,
    so near a threshold it returns the wrong number of angles, the wrong s or t,
    a zero for an angle it counted as zero, or angles its own rotor residual
    disowns (the report's residual above RESIDUAL_DISOWNED).
    """
    return (engine_devs is None or (s, t) != (pair.s, pair.t)
            or all(kind.startswith("near") for kind, _, _ in engine_devs)
            or (residual is not None and residual > RESIDUAL_DISOWNED))


def oracle_defect(oracle_devs) -> bool:
    """Whether an oracle failure has the known form: the oracle's SVD of cosines
    cannot tell apart angles below TINY_ANGLE (cosines within 5e-15 of 1), so
    the sine route mixes their values."""
    return oracle_devs is not None and all(t < TINY_ANGLE and g < TINY_ANGLE
                                           for _, t, g in oracle_devs)


class Tally:
    """Attempted and failed pairs of one pass, with the reasons and the worst errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []       # (id of the pair, reason) of each failure, in order
        self.unexplained = 0     # failures without the form of a known defect
        self.reasons = Counter()
        self.unexplained_reasons = Counter()
        self.failed_labels = Counter()
        self.engine_err = 0.0
        self.oracle_err = 0.0
        self.harness_errors: list[str] = []

    def record(self, pair, reason, known: bool = False) -> bool:
        """Count one pair; `known` says a failure has the form of a known defect."""
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        self.failures.append((id(pair), reason))
        self.reasons[reason] += 1
        self.failed_labels[pair.label] += 1
        if not known:
            self.unexplained += 1
            self.unexplained_reasons[reason] += 1
        return False

    def raised(self, pair, exc) -> bool:
        name = type(exc).__name__
        return self.record(pair, f"raised {name}",
                           pair.near_threshold and name == "AmbiguousRankError")

    def check(self, pair, angles, s, t, oracle_angles, residual=None) -> bool:
        """Record one report; True when it matches the truth."""
        err = angle_error(angles, pair)
        oerr = angle_error(oracle_angles, pair)
        if err is not None:
            self.engine_err = max(self.engine_err, err)
        if oerr is not None:
            self.oracle_err = max(self.oracle_err, oerr)
        engine_devs = deviations(angles, pair)
        oracle_devs = deviations(oracle_angles, pair)
        if engine_devs is None:
            reason = "angle count"
        elif engine_devs:
            reason = "angle"
        elif (s, t) != (pair.s, pair.t):
            reason = "s/t"
        elif oracle_devs is None or oracle_devs:
            reason = "oracle angle"
        else:
            return self.record(pair, None)
        engine_ok = engine_devs == [] and (s, t) == (pair.s, pair.t)
        oracle_ok = oracle_devs == []
        known = pair.near_threshold and (
            (engine_ok or engine_defect(pair, engine_devs, s, t, residual))
            and (oracle_ok or oracle_defect(oracle_devs)))
        return self.record(pair, reason, known)

    def summary_lines(self) -> list[str]:
        lines = [f"error_rate: {self.failed / self.attempted:.6f} ratio ({self.failed} of "
                 f"{self.attempted} pairs failed; {self.unexplained} of them without the "
                 f"form of a known defect)"]
        if self.reasons:
            lines.append("failure reasons: "
                         + ", ".join(f"{k}: {v}" for k, v in self.reasons.most_common()))
            shown = [k for k in self.failed_labels if k.startswith("reproducer")]
            shown += [k for k, _ in self.failed_labels.most_common(5) if k not in shown]
            lines.append("failed pairs include: " + "; ".join(shown))
        if self.unexplained_reasons:
            lines.append("failures without a known defect's form: " + ", ".join(
                f"{k}: {v}" for k, v in self.unexplained_reasons.most_common()))
        lines.extend(f"harness error: {e}" for e in self.harness_errors)
        return lines


# ---- set-up ---------------------------------------------------------------------

def measure_setup(spec) -> tuple[list[float], list[float], list[float]]:
    """Spawn-to-ready seconds of fresh probe processes, their import seconds, and the
    process slowdown (see speed.py) measured just before each probe."""
    argv = [sys.executable, str(HERE / "probe.py"), ",".join(map(str, spec["dims"])),
            ",".join(map(str, spec["conformal_dims"]))]
    ready, imports, slowdowns = [], [], []
    for _ in range(SETUP_PROBES):
        slowdowns.append(process_slowdown())
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("ready "):
            fail(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        ready.append(elapsed)
        imports.append(float(line.split()[1]))
    return ready, imports, slowdowns


# ---- library workloads ------------------------------------------------------

def run_pair(sa, pair):
    """One cross-checked pair, as `angles selftest` runs it."""
    report = sa.relative_angle(sa.blade_from_spanning_vectors(pair.a_rows),
                               sa.blade_from_spanning_vectors(pair.b_rows))
    oracle = sa.principal_angles(sa.orthonormal_basis(pair.a_rows),
                                 sa.orthonormal_basis(pair.b_rows))
    return report, oracle


def library_pass(sa, corpus, speed, tracer=None, first_pair=0) -> Pass:
    """Run every pair once, timing each and checking it after its timer stops."""
    times, verified, mark, tally = [], 0, len(speed.samples), Tally()
    for i, pair in enumerate(corpus):
        if tracer is not None:
            tracer.pair = first_pair + i
        start = time.perf_counter_ns()
        try:
            report, oracle = run_pair(sa, pair)
        except Exception as exc:  # a raising pair is a failed pair; keep going
            report = exc
        elapsed_ns = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.units.append((tracer.pair, elapsed_ns))
        elapsed = elapsed_ns * 1e-9
        times.append(elapsed)
        if isinstance(report, Exception):
            tally.raised(pair, report)
        else:
            verified += tally.check(pair, report.angles, report.s, report.t, oracle.angles,
                                    float(report.residual))
        speed.after(elapsed)
    return Pass(times, verified, speed.slowdown(since=mark), tally)


def library_workload(sa, corpus, seconds, tail, trace, speed):
    """Closed loop over whole passes of the corpus until `seconds` have passed and
    the tail percentile has enough samples above it.

    Traced runs alternate an untraced and a traced pass.
    Returns (untraced passes, traced passes, tracer).
    """
    library_pass(sa, corpus, Speed())  # warm-up, not counted
    tracer = tracing.Tracer() if trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(library_pass(sa, corpus, speed))
        if trace:
            uninstall = tracing.install(tracer)
            try:
                traced.append(library_pass(sa, corpus, speed, tracer,
                                           len(traced) * len(corpus)))
            finally:
                uninstall()
        if loop_done(deadline, plain, tail):
            return plain, traced, tracer


# ---- cli_batch ----------------------------------------------------------------

def parse_documents(text: str) -> list[dict]:
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


class CliBatch:
    """The problem files, the `angles` processes that run them, and their checks."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.invocations = []
        for mode, problems in (("euclidean", inputs.euclidean_problems(seed)),
                               ("conformal", inputs.conformal_problems(seed))):
            for problem in problems:
                (workdir / problem.name).write_text(json.dumps(problem.doc), encoding="utf-8")
            step = CLI_CHUNK[mode]
            for i in range(0, len(problems), step):
                self.invocations.append((mode, problems[i:i + step]))
        self.invocations.append(("selftest", None))
        self.span_files: list[Path] = []
        self.peak_rss_kb = 0

    def pairs(self):
        return [p.pair for _, problems in self.invocations if problems for p in problems]

    def spawn(self, args, traced: bool):
        """Run one `angles` process to its end; (wall seconds, CompletedProcess).

        The process is reaped with os.wait4, so its own peak RSS is known:
        the largest over untraced processes is kept in self.peak_rss_kb.
        """
        if traced:
            out = self.workdir / f"spans-{len(self.span_files)}.json"
            self.span_files.append(out)
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(out), *args]
        else:
            argv = [sys.executable, "-m", "subspace_angles.cli", *args]
        with open(self.workdir / "stdout.txt", "w+", encoding="utf-8") as stdout, \
                open(self.workdir / "stderr.txt", "w+", encoding="utf-8") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(),
                                    cwd=ROOT)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            stdout.seek(0)
            stderr.seek(0)
            done = subprocess.CompletedProcess(argv, proc.returncode, stdout.read(),
                                               stderr.read())
        if not traced:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, done

    def run_pass(self, traced: bool) -> Pass:
        """Every invocation once; the timed unit is one `angles` process.

        The pass's slowdown is measured with fresh processes too (see speed.py),
        after every CLI_SPEED_EVERY invocations and at the end.
        """
        walls, verified, slowdowns, tally = [], 0, [], Tally()
        for i, (mode, problems) in enumerate(self.invocations):
            if i and i % CLI_SPEED_EVERY == 0:
                slowdowns.append(process_slowdown())
            if mode == "selftest":
                wall, proc = self.spawn(["selftest", "--seed", str(self.seed)], traced)
                walls.append(wall)
                verified += self.check_selftest(proc, tally)
                continue
            remaining = problems
            while remaining:  # a failing file stops `angles run`; go on after it
                args = ["run", "--oracle", "--mode", mode]
                wall, proc = self.spawn(args + [str(self.workdir / p.name) for p in remaining],
                                        traced)
                walls.append(wall)
                try:
                    docs = parse_documents(proc.stdout)[:len(remaining)]
                except json.JSONDecodeError as exc:
                    tally.harness_errors.append(f"unparsable output of `angles run`: {exc}")
                    docs = []
                for problem, doc in zip(remaining, docs):
                    verified += tally.check(problem.pair, doc["angles_rad"], doc["s"], doc["t"],
                                            doc.get("oracle", {}).get("angles_rad"),
                                            doc.get("residual"))
                if len(docs) == len(remaining):
                    if proc.returncode != 0:
                        tally.harness_errors.append(f"exit {proc.returncode} after all results")
                    break
                tally.record(remaining[len(docs)].pair,
                             f"exit {proc.returncode}" if proc.returncode else "no result")
                remaining = remaining[len(docs) + 1:] if proc.returncode else []
        slowdowns.append(process_slowdown())
        return Pass(walls, verified, statistics.fmean(slowdowns), tally)

    @staticmethod
    def check_selftest(proc, tally) -> int:
        """Count the self-test's cases: all verified on PASS, the mismatches failed on FAIL.

        The cases are drawn by the package itself, so the benchmark knows no truth
        for them: their failures count as failed pairs but do not make `correct` false.
        """
        lines = proc.stdout.splitlines()
        try:
            cases = int(lines[0].split()[1])
            mismatches = int(next(x for x in lines if x.startswith("s/t mismatches:")).split()[-1])
            passed = lines[-1] == "selftest: PASS"
        except (IndexError, ValueError, StopIteration):
            tally.harness_errors.append(f"unreadable selftest output (exit {proc.returncode})")
            return 0
        if passed != (proc.returncode == 0):
            tally.harness_errors.append(f"selftest said PASS={passed} but exited {proc.returncode}")
        bad = 0 if passed else max(mismatches, 1)
        tally.attempted += cases
        tally.failed += bad
        if bad:
            tally.failures.append(("selftest", bad))
            tally.reasons["selftest FAIL"] += bad
            tally.failed_labels["selftest"] += bad
        return cases - bad


def cli_workload(batch: CliBatch, seconds, tail, trace):
    batch.run_pass(traced=False)  # warm-up: page cache and bytecode
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(batch.run_pass(traced=False))
        if trace:
            traced.append(batch.run_pass(traced=True))
        if loop_done(deadline, plain, tail):
            return plain, traced


# ---- per-layer metrics ------------------------------------------------------------

def scipy_error(pairs):
    """Worst deviation of scipy.linalg.subspace_angles from the truth; None without scipy."""
    try:
        from scipy.linalg import subspace_angles
    except ImportError:
        return None
    worst = 0.0
    for pair in pairs:
        err = angle_error(subspace_angles(pair.a_rows.T, pair.b_rows.T), pair)
        worst = max(worst, math.inf if err is None else err)
    return worst


def per_layer(spans, counters, residual_max, pairs, slowdown, tally, overhead, import_s,
              scipy_err):
    """Per-layer metrics; seconds are scaled by the run's slowdown."""
    calls, self_s = Counter(), Counter()
    for span in spans:
        seconds = span[7] * 1e-9 / slowdown
        calls[span[3]] += 1
        self_s[span[3]] += seconds
        self_s[(span[3], span[4])] += seconds
    m = {}
    for layer in ("ga", "blades", "engine", "oracle", "conformal"):
        m[f"{layer}.calls"] = (calls[layer] / pairs, "calls/pair")
        m[f"{layer}.self_s"] = (self_s[layer] / pairs, "s/pair")
    m["ga.terms"] = (counters.get("ga.terms", 0) / pairs, "terms/pair")
    m["ga.bytes_computed"] = (counters.get("ga.bytes_computed", 0) / pairs, "B/pair")
    m["engine.residual_max"] = (residual_max, "coeff_norm")
    for kind in tracing.ENGINE_ERRORS + ("other",):
        m[f"engine.errors.{kind}"] = (counters.get(f"engine.errors.{kind}", 0) / pairs, "1/pair")
    m["engine.max_err_vs_truth"] = (tally.engine_err, "rad")
    m["oracle.max_err_vs_truth"] = (tally.oracle_err, "rad")
    m["problems.parse_s"] = (self_s[("problems", "parse_problem")] / pairs, "s/pair")
    m["problems.run_self_s"] = (self_s[("problems", "run_problem")] / pairs, "s/pair")
    m["cli.render_s"] = (self_s[("cli", "render_json")] / pairs, "s/pair")
    m["sampling.self_s"] = (self_s["sampling"] / pairs, "s/pair")
    m["cli.import_s"] = (import_s, "s")
    m["reference.scipy_max_err_vs_truth"] = (scipy_err, "rad")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["error_rate"] = (tally.failed / tally.attempted, "ratio")
    return m


def load_cli_spans(paths):
    """Spans, counters, worst residual, import seconds and (ns of `cli.main`, sum of
    self ns of its spans) of traced `angles` processes."""
    spans, counters, residual, imports, units = [], Counter(), 0.0, [], []
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        offset = len(spans)
        for span in data["spans"]:
            spans.append([span[0] + offset, span[1] + offset if span[1] >= 0 else -1, *span[2:]])
        counters.update(data["counters"])
        residual = max(residual, data["residual_max"])
        imports.append(data["import_ns"] * 1e-9)
        units.append((data["main_ns"], sum(span[7] for span in data["spans"])))
    return spans, counters, residual, imports, units


# ---- main -----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    sa = import_package()
    print("machine: " + json.dumps(machine_notes(), sort_keys=True))
    setup, imports, setup_slowdowns = measure_setup(spec)
    speed = Speed()   # the kernel, for the library workloads

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.workload == "cli_batch":
        batch = CliBatch(args.seed, workdir)
        plain, traced = cli_workload(batch, args.seconds, spec["tail"], args.trace)
        truth_pairs, units_name = batch.pairs(), "processes"
    else:
        truth_pairs = getattr(inputs, args.workload)(args.seed)
        plain, traced, tracer = library_workload(sa, truth_pairs, args.seconds, spec["tail"],
                                                 args.trace, speed)
        units_name = "pairs"
    # `attempted` and `failed` count one pass, so they depend on the seed alone and
    # not on how many passes fit in --seconds; every pass must fail the same pairs.
    tally = plain[0].tally
    for k, p in enumerate((plain + traced)[1:], start=2):
        tally.harness_errors.extend(p.tally.harness_errors)
        if p.tally.failures != tally.failures:
            tally.harness_errors.append(f"pass {k} failed other pairs than pass 1")
    # The largest untraced `angles` process for cli_batch, else this process.
    peak_rss_kb = (batch.peak_rss_kb if args.workload == "cli_batch"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    slowdown = statistics.fmean(p.slowdown for p in plain + traced)
    setup_slowdown = statistics.median(setup_slowdowns)

    def end_to_end(scaled: bool) -> tuple[dict, tuple]:
        """The metrics, each time divided by the slowdown of its own pass or probe when
        `scaled`, and the tail's details."""
        run_f = [p.slowdown if scaled else 1.0 for p in plain]
        setup_f = setup_slowdowns if scaled else [1.0] * len(setup)
        samples = [t * 1e3 / f for p, f in zip(plain, run_f) for t in p.times]
        tail_ms, above = tail_percentile(samples, spec["tail"])
        return {"pairs_per_s": statistics.median(p.verified / sum(p.times) * f
                                                 for p, f in zip(plain, run_f)),
                "latency_p50_ms": statistics.median(samples),
                "latency_tail_ms": tail_ms,
                "setup_s": statistics.median(t / f for t, f in zip(setup, setup_f)),
                "peak_rss_mb": peak_rss_kb / 1024.0}, (above, len(samples))

    metrics, (above, count) = end_to_end(True)
    raw, _ = end_to_end(False)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} passes, {count} timed "
          f"{units_name}; latency_tail_ms is p{spec['tail']:g} with {above} samples above it")
    print(f"attempted and failed count one pass; all {len(plain) + len(traced)} passes "
          f"were checked and compared with it")
    timed_by = ("fresh processes" if args.workload == "cli_batch"
                else f"{len(speed.samples)} kernel runs")
    print(f"machine slowdown: set-up {setup_slowdown:.3f} (median of {len(setup)} fresh "
          f"processes), timed loop {slowdown:.3f} (mean over passes, {timed_by})")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {END_TO_END_UNITS[name]} (unscaled {raw[name]:.6g})")
    for line in tally.summary_lines():
        print(line)

    correct = tally.unexplained == 0 and not tally.harness_errors
    result = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    if args.trace:
        if args.workload == "cli_batch":
            spans, counters, residual, cli_imports, units = load_cli_spans(batch.span_files)
            import_s = statistics.median(cli_imports) / slowdown
        else:
            spans, counters, residual = tracer.spans, tracer.counters, tracer.residual_max
            units = tracing.unit_self_times(spans, tracer.units)
            import_s = statistics.median(i / f for i, f in zip(imports, setup_slowdowns))
        traced_pairs = tally.attempted * len(traced)
        overhead = statistics.median(sum(t.times) / sum(p.times) for p, t in zip(plain, traced))
        over = sum(self_ns > ns for ns, self_ns in units)
        share = sum(self_ns for _, self_ns in units) / sum(ns for ns, _ in units)
        shares = sorted(self_ns / ns for ns, self_ns in units)
        print(f"traced: {len(traced)} passes, {len(spans)} spans; self times cover {share:.4%} "
              f"of the separately timed {units_name} (lowest {shares[0]:.4%}, median "
              f"{statistics.median(shares):.4%}); {over} {units_name} have more self time "
              f"than time")
        # A pair's spans lie inside its timing and leave only run_pair's glue out of it.
        correct = correct and over == 0 and (args.workload == "cli_batch"
                                             or share >= MIN_TRACED_SHARE)
        tracing.write_spans(workdir / "spans.csv", spans)
        result = per_layer(spans, counters, residual, traced_pairs, slowdown, tally, overhead,
                           import_s, scipy_error(truth_pairs))
        for name, (value, u) in result.items():
            print(f"{name}: {value if value is None else format(value, '.6g')} {u}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
