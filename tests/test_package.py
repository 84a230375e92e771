import ast
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import subspace_angles

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    for name in subspace_angles.__all__:
        assert hasattr(subspace_angles, name), name
    namespace = {}
    exec("from subspace_angles import *", namespace)
    assert set(subspace_angles.__all__) <= set(namespace)


def test_only_ga_reads_the_wedge_table():
    # one owner of the table layouts: every other module goes through ga's wedge,
    # contraction and rotor-chain routines
    src = Path(subspace_angles.__file__).resolve().parent
    tables = ("_wedge_table", "_grade_masks", "_parity_masks", "_vector_table")
    for path in src.glob("*.py"):
        if path.name != "ga.py":
            text = path.read_text()
            assert not [name for name in tables if name in text], path.name
    assert not hasattr(subspace_angles, "NegativeSquareError")
    assert "NegativeSquareError" not in subspace_angles.__all__


def run_digest(workloads, *srcs):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"),
                           "--workloads", *workloads, "--seeds", "1",
                           *(arg for src in srcs for arg in ("--src", str(src)))],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines()


def edited_copy(dest: Path, module: str, function: str, old: str, new: str) -> Path:
    """A copy of the package under dest whose module has old replaced by new inside the
    named function, found by its ast line span; old must occur there exactly once."""
    src = Path(subspace_angles.__file__).resolve().parent
    shutil.copytree(src, dest / "subspace_angles", ignore=shutil.ignore_patterns("__pycache__"))
    path = dest / "subspace_angles" / module
    text = path.read_text()
    spans = [(node.lineno - 1, node.end_lineno) for node in ast.walk(ast.parse(text))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function]
    assert len(spans) == 1, f"{module} defines {function} {len(spans)} times"
    lines = text.splitlines(keepends=True)
    (start, end), = spans
    body = "".join(lines[start:end])
    count = body.count(old)
    assert count == 1, f"{module}, {function}: the edit text occurs {count} times, not once"
    path.write_text("".join(lines[:start]) + body.replace(old, new) + "".join(lines[end:]))
    return dest


def indices(lo: int, hi: int) -> str:
    return " ".join(map(str, range(lo, hi)))


def row_fields(row: str) -> dict:
    """{name: value} of a summary row "workload seed pairs=N moved=M field=gap ..."."""
    return dict(field.split("=") for field in row.split()[2:])


def test_report_digest_runs():
    # the comparison imports the public API; a deletion that breaks it fails here, and two
    # copies of one version in one process agree to the byte
    src = Path(subspace_angles.__file__).resolve().parents[1]
    code, rows = run_digest(["cli_batch"], src, src)
    assert code == 0
    assert len(rows) == 2 and rows[0].startswith("cli_batch 1 pairs=") and rows[-1] == "identical"
    fields = row_fields(rows[0])
    assert int(fields.pop("pairs")) > 1 and fields == {"moved": "0"}


def test_report_digest_names_the_differing_pairs(tmp_path):
    # a copy whose selftest summary differs: only the last item, the selftest, moves
    src = Path(subspace_angles.__file__).resolve().parents[1]
    copy = edited_copy(tmp_path, "problems.py", "selftest", '"cases": cases,', '"cases": cases + 1,')
    code, rows = run_digest(["cli_batch"], src, copy)
    pairs = int(row_fields(rows[0])["pairs"])
    assert code == 1
    assert rows == [f"cli_batch 1 pairs={pairs} moved=1", f"  pairs moved: {pairs - 1}",
                    "1 pairs moved"]


def test_report_digest_except_leaves_one_field_out(tmp_path):
    # a copy whose residuals double moves exactly the residual fields: the report's, the run
    # document's and the selftest's worst; every other field is left out of the listing, as
    # the former --except residual left them out of the hash, now down to the bytes
    src = Path(subspace_angles.__file__).resolve().parents[1]
    doubled = edited_copy(tmp_path, "engine.py", "relative_angle", "residual=residual,", "residual=2.0 * residual,")
    code, rows = run_digest(["wide_dense", "cli_batch"], src, doubled)
    assert code == 1 and len(rows) == 6 and rows[-1] == "no discrete field moved"
    library, cli, pairs = row_fields(rows[0]), row_fields(rows[2]), {}
    for name, fields in (("wide_dense", library), ("cli_batch", cli)):
        assert fields.pop("moved") == "0"
        pairs[name] = int(fields.pop("pairs"))
        assert all(float(gap) > 0.0 for gap in fields.values())
    assert rows[0].startswith("wide_dense 1 ") and list(library) == ["report.residual"]
    assert rows[1] == "  report.residual: " + indices(0, pairs["wide_dense"])
    assert rows[2].startswith("cli_batch 1 ") and list(cli) == ["run.residual", "selftest.max_residual"]
    assert rows[3:5] == ["  run.residual: " + indices(0, pairs["cli_batch"] - 1),
                         f"  selftest.max_residual: {pairs['cli_batch'] - 1}"]


def test_report_digest_max_diff_measures_the_moves(tmp_path):
    # a copy whose s grows by one moves a discrete field of every item, which the summary
    # counts and names pair by pair, as the former --max-diff counted it
    src = Path(subspace_angles.__file__).resolve().parents[1]
    shifted = edited_copy(tmp_path, "engine.py", "relative_angle", "        s=s,", "        s=s + 1,")
    code, rows = run_digest(["cli_batch"], src, shifted)
    pairs = int(row_fields(rows[0])["pairs"])
    assert code == 1
    assert rows == [f"cli_batch 1 pairs={pairs} moved={pairs}", "  pairs moved: " + indices(0, pairs),
                    f"{pairs} pairs moved"]


def test_report_digest_sees_the_frames(tmp_path):
    # a copy that negates the first row of every Gram-Schmidt frame: the blades' frames move
    # and nothing else does, since the engine reads a frame only through its projector
    src = Path(subspace_angles.__file__).resolve().parents[1]
    negated = edited_copy(tmp_path, "blades.py", "_mgs", "    return np.array(basis)\n",
                          "    return np.array([[-x for x in basis[0]], *basis[1:]])\n")
    code, rows = run_digest(["wide_dense", "cli_batch"], src, negated)
    assert code == 1 and rows[-1] == "no discrete field moved" and len(rows) == 4
    fields = row_fields(rows[0])
    assert rows[0].startswith("wide_dense 1 ") and fields.pop("moved") == "0"
    pairs = int(fields.pop("pairs"))
    assert list(fields) == ["blades.frame"] and float(fields["blades.frame"]) > 0.0
    assert rows[1] == "  blades.frame: " + indices(0, pairs)
    assert rows[2].startswith("cli_batch 1 ") and row_fields(rows[2])["moved"] == "0"
    assert len(row_fields(rows[2])) == 2


def test_report_digest_sees_the_scalar_product(tmp_path):
    # a copy whose scalar product doubles moves <A reverse(B)>_0 and nothing else
    src = Path(subspace_angles.__file__).resolve().parents[1]
    doubled = edited_copy(tmp_path, "ga.py", "scalar_product", "self.sig), other.coeffs))",
                          "self.sig), other.coeffs)) * 2.0")
    code, rows = run_digest(["wide_dense"], src, doubled)
    assert code == 1 and rows[-1] == "no discrete field moved" and len(rows) == 3
    fields = row_fields(rows[0])
    pairs = int(fields.pop("pairs"))
    assert fields.pop("moved") == "0" and list(fields) == ["scalar_product"]
    assert rows[1].startswith("  scalar_product: ") and len(rows[1].split()) - 1 <= pairs


def test_stages_runs():
    # one pass on a few pairs: the timer loads two versions side by side, times the pair,
    # its four stages, the named stages inside relative_angle and their chain, the calls
    # inside blades and their chain, and the named stages inside principal_angles and their
    # chain, on both workloads, reads each own work off its chain, and ends with the
    # figures as one JSON line
    src = str(Path(subspace_angles.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stages.py"), "--src", src, "--src", src,
                           "--passes", "1", "--pairs", "3"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("version")] == \
        ["version 0"] * 4 + ["version 1"] * 4
    assert [line.split()[1] for line in lines if line.startswith("| ")
            and not line.startswith("| workload")] == ["corpus_small", "wide_dense"] * 8
    inner_headings = ["`relative_angle`", "`_spectrum`", "`_read_clusters`", "plane wedges", "`_self_check`",
                      "chained", "own work"]
    blade_headings = ["blades", "`_wedge_coeffs`", "`_norm`", "`_mgs`", "chained", "own work"]
    oracle_headings = ["`principal_angles`", "`_inner_products`", "`_svd`", "`_principal_vectors`",
                       "`_sine_route`", "chained", "own work"]
    headings = [[cell.strip() for cell in line.split("|")[2:-1]]
                for line in lines if line.startswith("| workload")]
    assert headings[1::4] == [inner_headings] * 2 and headings[2::4] == [blade_headings] * 2
    assert headings[3::4] == [oracle_headings] * 2
    summary = json.loads(lines[-1])
    assert summary["passes"] == 1 and summary["pairs"] == 3 and summary["src"] == [src, src]
    for workload in ("corpus_small", "wide_dense"):
        stages = summary["us_per_pair"][workload]
        assert list(stages) == ["pair", "blades", "relative_angle", "oracle_bases", "principal_angles"]
        inner = summary["inner_us_per_call"][workload]
        own, blades_own = inner.pop("own_work"), inner.pop("blades_own_work")
        oracle_own = inner.pop("oracle_own_work")
        assert list(inner) == ["_spectrum", "_read_clusters", "plane_wedges", "_self_check", "chained",
                               "_wedge_coeffs", "_norm", "_mgs", "blades_chained",
                               "_inner_products", "_svd", "_principal_vectors", "_sine_route", "oracle_chained"]
        assert all(len(figures) == 2 and min(figures) > 0.0 for figures in [*stages.values(), *inner.values()])
        # each own work is its whole minus its chain, each rounded to 0.1 µs after the subtraction
        for whole, chain, rest in [*zip(stages["relative_angle"], inner["chained"], own),
                                   *zip(stages["blades"], inner["blades_chained"], blades_own),
                                   *zip(stages["principal_angles"], inner["oracle_chained"], oracle_own)]:
            assert abs(rest - (whole - chain)) <= 0.11


def test_stages_records_the_outermost_calls(monkeypatch, capsys):
    # the timer reads each stage off the library's own calls, recorded per pair while the
    # stage's whole runs: the plane wedges are the report's planes (the wedge of L that
    # _self_check makes is no plane wedge), each chain is exactly the pair's recorded calls
    # in order, and a row that names a function its module lacks gives no table
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")                   # restored after the test
    spec = importlib.util.spec_from_file_location("stages", ROOT / "tools" / "stages.py")
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    src = str(Path(subspace_angles.__file__).resolve().parents[1])
    sa = stages.load_package(src, "subspace_angles_recorded")
    for workload in stages.WORKLOADS:
        pairs = getattr(stages.inputs, workload)(1)[:4]
        runs = stages.record(sa, pairs)
        for p, pair in enumerate(pairs):
            report = stages.harness.run_pair(sa, pair)[0]
            wedges = [args for _, _, args in runs["plane_wedges"][p]]
            assert len(wedges) == len(report.planes)
            assert all(np.array_equal(args[1], frame) for args, frame in zip(wedges, report.plane_frames))
            expected = {"chained": ["_spectrum", "_read_clusters", *["plane_wedges"] * len(report.planes),
                                    "_self_check"],
                        "blades_chained": ["_wedge_coeffs", "_norm", "_mgs"] * 2,
                        "oracle_chained": ["_inner_products", "_svd", "_principal_vectors", "_sine_route"]}
            for row in stages.SPECS[1:]:
                chain = runs[row.chain][p]
                assert [key for key, _, _ in chain] == expected[row.chain]
                module = getattr(sa, row.module)
                for name, key, _ in row.stages:
                    assert [call for call in chain if call[0] == key] == runs[key][p]
                    assert getattr(module, name).__name__ == name     # the real function is back
                    assert all(function is getattr(module, name) for _, function, _ in runs[key][p])
        loops = stages.loops(runs)
        assert all(stages.time_loop(calls, len(pairs)) > 0.0 for calls in loops.values())

    rows = list(stages.SPECS)
    rows[-1] = rows[-1]._replace(stages=(*rows[-1].stages[:-1], ("_no_such_stage", "_sine_route", "`_sine_route`")))
    monkeypatch.setattr(stages, "SPECS", tuple(rows))
    assert not {"_svd", "_sine_route", "oracle_chained"} & set(stages.record(sa, pairs))
    assert stages.main(["--src", src, "--passes", "1", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("version")][-1] == \
        "version 0: principal_angles has no _inner_products, _svd, _principal_vectors, _no_such_stage"
    assert sum(line.startswith("| workload") for line in lines) == 3
    inner = json.loads(lines[-1])["inner_us_per_call"]
    for workload in stages.WORKLOADS:
        assert inner[workload]["_svd"] == inner[workload]["oracle_own_work"] == [None]
        assert inner[workload]["chained"][0] > 0.0


def run_digest_truth(*args):
    src = str(Path(subspace_angles.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"), "--truth",
                           "--seeds", "1", "--src", src, *args],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines()


def test_report_digest_truth():
    # the benchmark's own verdict: no failure of either route, the oracle's tiny angles
    # included; cli_batch runs the conformal carriers, whose frames feed both routes
    code, rows = run_digest_truth("--workloads", "corpus_small", "wide_dense", "cli_batch")
    assert code == 0
    assert [row.split()[:2] for row in rows] == [
        ["corpus_small", "1"], ["wide_dense", "1"], ["cli_batch", "1"]]
    for row in rows:
        fields = dict(kv.split("=") for kv in row.split(" reasons:")[0].split()[2:])
        assert int(fields["failed"]) == 0 and row.endswith(" reasons: -")
        assert int(fields["unexplained"]) == 0
        assert float(fields["engine_err"]) <= 1e-8
        assert float(fields["oracle_err"]) <= 1e-12
        for route in ("engine", "oracle"):    # a root mean square is at most the maximum
            assert 0.0 < float(fields[f"{route}_rms"]) <= float(fields[f"{route}_err"])
        assert float(fields["residual_max"]) <= 1e-6

