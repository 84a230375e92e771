import shutil
import subprocess
import sys
from pathlib import Path

import subspace_angles

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    for name in subspace_angles.__all__:
        assert hasattr(subspace_angles, name), name
    namespace = {}
    exec("from subspace_angles import *", namespace)
    assert set(subspace_angles.__all__) <= set(namespace)


def test_report_digest_runs():
    # the bit-identity gate imports the public API; a deletion that breaks it fails here
    src = str(Path(subspace_angles.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"),
                           "--workloads", "cli_batch", "--seeds", "1", "--src", src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 1
    workload, seed, digest = rows[0].split()
    assert (workload, seed, len(digest)) == ("cli_batch", "1", 64)


def run_digest(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"),
                           "--workloads", "cli_batch", "--seeds", "1", *args],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines()


def test_report_digest_names_the_differing_pairs(tmp_path):
    src = Path(subspace_angles.__file__).resolve().parents[1]
    code, rows = run_digest("--per-pair", "--src", str(src))
    assert code == 0 and len(rows) == 1
    pairs = rows[0].split()[3].split(",")
    assert len(pairs) > 1 and all(len(p) == 16 for p in pairs)

    # a copy whose selftest summary differs: only the last item, the selftest, moves
    shutil.copytree(src / "subspace_angles", tmp_path / "subspace_angles",
                    ignore=shutil.ignore_patterns("__pycache__"))
    problems = tmp_path / "subspace_angles" / "problems.py"
    text = problems.read_text()
    assert '"cases": cases,' in text
    problems.write_text(text.replace('"cases": cases,', '"cases": cases + 1,'))
    code, rows = run_digest("--per-pair", "--src", str(src), "--src", str(tmp_path))
    assert code == 1
    assert rows[0].startswith("cli_batch 1 ") and rows[0].endswith(" DIFFER")
    assert rows[1:] == [f"  pairs differing: {len(pairs) - 1}", "1 digests differ"]

    code, rows = run_digest("--per-pair", "--src", str(src), "--src", str(src))
    assert code == 0 and rows[-1] == "identical" and len(rows) == 2


def test_report_digest_except_leaves_one_field_out(tmp_path):
    # a copy whose residuals double: the run JSON and the selftest summary both move,
    # and --except residual leaves out exactly what moved
    src = Path(subspace_angles.__file__).resolve().parents[1]
    shutil.copytree(src / "subspace_angles", tmp_path / "subspace_angles",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "subspace_angles" / "engine.py"
    text = engine.read_text()
    assert "residual=residual," in text
    engine.write_text(text.replace("residual=residual,", "residual=2.0 * residual,"))
    code, rows = run_digest("--src", str(src), "--src", str(tmp_path))
    assert code == 1 and rows[-1] == "1 digests differ"
    code, rows = run_digest("--except", "residual", "--src", str(src), "--src", str(tmp_path))
    assert code == 0 and rows[-1] == "identical"


def test_report_digest_max_diff_measures_the_moves(tmp_path):
    # a copy whose residuals double moves one float field of each document and of the
    # selftest summary; one whose s grows by one moves a discrete field everywhere
    src = Path(subspace_angles.__file__).resolve().parents[1]
    edits = {"doubled": ("residual=residual,", "residual=2.0 * residual,"),
             "shifted": ("        s=s,", "        s=s + 1,")}
    for name, (old, new) in edits.items():
        shutil.copytree(src / "subspace_angles", tmp_path / name / "subspace_angles",
                        ignore=shutil.ignore_patterns("__pycache__"))
        engine = tmp_path / name / "subspace_angles" / "engine.py"
        text = engine.read_text()
        assert text.count(old) == 1
        engine.write_text(text.replace(old, new))

    code, rows = run_digest("--max-diff", "--src", str(src), "--src", str(tmp_path / "doubled"))
    assert code == 0 and len(rows) == 2 and rows[-1] == "no discrete field moved"
    assert rows[0].startswith("cli_batch 1 ")
    gaps = dict(field.split("=") for field in rows[0].split()[2:])
    assert gaps.pop("moved") == "0" and int(gaps.pop("pairs")) > 1
    assert float(gaps.pop("residual")) > 0.0 and float(gaps.pop("max_residual")) > 0.0
    assert {"angles", "planes", "oracle_angles", "max_angle_deviation"} <= set(gaps)
    assert all(float(gap) == 0.0 for gap in gaps.values())

    code, rows = run_digest("--max-diff", "--src", str(src), "--src", str(tmp_path / "shifted"))
    pairs = int(dict(field.split("=") for field in rows[0].split()[2:])["pairs"])
    assert code == 1 and rows[-1] == f"{pairs} pairs moved"
    assert rows[1] == "  pairs moved: " + " ".join(map(str, range(pairs)))


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
        assert float(fields["residual_max"]) <= 1e-6

