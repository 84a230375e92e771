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
