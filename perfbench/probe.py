"""Set-up probe: import the package, make the first calls, say "ready".

    python3 perfbench/probe.py EUCLIDEAN_DIMS [CONFORMAL_DIMS]

Dimensions are comma-separated.  One small cross-checked pair per
Euclidean dimension and a few products per conformal algebra Cl(n+1,1)
run the lazy per-dimension set-up (the cached tables in `ga`) that the
workload's first pair would otherwise pay.  It prints
"ready <seconds spent importing subspace_angles.cli>".
"""

import sys
import time

start = time.perf_counter()
import subspace_angles.cli  # noqa: E402,F401  (imports every module of the package)
from subspace_angles import (  # noqa: E402
    Multivector,
    Signature,
    blade_from_spanning_vectors,
    orthonormal_basis,
    principal_angles,
    relative_angle,
)

import_s = time.perf_counter() - start


def dims(arg: str) -> list[int]:
    return [int(x) for x in arg.split(",") if x]


for n in dims(sys.argv[1]):
    a_rows = [[1.0] + [0.0] * (n - 1)]
    b_rows = [[1.0, 1.0] + [0.0] * (n - 2)]
    relative_angle(blade_from_spanning_vectors(a_rows), blade_from_spanning_vectors(b_rows))
    principal_angles(orthonormal_basis(a_rows), orthonormal_basis(b_rows))
for n in dims(sys.argv[2] if len(sys.argv) > 2 else ""):
    sig = Signature(n + 1, 1)
    e, f = Multivector.basis_blade(sig, 1), Multivector.basis_blade(sig, 1 << n)
    (e * f).outer(f).left_contraction(e * f)

print(f"ready {import_s!r}", flush=True)
