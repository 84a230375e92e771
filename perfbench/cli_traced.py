"""Run the `angles` command with spans recorded around the package's layers.

    python3 perfbench/cli_traced.py SPANS_OUT.json run|selftest [ARGS...]

Behaves like `python -m subspace_angles.cli ARGS...` and, when the
command ends, writes its spans, counters, the time it took to import
`subspace_angles.cli` and the time `cli.main` took, timed apart from
the spans, to SPANS_OUT.json.
"""

import json
import sys
import time

start = time.perf_counter_ns()
import subspace_angles.cli as cli  # noqa: E402

import_ns = time.perf_counter_ns() - start

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracing.install(tracer)
start = time.perf_counter_ns()
try:
    code = cli.main(sys.argv[2:])
finally:
    main_ns = time.perf_counter_ns() - start
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_ns": import_ns, "main_ns": main_ns, "spans": tracer.spans,
                   "counters": tracer.counters, "residual_max": tracer.residual_max}, fh)
sys.exit(code)
