"""Benchmark worker: runs one workload's operations in-process.

Usage: ``python3 perfbench/worker.py PLAN RESULT`` with ``PYTHONPATH=src``.

PLAN is JSON with ``ops`` (a list of ``{"label", "argv"}``), ``seconds``,
``trace`` and ``spans``.  The worker imports ``dfrep.cli`` (timed), then
calls ``dfrep.cli.main(argv)`` for each operation in turn, one at a time,
repeating whole passes until ``seconds`` have elapsed.  With ``trace`` set
it measures an untraced phase first, then installs the timing wrappers and
measures a traced phase of the same length.  RESULT receives every
operation's exit code, output, wall time and (traced) layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# Stop starting new passes past this point so the run ends in time.
HARD_LIMIT_S = 120.0


def run_phase(main, ops, seconds: float, deadline: float, tracer=None):
    """Whole passes over ``ops``; returns the records and the peak resident
    memory in MB at the end of the first pass (later passes only add
    allocator slack, and their number varies)."""
    records = []
    first_pass_rss = None
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (
        time.perf_counter() - start < seconds and time.perf_counter() < deadline
    ):
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(op["argv"])
            except Exception:  # a crashing operation is a failed one, not a failed run
                rc = None
                err.write(traceback.format_exc())
            wall = time.perf_counter() - t0
            rec = {
                "label": op["label"],
                "pass": passes,
                "wall_s": wall,
                "rc": rc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            }
            if tracer is not None:
                rec["layers"] = tracer.end_op()
            records.append(rec)
        passes += 1
        if first_pass_rss is None:
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, first_pass_rss


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    t0 = time.perf_counter()
    import dfrep.cli

    import_s = time.perf_counter() - t0
    deadline = time.perf_counter() + HARD_LIMIT_S
    seconds = float(plan["seconds"])
    result = {"import_s": import_s}
    if plan["trace"]:
        result["untraced"], _ = run_phase(dfrep.cli.main, plan["ops"], seconds / 2, deadline)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        # Look main up at call time so the wrapped one runs.
        result["traced"], _ = run_phase(
            lambda argv: dfrep.cli.main(argv), plan["ops"], seconds / 2, deadline, tracer
        )
        tracer.write(plan["spans"])
    else:
        result["untraced"], result["peak_rss_mb"] = run_phase(
            dfrep.cli.main, plan["ops"], seconds, deadline
        )
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
