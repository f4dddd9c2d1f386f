"""dfrep benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload {cli_cold,represent_dense,sample_small,all}
                             --seed N --seconds S --trace {0,1} [--size {full,small}]

One closed-loop client runs the workload's operations one at a time, each
sent only after the previous one completed, repeating whole passes until
``--seconds`` have elapsed.  ``cli_cold`` starts every operation as a fresh
``python -m dfrep.cli`` process (never more than one at a time); the other
workloads call ``dfrep.cli.main`` in one worker process.  The package is
taken from ``src/`` through ``PYTHONPATH``; BLAS runs on ``BLAS_THREADS``
threads.  Every output is checked.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
an untraced and a traced phase of half the time each give the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a human-readable table with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import write_spans  # noqa: E402

# Set-up repeats at least SETUP_MIN_REPS times and for at least
# SETUP_MIN_SECONDS, so cheap set-ups get more samples for their median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 4.0
BLAS_THREADS = 1
# Wall-clock budget of one run; every child is killed when it runs out.
RUN_LIMIT_S = 170.0
PROCESS_TIMEOUT_S = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # A fixed hash seed removes one source of run-to-run timing variation.
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
    )


def time_setup(workload, work, seed, size):
    """Write the inputs and cold-import the package, repeatedly."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        ops = workloads.build(workload, ROOT, work, seed, size)
        proc = run_child([sys.executable, "-c", "import dfrep.cli"], PROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"cannot import dfrep.cli:\n{proc.stderr}")
    return ops, times


def run_cold_phase(ops, seconds, deadline, traced, work, spans_out) -> list:
    records = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (time.perf_counter() - start < seconds and time.perf_counter() < deadline):
        for op in ops:
            n = len(records)
            layers_path, spans_path = work / f"layers-{n}.json", work / f"spans-{n}.jsonl"
            if traced:
                cmd = [sys.executable, str(HERE / "cli_runner.py"), str(layers_path), str(spans_path), *op.argv]
            else:
                cmd = [sys.executable, "-m", "dfrep.cli", *op.argv]
            remaining = min(PROCESS_TIMEOUT_S, deadline + 30.0 - time.perf_counter())
            t0 = time.perf_counter()
            proc = run_child(cmd, remaining)
            rec = {
                "label": op.label,
                "pass": passes,
                "wall_s": time.perf_counter() - t0,
                "rc": proc.returncode,
                "stdout": proc.stdout,
                "stderr": proc.stderr,
            }
            if traced:
                rec["layers"] = json.loads(layers_path.read_text())
                for line in spans_path.read_text().splitlines():
                    span = json.loads(line)
                    span[0] = n
                    spans_out.append(span)
            records.append(rec)
        passes += 1
    return records


def run_cold(ops, seconds, trace, work, deadline) -> dict:
    spans = []
    if not trace:
        return {"untraced": run_cold_phase(ops, seconds, deadline, False, work, spans)}
    untraced = run_cold_phase(ops, seconds / 2, deadline, False, work, spans)
    traced = run_cold_phase(ops, seconds / 2, deadline, True, work, spans)
    write_spans(work.parent / "trace-cli_cold.jsonl", spans)
    return {"untraced": untraced, "traced": traced}


def run_worker(workload, ops, seconds, trace, work, deadline) -> dict:
    plan = work / "plan.json"
    result = work / "result.json"
    plan.write_text(
        json.dumps(
            {
                "ops": [{"label": op.label, "argv": op.argv} for op in ops],
                "seconds": seconds,
                "trace": bool(trace),
                "spans": str(work.parent / f"trace-{workload}.jsonl"),
            }
        )
    )
    proc = run_child([sys.executable, str(HERE / "worker.py"), str(plan), str(result)], deadline + 30.0 - time.perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


# ---------------------------------------------------------------------------
# Aggregation.


def by_label(records) -> dict:
    out = defaultdict(list)
    for r in records:
        out[r["label"]].append(r)
    return out


def pass_estimate(records, value) -> float:
    """Sum over operations of each operation's median ``value``."""
    return sum(statistics.median(value(r) for r in recs) for recs in by_label(records).values())


def command_seconds(rec):
    """The command's own ``timings_ms.total``, or None without output."""
    try:
        return json.loads(rec["stdout"])["timings_ms"]["total"] / 1e3
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def end_to_end(result, setup_times, cold) -> dict:
    recs = result["untraced"]
    if cold:
        # The largest child waited for so far: the CLI processes (the set-up
        # imports are smaller).  --workload all runs cli_cold first.
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak = (peak_kb / 1024.0, "largest child process")
    else:
        peak = (result["peak_rss_mb"], "worker process")
    passes = len(recs) // len(by_label(recs))
    return {
        "setup_s": (statistics.median(setup_times), f"n={len(setup_times)} set-ups"),
        "wall_s": (pass_estimate(recs, lambda r: r["wall_s"]), f"n={passes} passes"),
        "op_p50_s": (statistics.median(r["wall_s"] for r in recs), f"n={len(recs)} operations"),
        "peak_rss_mb": peak,
    }


def per_layer(result, cold) -> dict:
    traced, untraced = result["traced"], result["untraced"]
    out = {}
    for name, *_ in metrics.PER_LAYER:
        out[name] = (pass_estimate(traced, lambda r: r["layers"].get(name, 0.0)), "per pass")
    if cold:
        imports = [r["layers"]["cli.import_s"] for r in traced]
        out["cli.import_s"] = (statistics.median(imports), f"median of n={len(imports)} processes")
    else:
        out["cli.import_s"] = (result["import_s"], "worker process, n=1")
    overheads = [r["wall_s"] - s for r in untraced if (s := command_seconds(r)) is not None]
    out["cli.process_overhead_s"] = (statistics.median(overheads), f"median of n={len(overheads)} operations")
    wall_traced = pass_estimate(traced, lambda r: r["wall_s"])
    wall_untraced = pass_estimate(untraced, lambda r: r["wall_s"])
    out["trace.overhead_s"] = (wall_traced - wall_untraced, f"traced {wall_traced:.4f} s - untraced {wall_untraced:.4f} s")
    return out


def check_all(ops, result) -> tuple:
    checks = {op.label: op.check for op in ops}
    attempted = failed = 0
    problems = []
    for phase in ("untraced", "traced"):
        for rec in result.get(phase, ()):
            attempted += 1
            found = checks[rec["label"]](rec["rc"], rec["stdout"], rec["stderr"])
            if found:
                failed += 1
                problems.append(f"{phase} {rec['label']} pass {rec['pass']}: {'; '.join(found)}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Entry point.


def run_workload(workload, seed, seconds, trace, size) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S - 30.0
    base = ROOT / ".bench_work"
    work = base / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops, setup_times = time_setup(workload, work, seed, size)
        cold = workload == "cli_cold"
        if cold:
            result = run_cold(ops, seconds, trace, work, deadline)
        else:
            result = run_worker(workload, ops, seconds, trace, work, deadline)
        attempted, failed, problems = check_all(ops, result)
        values = per_layer(result, cold) if trace else end_to_end(result, setup_times, cold)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"FAILED {p}")
    nproc = len(os.sched_getaffinity(0))
    print(
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  size {size}  "
        f"BLAS threads {BLAS_THREADS}  nproc {nproc}  clients 1 (closed loop)"
    )
    print(f"  {'metric':34s} {'value':>14s}  {'unit':6s} samples")
    for name, (value, samples) in values.items():
        print(f"  {name:34s} {value:14.6f}  {metrics.UNITS[name]:6s} {samples}")
    print(f"  {'fail_ratio':34s} {failed / attempted:14.6f}  {'ratio':6s} {failed} failed of n={attempted} operations")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]} for name, (value, _) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dfrep" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no dfrep source tree (src/dfrep, scenarios) under {ROOT}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.size) for w in names}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
