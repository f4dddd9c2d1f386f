"""Run one dfrep command with one and then two BLAS threads and compare.

Usage: ``python .github/blas_parity.py <command> [dfrep flags...]``

The command runs twice as ``python -m dfrep.cli <command> ...``, with
``OPENBLAS_NUM_THREADS`` (and ``OMP_NUM_THREADS``) set to 1 and then 2.
Byte-identical output holds only on one numpy and BLAS build at one thread
count: a threaded BLAS may sum in another order, which moves the last
digits of a float.  So this checks what does hold: equal exit codes and
equal JSON structure, every string, integer and boolean field equal, and
every float within ``1e-12 * max(1, |x|)``.  Timing fields are skipped.
Prints the largest float gap; exits 1 on the first mismatch, else 0.
"""

import json
import os
import subprocess
import sys

REL = 1e-12
TIMING_KEYS = ("timings_ms", "elapsed_ms")


def run(threads: str):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-m", "dfrep.cli", *sys.argv[1:]], env=env, capture_output=True, text=True
    )
    return proc.returncode, json.loads(proc.stdout)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(a, b, path, gaps) -> None:
    """Exit on the first field that differs beyond the rules above; append
    each float gap to ``gaps``.  A float printed at 17 digits reads back as
    an int when it is integral, so a number pair with a float in it is
    compared as floats."""
    if isinstance(a, dict) and isinstance(b, dict) and sorted(a) == sorted(b):
        for k in a:
            if k not in TIMING_KEYS:
                compare(a[k], b[k], f"{path}.{k}", gaps)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", gaps)
    elif _is_number(a) and _is_number(b) and float in (type(a), type(b)):
        gaps.append(abs(a - b))
        if gaps[-1] > REL * max(1.0, abs(a)):
            sys.exit(f"{path} differs: {a!r} with 1 thread, {b!r} with 2")
    elif type(a) is not type(b) or a != b:
        sys.exit(f"{path or 'output'} differs: {a!r} with 1 thread, {b!r} with 2")


(code1, out1), (code2, out2) = run("1"), run("2")
if code1 != code2:
    sys.exit(f"exit codes differ: {code1} with 1 thread, {code2} with 2")
gaps = [0.0]
compare(out1, out2, "", gaps)
print(f"{sys.argv[1]}: exit {code1} with 1 and 2 BLAS threads, largest float gap {max(gaps):.3g}")
