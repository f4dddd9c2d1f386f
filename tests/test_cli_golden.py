"""CLI output parity against committed golden output.

Every command runs on every shipped scenario, once with the scenario seed
and once with ``--seed 7``.  Timing fields (``timings_ms``, ``elapsed_ms``)
are dropped.  Keys, strings, verdicts and exit codes must match exactly;
numbers must match to ``REL_TOL`` relative (``ABS_TOL`` absolute near
zero), so BLAS rounding on another machine does not fail the check while
any real change in output does.

The golden file is regenerated only when an output change is declared:

    PYTHONPATH=src python tests/test_cli_golden.py

This keeps every stored case that still matches under the tolerances above
and rewrites only the cases that fail them or are missing, so rounding-level
differences on another machine leave the file unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from dfrep.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.name for p in (ROOT / "scenarios").glob("*.json"))
SEEDS = (None, 7)
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"
TIMING_KEYS = ("timings_ms", "elapsed_ms")
REL_TOL = 1e-12
ABS_TOL = 1e-14


def _case_id(command: str, scenario: str, seed) -> str:
    return f"{command}/{scenario}/seed={'default' if seed is None else seed}"


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def run_case(command: str, scenario: str, seed) -> dict:
    """Exit code, timing-free JSON output (or None) and stderr of one run."""
    argv = [command, "--scenario", str(ROOT / "scenarios" / scenario)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    return {
        "exit_code": code,
        "output": _strip_timings(json.loads(text)) if text else None,
        "stderr": err.getvalue(),
    }


def _assert_matches(got, want, path: str) -> None:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), f"{path}: {got!r}"
        bound = max(REL_TOL * max(abs(got), abs(want)), ABS_TOL)
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=bound), (
            f"{path}: {got!r} != {want!r} (bound {bound:.3g})"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (
            f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        )
        for k in want:
            _assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        raise TypeError(f"{path}: unexpected golden value {want!r}")


def _all_cases():
    return [(c, s, seed) for s in SCENARIOS for c in COMMANDS for seed in SEEDS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(*case) for case in _all_cases())


@pytest.mark.parametrize("command,scenario,seed", _all_cases(), ids=lambda v: str(v))
def test_cli_output_matches_golden(golden, command, scenario, seed):
    _assert_matches(run_case(command, scenario, seed), golden[_case_id(command, scenario, seed)], "run")


def _kept_or_rerun(stored: dict, case) -> dict:
    """The stored result of a case if a fresh run still matches it, else the fresh run."""
    got = run_case(*case)
    want = stored.get(_case_id(*case))
    if want is None:
        return got
    try:
        _assert_matches(got, want, "run")
    except AssertionError:
        return got
    return want


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    cases = {_case_id(*case): _kept_or_rerun(stored, case) for case in _all_cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
