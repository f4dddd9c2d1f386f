"""Self-test of the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Runs every workload once at reduced size, traced and untraced, and checks
that every named metric is emitted with its unit; feeds deliberately wrong
results to the checker; and checks the scenario generator.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import scenario_gen as gen  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        m[:4] for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_reduced_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert sorted(result["metrics"]) == sorted(m[0] for m in expected)
    for name, unit, *_ in expected:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
    # The table before the JSON line: name, value, unit, sample count.
    table = {parts[0]: parts for parts in map(str.split, proc.stdout.splitlines()[:-1]) if parts}
    for name, unit, *_ in expected:
        assert table[name][2] == unit
        assert len(table[name]) > 3


def test_bench_refuses_a_tree_without_the_package(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def dense_ops(tmp_path):
    return {op.label: op for op in workloads.build("represent_dense", ROOT, tmp_path, 5, "small")}


def _extraction_output(trace_norm, verdict="pass", ok=True):
    rec = {
        "trace": {"re": 1.0, "im": 0.0},
        "trace_norm": trace_norm,
        "pairing_residual": 1e-16,
        "pairing_tolerance": 1e-9,
        "hermiticity_ok": ok,
    }
    return json.dumps({"verdict": verdict, "records": [rec], "timings_ms": {"total": 1.0}})


def test_checker_counts_wrong_results_as_failures(dense_ops):
    op = dense_ops["extract-ils/pure_state"]
    dim = 6
    good = {"label": op.label, "pass": 0, "rc": 0, "stdout": _extraction_output(float(dim)), "stderr": ""}
    assert op.check(good["rc"], good["stdout"], good["stderr"]) == []
    wrong = [
        dict(good, stdout=_extraction_output(dim + 1e-3)),  # trace norm off
        dict(good, rc=1),  # exit code
        dict(good, stdout=_extraction_output(float(dim), verdict="violation")),
        dict(good, stdout=_extraction_output(float(dim), ok=False)),
        dict(good, stdout="not json"),
    ]
    attempted, failed, problems = run.check_all(list(dense_ops.values()), {"untraced": [good, *wrong]})
    assert (attempted, failed) == (1 + len(wrong), len(wrong))
    assert len(problems) == len(wrong)


def test_planted_defect_checks_reject_a_pass(tmp_path):
    ops = {op.label: op for op in workloads.build("cli_cold", ROOT, tmp_path, 5)}
    passing = json.dumps({"verdict": "pass", "records": [{"hermiticity_ok": True}]})
    assert ops["verify-conditions/planted_violation"].check(0, passing, "")
    assert ops["check-axioms/malformed"].check(0, passing, "")
    assert ops["check-axioms/malformed"].check(2, "", "error: something else")


def test_generator_is_seeded(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    for kind in ("pure_state", "operator", "form", "class_operator"):
        fa = gen.write_fixture(a, kind, 4, 7)
        fb = gen.write_fixture(b, kind, 4, 7)
        fc = gen.write_fixture(c, kind, 4, 8)
        assert fa.path.read_bytes() == fb.path.read_bytes()
        assert fa.path.read_bytes() != fc.path.read_bytes()


def test_generated_references_match_the_library(tmp_path):
    from dfrep import OperatorBackedFunctional, gram_matrix
    from dfrep.scenarios import parse_scenario

    for kind in ("pure_state", "operator", "form", "class_operator"):
        f = gen.write_fixture(tmp_path, kind, 4, 3)
        parse_scenario(f.path.read_text())
        if kind == "operator":
            ref = gram_matrix(OperatorBackedFunctional(f.arrays["x"]), 4)
            assert np.allclose(gen.realign_to_gram(f.arrays["x"]), ref, atol=1e-14)
    x = gen.write_skew_violation(tmp_path, 3).arrays["x"]
    swap = np.eye(9)[[(i % 3) * 3 + i // 3 for i in range(9)]]
    assert np.linalg.norm(x - swap @ x.conj().T @ swap) > 1e-3
