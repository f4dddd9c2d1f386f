"""What a cold ``dfrep`` process loads, and its process entry.

Importing scipy cost more than half of every cold CLI call, and the first
``np.unique`` imports ``numpy.ma``; neither is needed.  Nor is
``dataclasses``, whose classes are built from generated source at import.
The commands are run in a fresh interpreter, because this test process may
have imported any of these modules already.

The process entry :func:`dfrep.cli.run` freezes the heap after
:func:`dfrep.cli.main`; ``main`` itself, which long-lived callers use, must
leave the collector alone.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfrep import Projection, cli, hermitian_form_decomposition
from dfrep.scenarios import parse_scenario
from conftest import operator_scenario_text, skew_corrupted_operator

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SRC = ROOT / "src"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fresh(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, with its output captured."""
    return subprocess.run(
        [sys.executable, *args], env=_env(), capture_output=True, text=True, timeout=120
    )

_PROBE = """
import contextlib, io, json, sys
unwanted = ("scipy", "numpy.ma")
loaded = {}
from dfrep.cli import main
loaded["import"] = [m for m in unwanted if m in sys.modules]
codes = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = main(argv)
    loaded[name] = [m for m in unwanted if m in sys.modules]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_cli_loads_neither_scipy_nor_numpy_ma():
    runs = [
        ("check-axioms", ["check-axioms", "--scenario", str(SCENARIOS / "operator_product_state_dim3.json")]),
        ("check-axioms-classop", ["check-axioms", "--scenario", str(SCENARIOS / "class_operator_trivial_dim3.json")]),
        ("sweep", ["sweep", "--scenario", str(SCENARIOS / "pure_state_dim2.json"), "--dims", "2,3,4"]),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == {name: 0 for name, _ in runs}
    assert out["loaded"] == {"import": [], **{name: [] for name, _ in runs}}


def test_cold_cli_process_imports_no_dataclasses():
    """``-X importtime`` lists every module the ``python -m dfrep.cli``
    process imports, from interpreter start to exit."""
    argv = ["check-axioms", "--scenario", str(SCENARIOS / "operator_product_state_dim3.json")]
    proc = _fresh("-X", "importtime", "-m", "dfrep.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "dfrep.scenarios" in imported
    assert "dataclasses" not in imported


def _value_objects():
    """One instance of each class that was a frozen dataclass."""
    text = (SCENARIOS / "class_operator_trivial_dim3.json").read_text()
    scenario = parse_scenario(text)
    d = scenario.functional
    return {
        "Projection": Projection(np.eye(3), 3),
        "ClassOperatorModel": d.model,
        "Scenario": scenario,
        "Decomposition": hermitian_form_decomposition(d),
    }


def test_value_classes_refuse_reassignment():
    """Without dataclasses the value classes still refuse to reassign or
    delete a field, so what their construction checked keeps holding."""
    for name, obj in _value_objects().items():
        field = next(iter(vars(obj)))
        before = vars(obj)[field]
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert vars(obj)[field] is before, name


# Each case: the argv of one run and its exit code (0 pass, 1 violation, 2 input error).
_CASES = {
    "pass": (["check-axioms", "--scenario", str(SCENARIOS / "operator_product_state_dim3.json")], 0),
    "planted_skew": (["verify-conditions", "--scenario", "{skew}"], 1),
    "malformed": (["check-axioms", "--scenario", "{malformed}"], 2),
}

# Calls the entry point named by argv[1] ("module:attribute") as a console
# script does, with the rest of argv as the command line, and prints its
# exit code, its stdout and the heap's frozen object count as JSON.
_ENTRY = """
import contextlib, gc, importlib, io, json, sys
module, _, attr = sys.argv.pop(1).partition(":")
entry = getattr(importlib.import_module(module), attr)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = entry()
print(json.dumps({"code": code, "stdout": out.getvalue(), "frozen": gc.get_freeze_count()}))
"""


def _case_argv(name, tmp_path) -> list:
    skew = tmp_path / "skew.json"
    skew.write_text(operator_scenario_text(skew_corrupted_operator(3)))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"dimension": 3, "functional": {"type": "pure_state"}}')
    argv, _ = _CASES[name]
    return [a.format(skew=skew, malformed=malformed) for a in argv]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _untimed(stdout: str):
    """The JSON record without its timing field (empty output as None)."""
    if not stdout:
        return None
    record = json.loads(stdout)
    record.pop("timings_ms")
    return record


def _script_target() -> str:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["dfrep"]


@pytest.mark.parametrize("name", list(_CASES))
def test_process_entries_return_mains_exit_codes(name, tmp_path):
    """The ``dfrep`` script target is ``run``; it and ``python -m dfrep.cli``
    exit with ``main``'s code and print its output; only the script froze
    the heap."""
    argv = _case_argv(name, tmp_path)
    code, out, err = _in_process(argv)
    assert code == _CASES[name][1]

    target = _script_target()
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.run
    proc = _fresh("-c", _ENTRY, target, *argv)
    script = json.loads(proc.stdout)
    assert script["code"] == code
    assert _untimed(script["stdout"]) == _untimed(out)
    assert script["frozen"] > 0
    assert proc.stderr == err

    proc = _fresh("-m", "dfrep.cli", *argv)
    assert proc.returncode == code
    assert _untimed(proc.stdout) == _untimed(out)
    assert proc.stderr == err


def test_main_leaves_the_collector_alone(tmp_path):
    for name in _CASES:
        _in_process(_case_argv(name, tmp_path))
    assert gc.get_freeze_count() == 0
