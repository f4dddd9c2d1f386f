"""Every library function is reached by a command, or is on a short list
that says why not.

A fresh interpreter profiles its own calls (``sys.setprofile``) from before
``dfrep`` is imported, so import-time and first-call work counts, and runs
every command on every shipped scenario, printing JSON to stdout and
writing the CSV record file, so both writers run.  The functions and
methods defined in ``src/dfrep`` whose code never ran must be exactly
:data:`UNREACHED`.  A new library name that only tests call fails here:
call it from a command, move it to ``tests/reference.py``, delete it, or
add it below with its reason.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from dfrep.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent

_TRACER = "pinned by a perfbench/tracer.py target or wrapper"

# Each function no command reaches, by module and qualified name, with the reason it stays.
UNREACHED = {
    "cli.run": "the process entry, which calls main; the run here calls main itself",
    "functionals.DecoherenceFunctional.bilinear": "base-class default for a generic functional",
    "functionals.DecoherenceFunctional.pair_table": "base-class default for a generic functional",
    "functionals.DecoherenceFunctional.pair_values": "base-class default for a generic functional",
    "functionals.DecoherenceFunctional.rank_one_table_against": "base-class default for a generic functional",
    "linalg.rank_one_matrices": "the operands of the base-class rank_one_table_against",
    "linalg.Frozen.__setattr__": "error-only: refuses to reassign a field",
    "linalg.Frozen.__delattr__": "error-only: refuses to delete a field",
    "linalg._which": "error-only: names the projection a validation rejects",
    "ils.ils_operator_from_matrix": _TRACER,
    "linalg.kron_trace": _TRACER,
    "linalg.swap_operator": _TRACER,
    "linalg.random_projection": _TRACER,
    "linalg.Projection.__init__": "the class random_projection returns, " + _TRACER,
    "linalg.Projection.__post_init__": _TRACER,
    "linalg._as_rng": "the seed of random_projection, " + _TRACER,
    "tracial.Decomposition.beta": _TRACER,
    "tracial.Decomposition.pairing_operator": _TRACER,
    "tracial.evaluate_double_sum": _TRACER,
    "tracial.reconstruct_from_product_diagonal": _TRACER,
    "tracial.product_diagonal_of": _TRACER,
    "linalg.vector_supports": "the operands of product_diagonal_of, " + _TRACER,
    "probes.SweepReport.dims": "read by the tracer's probes.samples counter",
}

_PROBE = """
import contextlib, importlib, inspect, io, json, pkgutil, sys
from pathlib import Path

scenarios, out = Path(sys.argv[1]), Path(sys.argv[2])
ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(profile)
import dfrep
from dfrep import cli

modules = [importlib.import_module("dfrep." + m.name) for m in pkgutil.iter_modules(dfrep.__path__)]
runs = 0
for scenario in sorted(scenarios.glob("*.json")):
    for command in cli.COMMANDS:
        argv = [command, "--scenario", str(scenario), "--out", str(out), "--format", "csv"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        runs += 1
sys.setprofile(None)


def function_of(v):
    # A property's getter, a cached_property's function, a classmethod's function.
    for attr in ("fget", "func", "__func__"):
        v = getattr(v, attr, v)
    return v if inspect.isfunction(v) else None


defined = {}  # code object: module and qualified name, under which an alias is listed once
for mod in modules:
    short = mod.__name__.removeprefix("dfrep.")
    for obj in list(vars(mod).values()):
        members = [obj, *vars(obj).values()] if inspect.isclass(obj) else [obj]
        for f in filter(None, map(function_of, members)):
            if f.__code__.co_filename == mod.__file__:
                defined[f.__code__] = short + "." + f.__qualname__
print(json.dumps({"unreached": sorted(defined[c] for c in defined if c not in ran), "runs": runs}))
"""


def test_every_library_function_is_reached_or_listed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "scenarios"), str(tmp_path / "records.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["runs"] == len(COMMANDS) * len(list((ROOT / "scenarios").glob("*.json"))) > 0
    assert sorted(result["unreached"]) == sorted(UNREACHED)
