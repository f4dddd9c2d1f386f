"""What a cold ``dfrep`` process loads.

Importing scipy cost more than half of every cold CLI call, and the first
``np.unique`` imports ``numpy.ma``; neither is needed.  The commands are run
in a fresh interpreter, because this test process may have imported either
module already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == {name: 0 for name, _ in runs}
    assert out["loaded"] == {"import": [], **{name: [] for name, _ in runs}}
