"""Every threshold lives in ``dfrep.tolerances``.

A small float literal elsewhere in the package, or in the test reference
code of ``tests/reference.py``, is a threshold written out in place, and a
library default that restates a ``DEFAULT_TOLERANCES`` value can drift
from it; both are checked here.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import dfrep
from dfrep import check_axioms, consistency_report, verify_ils_conditions
from dfrep.tolerances import DEFAULT_TOLERANCES

PACKAGE = Path(dfrep.__file__).resolve().parent
# The test reference code reads the library's thresholds too.
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# Below this magnitude a float literal can only be a threshold.
SMALL = 1e-6


def _small_literals(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < SMALL
    ]


def test_no_small_float_literal_outside_tolerances():
    found = [
        hit
        for path in [*sorted(PACKAGE.glob("*.py")), REFERENCE]
        if path.name != "tolerances.py"
        for hit in _small_literals(path)
    ]
    assert found == []


def test_the_scan_sees_the_table():
    assert len(_small_literals(PACKAGE / "tolerances.py")) >= len(DEFAULT_TOLERANCES)


@pytest.mark.parametrize(
    "fn,param,key",
    [
        (check_axioms, "tol", "axioms"),
        (verify_ils_conditions, "tol", "conditions"),
        (consistency_report, "tolerance", "consistency"),
    ],
)
def test_library_defaults_read_the_table(fn, param, key):
    assert inspect.signature(fn).parameters[param].default == DEFAULT_TOLERANCES[key]
