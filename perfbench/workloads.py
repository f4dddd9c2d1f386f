"""The benchmark's workloads: which operations run, on which generated
inputs, and how each output is checked.

``build(workload, root, work_dir, seed, size)`` writes the workload's input
files and returns its operations; the benchmark calls it several times to
time set-up.  ``size="small"`` shrinks dimensions and sample counts for the
benchmark's self-test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import scenario_gen as gen

WORKLOADS = ("cli_cold", "represent_dense", "sample_small")


@dataclass
class Op:
    label: str
    argv: list
    check: Callable  # (exit code, stdout, stderr) -> list of problems


def _passed(extra=None):
    return functools.partial(checks.passed, extra=extra)


def _cached(fn, *args):
    return functools.cache(functools.partial(fn, *args))


def _arg(fixture) -> list:
    return ["--scenario", str(fixture.path)]


def cli_cold(root: Path, work: Path, seed: int, size: str) -> list:
    """Every command on the shipped d <= 3 scenarios, plus one planted
    violation and one malformed scenario, each as a cold process."""
    shipped = root / "scenarios"
    operator = gen.load_fixture(shipped / "operator_product_state_dim3.json")
    pure = gen.load_fixture(shipped / "pure_state_dim3.json")
    pure2 = gen.load_fixture(shipped / "pure_state_dim2.json")
    classop = gen.load_fixture(shipped / "class_operator_trivial_dim3.json")
    skew = gen.write_skew_violation(work, seed)
    malformed, field_path = gen.write_malformed(work, seed)
    dims = list(range(2, 9))
    seed_arg = ["--seed", str(seed)]
    return [
        Op("check-axioms/operator", ["check-axioms", *_arg(operator), *seed_arg], _passed(checks.axioms)),
        Op(
            "extract-ils/pure_state",
            ["extract-ils", *_arg(pure), *seed_arg],
            _passed(checks.extraction(lambda: float(pure.dim))),
        ),
        Op("verify-conditions/operator", ["verify-conditions", *_arg(operator), *seed_arg], _passed(checks.conditions)),
        Op(
            "decompose/class_operator",
            ["decompose", *_arg(classop), *seed_arg],
            _passed(checks.decomposition(_cached(checks.gram_spectrum, classop))),
        ),
        Op("tracial/pure_state", ["tracial", *_arg(pure), *seed_arg], _passed(checks.tracial_unit_norm)),
        Op(
            "sweep/pure_state",
            ["sweep", *_arg(pure2), "--dims", ",".join(map(str, dims)), *seed_arg],
            checks.sweep(dims),
        ),
        Op("demo-pure-state/pure_state", ["demo-pure-state", *_arg(pure), *seed_arg], _passed(checks.pure_state_demo(pure.dim))),
        Op(
            "consistency/class_operator",
            ["consistency", *_arg(classop), *seed_arg],
            _passed(checks.consistent(len(classop.arrays["schedules"][0]))),
        ),
        Op("reconstruct/operator", ["reconstruct", *_arg(operator), *seed_arg], _passed(checks.reconstruction)),
        Op("verify-conditions/planted_violation", ["verify-conditions", *_arg(skew), *seed_arg], checks.violation("hermiticity_ok")),
        Op("check-axioms/malformed", ["check-axioms", *_arg(malformed)], checks.input_error(field_path)),
    ]


def _extraction_op(fixture, trace_norm_ref) -> Op:
    return Op(
        f"extract-ils/{fixture.kind}",
        ["extract-ils", *_arg(fixture)],
        _passed(checks.extraction(trace_norm_ref)),
    )


def represent_dense(root: Path, work: Path, seed: int, size: str) -> list:
    """Few, large representation builds near the top of the reachable range."""
    dims = {"full": (28, 20, 14, 20), "small": (6, 5, 4, 5)}[size]
    pure = gen.write_fixture(work, "pure_state", dims[0], seed)
    operator = gen.write_fixture(work, "operator", dims[1], seed)
    classop = gen.write_fixture(work, "class_operator", dims[2], seed)
    form = gen.write_fixture(work, "form", dims[3], seed)
    return [
        _extraction_op(pure, lambda: float(pure.dim)),
        _extraction_op(operator, _cached(checks.pairing_trace_norm, operator)),
        _extraction_op(classop, _cached(checks.pairing_trace_norm, classop)),
        Op(
            "decompose/form",
            ["decompose", *_arg(form)],
            _passed(checks.decomposition(_cached(checks.gram_spectrum, form))),
        ),
    ]


def sample_small(root: Path, work: Path, seed: int, size: str) -> list:
    """Many samples at small d: per-sample Python loops dominate."""
    full = size == "full"
    d = 8 if full else 4
    samples = ["--samples", "1000" if full else "50"]
    fixtures = {kind: gen.write_fixture(work, kind, d, seed) for kind in ("pure_state", "operator", "form", "class_operator")}
    sweep_base = gen.write_fixture(work, "pure_state", 3, seed)
    sweep_dims = list(range(3, 9 if full else 7))
    operator12 = gen.write_fixture(work, "operator", 12 if full else 4, seed, tag="conditions")
    pure16 = gen.write_fixture(work, "pure_state", 16 if full else 4, seed, tag="tracial")
    classop = fixtures["class_operator"]
    ops = [
        Op(f"check-axioms/{kind}", ["check-axioms", *_arg(f), *samples], _passed(checks.axioms))
        for kind, f in fixtures.items()
    ]
    return ops + [
        Op(
            "sweep/pure_state",
            ["sweep", *_arg(sweep_base), "--dims", ",".join(map(str, sweep_dims)), "--samples", "4000" if full else "100"],
            checks.sweep(sweep_dims),
        ),
        Op("verify-conditions/operator", ["verify-conditions", *_arg(operator12), *samples], _passed(checks.conditions)),
        Op("tracial/pure_state", ["tracial", *_arg(pure16)], _passed(checks.tracial_unit_norm)),
        Op("reconstruct/form", ["reconstruct", *_arg(fixtures["form"])], _passed(checks.reconstruction)),
        Op(
            "decompose/class_operator",
            ["decompose", *_arg(classop)],
            _passed(checks.decomposition(_cached(checks.gram_spectrum, classop))),
        ),
        Op(
            "consistency/class_operator",
            ["consistency", *_arg(classop)],
            _passed(checks.consistent(len(classop.arrays["schedules"][0]))),
        ),
    ]


BUILDERS = {"cli_cold": cli_cold, "represent_dense": represent_dense, "sample_small": sample_small}


def build(workload: str, root: Path, work: Path, seed: int, size: str = "full") -> list:
    return BUILDERS[workload](Path(root), Path(work), int(seed), size)
