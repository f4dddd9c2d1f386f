"""Command-line drivers for all analyses.

Usage: ``dfrep <command> --scenario <file> [flags]`` with commands

    check-axioms       sampled verification of the four axioms
    extract-ils        trace-pairing extraction plus round-trip residuals
    verify-conditions  the three operator conditions on X
    decompose          signed-family decomposition of the Hermitian form
    tracial            bounded representative M and the double-sum identity
    sweep              trace-norm/beta sweep across truncation dimensions
    demo-pure-state    the P U construction and its identities
    consistency        interference report for a projective family
    reconstruct        product-diagonal polarization round trip on M

All randomness derives from the scenario seed (or ``--seed``); numeric
output is formatted at 17 significant digits so identical inputs give
byte-identical numeric output.  Timing fields (``timings_ms``,
``elapsed_ms``) are the one exception and are documented as such.

Exit status: 0 pass-verdicts, 1 violation-verdicts, 2 input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .functionals import check_axioms
from .histories import consistency_report
from .ils import (
    extract_ils,
    ils_operator_from_matrix,
    verify_ils_conditions,
)
from .linalg import (
    ElementaryTensorSum,
    Projection,
    kron_trace,
    kron_trace_batch,
    operator_norm,
    random_projection,
    sample_projections,
    trace_norm,
    trace_pair,
)
from .probes import tensor_bound_probe
from .scenarios import Scenario, ScenarioError, parse_scenario
from .tracial import (
    GramHermiticityError,
    build_tracial_operator,
    double_sum_table,
    hermitian_form_decomposition,
    product_diagonal_of,
    pure_state_m,
    pure_state_projector,
    reconstruct_from_product_diagonal,
)

COMMANDS = (
    "check-axioms",
    "extract-ils",
    "verify-conditions",
    "decompose",
    "tracial",
    "sweep",
    "demo-pure-state",
    "consistency",
    "reconstruct",
)

_DEFAULT_SAMPLES = {
    "check-axioms": 200,
    "extract-ils": 100,
    "verify-conditions": 200,
    "decompose": 100,
    "tracial": 200,
    "sweep": 1000,
    "demo-pure-state": 100,
    "consistency": 0,
    "reconstruct": 0,
}

SWEEP_CSV_HEADER = "dim,trace_norm,sup_beta_rank_one,elapsed_ms"

_PASS_VERDICTS = {
    "pass",
    "tensor_bounded_evidence",
    "divergence_evidence",
    "inconclusive",
}


# ---------------------------------------------------------------------------
# Deterministic serialization: floats at 17 significant digits, sorted keys.


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite numeric output")
    return format(float(x), ".17g")


def json_text(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return json_text({"im": float(obj.imag), "re": float(obj.real)})
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{json_text(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    if isinstance(v, (complex, np.complexfloating)):
        return f"{_fmt_float(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt_float(abs(v.imag))}j"
    return str(v)


def records_csv(records, header_keys=None) -> str:
    if header_keys is None:
        keys: list = []
        for rec in records:
            for k in rec:
                if k not in keys:
                    keys.append(k)
        keys = sorted(keys)
    else:
        keys = list(header_keys)
    lines = [",".join(keys)]
    for rec in records:
        lines.append(",".join(_csv_cell(rec.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


@dataclass
class ResultRecord:
    """Machine-readable result of one command run."""

    command: str
    verdict: str
    seed: int
    records: list
    scenario_sha256: str
    timings_ms: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def payload(self) -> dict:
        out = {
            "command": self.command,
            "verdict": self.verdict,
            "seed": self.seed,
            "records": self.records,
            "scenario_sha256": self.scenario_sha256,
            "timings_ms": self.timings_ms,
        }
        out.update(self.extras)
        return out

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict in _PASS_VERDICTS else 1


# ---------------------------------------------------------------------------
# Command implementations.


def _pairing_residual(d, x_op, samples: int, seed: int) -> float:
    """Max |d(p, q) - tr((p (x) q) X)| over seeded random projection pairs,
    drawn p, q alternately; each side is one batched evaluation."""
    dim = d.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim, 17]))
    pq = sample_projections(dim, 2 * max(samples, 1), rng)
    p, q = pq[0::2], pq[1::2]
    return float(np.max(np.abs(d.pair_values(p, q) - kron_trace_batch(p, q, x_op))))


def _random_tensor_sums(dim: int, count: int, rng):
    for _ in range(count):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            terms.append((a, b))
        yield ElementaryTensorSum(tuple(terms))


def _cmd_check_axioms(scenario: Scenario, args) -> ResultRecord:
    d = scenario.build()
    seed = _seed(scenario, args)
    tol = _tol(args, scenario, "axioms")
    report = check_axioms(d, samples=_samples(args, "check-axioms"), seed=seed, tol=tol)
    rec = {
        "hermiticity_residual": report.hermiticity_residual,
        "positivity_min": report.positivity_min,
        "positivity_imag_max": report.positivity_imag_max,
        "normalization_residual": report.normalization_residual,
        "orthoadditivity_residual": report.orthoadditivity_residual,
        "samples": report.samples,
        "tolerance": tol,
    }
    rec.update({f"{k}_ok": v for k, v in report.verdicts().items()})
    return _result("check-axioms", scenario, seed, [rec], "pass" if report.passed else "violation")


def _cmd_extract_ils(scenario: Scenario, args) -> ResultRecord:
    d = scenario.build()
    seed = _seed(scenario, args)
    samples = _samples(args, "extract-ils")
    x = extract_ils(d, samples=samples, seed=seed)
    conds = verify_ils_conditions(x, samples=samples, seed=seed, tol=_tol(args, scenario, "conditions"))
    pairing = _pairing_residual(d, x.x_op, samples, seed)
    tol_pair = _tol(args, scenario, "pairing")
    ok = conds.passed and pairing <= tol_pair
    rec = {
        "trace": x.trace,
        "trace_norm": x.trace_norm,
        "swap_adjoint_residual": x.swap_adjoint_residual,
        "positivity_min_sampled": x.positivity_min_sampled,
        "pairing_residual": pairing,
        "pairing_tolerance": tol_pair,
        "samples": samples,
    }
    rec.update({f"{k}_ok": v for k, v in conds.verdicts().items()})
    return _result("extract-ils", scenario, seed, [rec], "pass" if ok else "violation")


def _cmd_verify_conditions(scenario: Scenario, args) -> ResultRecord:
    seed = _seed(scenario, args)
    samples = _samples(args, "verify-conditions")
    if scenario.kind == "operator":
        x = ils_operator_from_matrix(scenario.payload["matrix"], samples=samples, seed=seed)
    else:
        x = extract_ils(scenario.build(), samples=samples, seed=seed)
    conds = verify_ils_conditions(x, samples=samples, seed=seed, tol=_tol(args, scenario, "conditions"))
    rec = {
        "swap_adjoint_residual": conds.swap_adjoint_residual,
        "positivity_min": conds.positivity_min,
        "normalization_residual": conds.normalization_residual,
        "samples": samples,
        "tolerance": conds.tol,
    }
    rec.update({f"{k}_ok": v for k, v in conds.verdicts().items()})
    return _result(
        "verify-conditions", scenario, seed, [rec], "pass" if conds.passed else "violation"
    )


def _cmd_decompose(scenario: Scenario, args) -> ResultRecord:
    d = scenario.build()
    seed = _seed(scenario, args)
    samples = _samples(args, "decompose")
    try:
        dec = hermitian_form_decomposition(d, d.dim)
    except GramHermiticityError as exc:
        return _result("decompose", scenario, seed, [{"error": str(exc)}], "violation")
    rng = np.random.default_rng(np.random.SeedSequence([seed, d.dim, 23]))
    worst = 0.0
    for s in _random_tensor_sums(d.dim, max(samples, 1), rng):
        direct = sum(d.bilinear(a, b) for a, b in s.terms)
        worst = max(worst, abs(dec.beta(s) - direct))
    tol = _tol(args, scenario, "pairing")
    rec = {
        "x_family_size": len(dec.x_family),
        "y_family_size": len(dec.y_family),
        "signature_max": max(dec.signature) if dec.signature else 0.0,
        "signature_min": min(dec.signature) if dec.signature else 0.0,
        "beta_residual": worst,
        "tolerance": tol,
        "samples": samples,
    }
    return _result(
        "decompose", scenario, seed, [rec], "pass" if worst <= tol else "violation"
    )


def _cmd_tracial(scenario: Scenario, args) -> ResultRecord:
    d = scenario.build()
    seed = _seed(scenario, args)
    samples = _samples(args, "tracial")
    try:
        top = build_tracial_operator(d, d.dim)
    except GramHermiticityError as exc:
        return _result("tracial", scenario, seed, [{"error": str(exc)}], "violation")
    pairing = _pairing_residual(d, top.m_op, samples, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, d.dim, 29]))
    block_ranks = sorted({1, 2 if d.dim >= 2 else 1, d.dim})
    requested = args.block_rank
    if requested is not None and requested not in block_ranks:
        block_ranks.append(int(requested))
    pairs = [
        (
            random_projection(d.dim, int(rng.integers(1, d.dim + 1)), rng),
            random_projection(d.dim, int(rng.integers(1, d.dim + 1)), rng),
        )
        for _ in range(20)
    ]
    sums = double_sum_table(top, *zip(*pairs), block_ranks)
    double_res = 0.0
    for (p, q), row in zip(pairs, sums):
        direct = kron_trace(p, q, top.m_op)
        double_res = max(double_res, *(abs(v - direct) for v in row))
    tol = _tol(args, scenario, "pairing")
    rec = {
        "operator_norm": top.operator_norm,
        "pairing_residual": pairing,
        "double_sum_residual": double_res,
        "block_ranks": block_ranks,
        "x_family_size": len(top.source.x_family),
        "y_family_size": len(top.source.y_family),
        "tolerance": tol,
        "samples": samples,
    }
    ok = pairing <= tol and double_res <= 1e-10
    return _result("tracial", scenario, seed, [rec], "pass" if ok else "violation")


def _cmd_sweep(scenario: Scenario, args) -> ResultRecord:
    seed = _seed(scenario, args)
    try:
        dims = [int(x) for x in (args.dims or "3,4,5,6").split(",") if x.strip()]
    except ValueError:
        raise ScenarioError("--dims: expected a comma list of integers") from None
    if dims and dims[0] < scenario.dimension:
        raise ScenarioError(
            f"--dims: sweep dimensions must be >= the scenario dimension {scenario.dimension}"
        )
    report = tensor_bound_probe(
        scenario.functional_at, dims, samples=_samples(args, "sweep"), seed=seed
    )
    result = _result("sweep", scenario, seed, report.records(), report.verdict)
    result.extras["growth_slope"] = report.growth_slope
    result.extras["samples"] = report.samples
    return result


def _cmd_demo_pure_state(scenario: Scenario, args) -> ResultRecord:
    if scenario.kind != "pure_state":
        raise ScenarioError("demo-pure-state requires a pure_state scenario")
    d = scenario.build()
    seed = _seed(scenario, args)
    psi = scenario.payload["amplitudes"]
    m = pure_state_m(psi, verify=False)
    dim = scenario.dimension
    # (PU)(PU)^dag must reproduce P.
    adjoint_residual = float(np.linalg.norm(m @ m.conj().T - pure_state_projector(psi)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim, 31]))
    beta_res = 0.0
    for s in _random_tensor_sums(dim, _samples(args, "demo-pure-state"), rng):
        direct = sum(d.bilinear(a, b) for a, b in s.terms)
        beta_res = max(beta_res, abs(trace_pair(s.materialize(), m) - direct))
    tol_beta = args.tolerance if args.tolerance is not None else 1e-9
    rec = {
        "trace": complex(np.trace(m)),
        "trace_norm": trace_norm(m),
        "operator_norm": operator_norm(m),
        "pu_adjoint_residual": adjoint_residual,
        "beta_series_residual": beta_res,
        "beta_tolerance": tol_beta,
    }
    ok = (
        abs(np.trace(m) - 1.0) <= 1e-10
        and adjoint_residual <= 1e-10
        and beta_res <= tol_beta
    )
    return _result("demo-pure-state", scenario, seed, [rec], "pass" if ok else "violation")


def _cmd_consistency(scenario: Scenario, args) -> ResultRecord:
    d = scenario.build()
    seed = _seed(scenario, args)
    dim = scenario.dimension
    if scenario.kind == "class_operator":
        family = [Projection.from_matrix(p) for p in scenario.payload["schedules"][0]]
    else:
        family = [
            Projection(np.diag((np.arange(dim) == i).astype(complex)), 1)
            for i in range(dim)
        ]
    tol = _tol(args, scenario, "consistency")
    report = consistency_report(d, family, tolerance=tol)
    rec = {
        "off_diagonal_max": report.off_diagonal_max,
        "diagonals": list(report.diagonals),
        "total": report.total,
        "mode": report.mode,
        "tolerance": tol,
        "set_size": len(family),
    }
    return _result(
        "consistency", scenario, seed, [rec], "pass" if report.consistent else "violation"
    )


def _cmd_reconstruct(scenario: Scenario, args) -> ResultRecord:
    d = scenario.build()
    seed = _seed(scenario, args)
    top = build_tracial_operator(d, d.dim)
    recon = reconstruct_from_product_diagonal(product_diagonal_of(top.m_op), d.dim)
    resid = float(
        np.linalg.norm(recon - top.m_op) / max(1.0, np.linalg.norm(top.m_op))
    )
    tol = args.tolerance if args.tolerance is not None else 1e-8
    rec = {"reconstruction_residual": resid, "tolerance": tol}
    return _result(
        "reconstruct", scenario, seed, [rec], "pass" if resid <= tol else "violation"
    )


_HANDLERS = {
    "check-axioms": _cmd_check_axioms,
    "extract-ils": _cmd_extract_ils,
    "verify-conditions": _cmd_verify_conditions,
    "decompose": _cmd_decompose,
    "tracial": _cmd_tracial,
    "sweep": _cmd_sweep,
    "demo-pure-state": _cmd_demo_pure_state,
    "consistency": _cmd_consistency,
    "reconstruct": _cmd_reconstruct,
}


def _seed(scenario: Scenario, args) -> int:
    return int(args.seed) if args.seed is not None else scenario.seed


def _samples(args, command: str) -> int:
    return int(args.samples) if args.samples is not None else _DEFAULT_SAMPLES[command]


def _tol(args, scenario: Scenario, key: str) -> float:
    if args.tolerance is not None:
        return float(args.tolerance)
    return scenario.tolerance(key)


def _result(command, scenario, seed, records, verdict) -> ResultRecord:
    return ResultRecord(
        command=command,
        verdict=verdict,
        seed=seed,
        records=records,
        scenario_sha256=scenario.sha256,
    )


def run_command(command: str, scenario: Scenario, args) -> ResultRecord:
    """Dispatch one command; returns the result record with timings."""
    if command not in _HANDLERS:
        raise ScenarioError(f"unknown command {command!r}")
    t0 = time.perf_counter()
    record = _HANDLERS[command](scenario, args)
    record.timings_ms["total"] = (time.perf_counter() - t0) * 1e3
    return record


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfrep",
        description="Finite-truncation analyses of decoherence functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="write results to this path")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--samples", type=int, default=None, help="sample count override")
        p.add_argument("--tolerance", type=float, default=None, help="pass threshold override")
        p.add_argument("--block-rank", dest="block_rank", type=int, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        if name == "sweep":
            p.add_argument("--dims", default=None, help="comma list of sweep dimensions")
        else:
            p.set_defaults(dims=None)
    return parser


def _emit(record: ResultRecord, args) -> None:
    text = json_text(record.payload()) + "\n"
    sys.stdout.write(text)
    if args.out:
        fmt = args.fmt or ("csv" if record.command == "sweep" else "json")
        if fmt == "json":
            Path(args.out).write_text(text)
        else:
            if record.command == "sweep":
                header = SWEEP_CSV_HEADER.split(",")
            else:
                header = None
            Path(args.out).write_text(records_csv(record.records, header))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
        record = run_command(args.command, scenario, args)
    except ValueError as exc:
        # ScenarioError, DimensionExclusionError, DimensionLimitError, and
        # flag validation (bad --dims/--samples) are all input errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(record, args)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return record.exit_code


if __name__ == "__main__":
    sys.exit(main())
