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
    reconstruct        polarization-atom round trip on M (the extraction run on M)

Each ``_cmd_*`` handler returns its ``records`` and ``verdict`` in a dict;
:func:`run_command` adds ``command``, ``seed``, ``scenario_sha256`` and
``timings_ms``, and :func:`_emit` prints that summary.

All randomness derives from the scenario seed (or ``--seed``); numeric
output is formatted at 17 significant digits so identical inputs give
byte-identical numeric output on the same numpy and BLAS build with the
same number of BLAS threads.  Another thread count may move the last
digits of a float (a threaded BLAS sums in another order), but not a
verdict, string, integer or boolean.  Timing fields (``timings_ms``,
``elapsed_ms``) are the one exception and are documented as such.

Exit status: 1 for a ``violation`` verdict, 0 for any other (``pass`` and
the three sweep verdicts), 2 for an input error, an intermediate overflow or
a non-finite result.

The process entry, for ``python -m dfrep.cli`` and the ``dfrep`` script, is
:func:`run`; it calls :func:`main` and then freezes the heap, so the exit
pays no garbage collection.  Callers in a long-lived process call
:func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .functionals import OperatorBackedFunctional, check_axioms
from .histories import consistency_report
from .ils import bilinear_unit_table, extract_ils, verify_ils_conditions
from .linalg import (
    MAX_TERMS,
    block_draws,
    pairing_trace,
    pairing_values,
    projection_blocks,
    rank_one_proj,
)
from .probes import sweep_dims, tensor_bound_probe
from .scenarios import Scenario, ScenarioError, parse_scenario
from .tolerances import BETA_SERIES_TOL, IDENTITY_TOL, RECONSTRUCTION_TOL
from .tracial import (
    GramHermiticityError,
    build_tracial_operator,
    double_sum_table,
    family_sizes,
    hermitian_form_decomposition,
    pure_state_m,
    pure_state_projector,
)

# The commands that take --samples, with their defaults.
_DEFAULT_SAMPLES = {
    "check-axioms": 200,
    "extract-ils": 100,
    "verify-conditions": 200,
    "decompose": 100,
    "tracial": 200,
    "sweep": 1000,
    "demo-pure-state": 100,
}

SWEEP_CSV_HEADER = "dim,trace_norm,sup_beta_rank_one,elapsed_ms"


# ---------------------------------------------------------------------------
# Deterministic serialization: floats at 17 significant digits, sorted keys.


class NonFiniteOutputError(ValueError):
    """A NaN or an infinity in the output; ``args[0]`` is its field, as ``.records[0].residual``."""


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteOutputError("")
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
        members = (f"{json.dumps(str(k))}:{_member_text(f'.{k}', v)}" for k, v in items)
        return "{" + ",".join(members) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_member_text(f"[{i}]", v) for i, v in enumerate(obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _member_text(name: str, value) -> str:
    """``json_text(value)`` for the member ``name`` (``.key`` or ``[i]``) of a dict or list."""
    try:
        return json_text(value)
    except NonFiniteOutputError as exc:
        raise NonFiniteOutputError(name + exc.args[0]) from None


def _csv_cell(v) -> str:
    """A string as it is, a complex number as ``a+bj``, a list quoted as one cell."""
    if isinstance(v, str):
        return v
    if isinstance(v, (complex, np.complexfloating)):
        return f"{_fmt_float(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt_float(abs(v.imag))}j"
    if isinstance(v, (list, tuple)):
        return f'"{json_text(v)}"'  # numbers only, so no quote inside to double
    return json_text(v)


def records_csv(records, header_keys=None) -> str:
    keys = sorted({k for rec in records for k in rec}) if header_keys is None else list(header_keys)
    lines = [",".join(keys)]
    for rec in records:
        lines.append(",".join(_csv_cell(rec.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command implementations.


def _pairing_residual(d, x, samples: int, seed: int) -> float:
    """Max |d(p, q) - tr((p (x) q) X)| over seeded random projection pairs,
    drawn p, q alternately, for the operator-backed functional x of X; each
    side is one batched evaluation per block of
    :func:`dfrep.linalg.projection_blocks`."""
    dim = d.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim, 17]))

    def residual(pq):
        p, q = pq[0::2], pq[1::2]
        return np.max(np.abs(d.pair_values(p, q) - x.pair_values(p, q)))

    return float(max(map(residual, projection_blocks(dim, 2 * samples, rng))))


def _random_tensor_sums(dim: int, count: int, rng):
    """``count`` random tensor sums ``sum_m a_m (x) b_m`` of one to
    ``MAX_TERMS`` complex Gaussian terms, as term stacks ``a``, ``b`` and
    the index of each sum's first term.

    The term counts, and the real and imaginary parts of a and then of b,
    term by term, are drawn by :func:`dfrep.linalg.block_draws`.  So the
    first n sums do not depend on ``count``.
    """
    # The term counts and the normals of every block; each block is freed once concatenated.
    counts, z = zip(*block_draws(rng, count, 1, MAX_TERMS + 1, (4, dim, dim)))
    z = np.concatenate(z)
    starts = np.cumsum(np.concatenate([[0], *counts]))[:-1]
    return z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3], starts


def _max_sum_residual(values, ref, starts) -> float:
    """``max_k |sum_m values_m - sum_m ref_m|`` over the terms m of each
    tensor sum k (at least one sum)."""
    return float(np.max(np.abs(np.add.reduceat(values, starts) - np.add.reduceat(ref, starts))))


def _cmd_check_axioms(scenario: Scenario, args, seed: int) -> dict:
    tol = _tol(args, scenario.tolerance("axioms"))
    report = check_axioms(scenario.functional, samples=args.samples, seed=seed, tol=tol)
    return {"records": [report._asdict()], "verdict": "pass" if report.passed else "violation"}


def _cmd_extract_ils(scenario: Scenario, args, seed: int) -> dict:
    d = scenario.functional
    x = extract_ils(d)
    tol = _tol(args, scenario.tolerance("conditions"))
    conds = verify_ils_conditions(x, samples=args.samples, seed=seed, tol=tol)
    pairing = _pairing_residual(d, x, args.samples, seed)
    tol_pair = _tol(args, scenario.tolerance("pairing"))
    ok = conds.passed and pairing <= tol_pair
    rec = {
        "trace": pairing_trace(x.pairing),
        "trace_norm": x.trace_norm,
        "swap_adjoint_residual": conds.swap_adjoint_residual,
        "positivity_min_sampled": conds.positivity_min,
        "pairing_residual": pairing,
        "pairing_tolerance": tol_pair,
        "samples": args.samples,
        "hermiticity_ok": conds.hermiticity_ok,
        "positivity_ok": conds.positivity_ok,
        "normalization_ok": conds.normalization_ok,
    }
    return {"records": [rec], "verdict": "pass" if ok else "violation"}


def _cmd_verify_conditions(scenario: Scenario, args, seed: int) -> dict:
    d = scenario.functional
    # An operator or form scenario's functional already holds the pairing matrix P.
    x = d if isinstance(d, OperatorBackedFunctional) else extract_ils(d)
    tol = _tol(args, scenario.tolerance("conditions"))
    conds = verify_ils_conditions(x, samples=args.samples, seed=seed, tol=tol)
    return {"records": [conds._asdict()], "verdict": "pass" if conds.passed else "violation"}


def _cmd_decompose(scenario: Scenario, args, seed: int) -> dict:
    d = scenario.functional
    dec = hermitian_form_decomposition(d)
    rng = np.random.default_rng(np.random.SeedSequence([seed, d.dim, 23]))
    a, b, starts = _random_tensor_sums(d.dim, args.samples, rng)
    worst = _max_sum_residual(dec.term_values(a, b), d.pair_values(a, b), starts)
    tol = _tol(args, scenario.tolerance("pairing"))
    rec = {
        "x_family_size": len(dec.x_family),
        "y_family_size": len(dec.y_family),
        "signature_max": max(dec.signature) if dec.signature else 0.0,
        "signature_min": min(dec.signature) if dec.signature else 0.0,
        "beta_residual": worst,
        "tolerance": tol,
        "samples": args.samples,
    }
    return {"records": [rec], "verdict": "pass" if worst <= tol else "violation"}


def _cmd_tracial(scenario: Scenario, args, seed: int) -> dict:
    d = scenario.functional
    top = build_tracial_operator(d)
    pairing = _pairing_residual(d, top, args.samples, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, d.dim, 29]))
    block_ranks = sorted({1, min(2, d.dim), d.dim, args.block_rank} - {None})
    pq = next(projection_blocks(d.dim, 40, rng, min_rank=1))  # 20 pairs, p and q alternating
    p, q = pq[0::2], pq[1::2]
    sums = np.asarray(double_sum_table(top, p, q, block_ranks))
    double_res = float(np.max(np.abs(sums - pairing_values(p, q, top.pairing)[:, None])))
    tol = _tol(args, scenario.tolerance("pairing"))
    x_size, y_size = family_sizes(top)
    rec = {
        "operator_norm": top.operator_norm,
        "pairing_residual": pairing,
        "double_sum_residual": double_res,
        "block_ranks": block_ranks,
        "x_family_size": x_size,
        "y_family_size": y_size,
        "tolerance": tol,
        "samples": args.samples,
    }
    ok = pairing <= tol and double_res <= IDENTITY_TOL
    return {"records": [rec], "verdict": "pass" if ok else "violation"}


def _cmd_sweep(scenario: Scenario, args, seed: int) -> dict:
    try:  # every dimension, before any is extracted
        dims = sweep_dims(args.dims, max(2, scenario.dimension))
    except ValueError as exc:
        raise ScenarioError(f"--dims: {exc}") from None
    return tensor_bound_probe(scenario.functional_at, dims, samples=args.samples, seed=seed)._asdict()


def _cmd_demo_pure_state(scenario: Scenario, args, seed: int) -> dict:
    if scenario.kind != "pure_state":
        raise ScenarioError("demo-pure-state requires a pure_state scenario")
    d = scenario.functional
    psi = d.psi
    m = pure_state_m(psi)
    dim = scenario.dimension
    # (PU)(PU)^dag must reproduce P.
    adjoint_residual = float(np.linalg.norm(m @ m.conj().T - pure_state_projector(psi)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim, 31]))
    a, b, starts = _random_tensor_sums(dim, args.samples, rng)
    pu = OperatorBackedFunctional(m)
    beta_res = _max_sum_residual(pu.pair_values(a, b), d.pair_values(a, b), starts)
    tol_beta = _tol(args, BETA_SERIES_TOL)
    rec = {  # W P U = I (x) |psi><psi|, PSD of rank dim; W is unitary
        "trace": complex(np.trace(m)),
        "trace_norm": pu.trace_norm,
        "operator_norm": pu.operator_norm,
        "pu_adjoint_residual": adjoint_residual,
        "beta_series_residual": beta_res,
        "beta_tolerance": tol_beta,
    }
    ok = (
        abs(np.trace(m) - 1.0) <= IDENTITY_TOL
        and adjoint_residual <= IDENTITY_TOL
        and beta_res <= tol_beta
    )
    return {"records": [rec], "verdict": "pass" if ok else "violation"}


def _cmd_consistency(scenario: Scenario, args, seed: int) -> dict:
    d = scenario.functional
    if scenario.kind == "class_operator":
        family = list(d.model.schedules[0])
    else:
        family = [rank_one_proj(e) for e in np.eye(d.dim)]
    tol = _tol(args, scenario.tolerance("consistency"))
    report = consistency_report(d, family, tolerance=tol)
    return {"records": [report._asdict()], "verdict": "pass" if report.consistent else "violation"}


def _cmd_reconstruct(scenario: Scenario, args, seed: int) -> dict:
    d = scenario.functional
    top = build_tracial_operator(d)
    # ||L - M||_F for L the extraction run on M, compared in pairing space: the
    # operators L and M are index transposes of their pairing matrices, of equal norms.
    units = bilinear_unit_table(top)
    units -= top.pairing  # in place: each d^4 complex array is 268 MB at d = 64
    resid = float(np.linalg.norm(units) / max(1.0, np.linalg.norm(top.pairing)))
    tol = _tol(args, RECONSTRUCTION_TOL)
    rec = {"reconstruction_residual": resid, "tolerance": tol}
    return {"records": [rec], "verdict": "pass" if resid <= tol else "violation"}


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

COMMANDS = tuple(_HANDLERS)


def _tol(args, default: float) -> float:
    """The pass threshold of one run: ``--tolerance`` if given, else ``default``."""
    return args.tolerance if args.tolerance is not None else default


def run_command(command: str, scenario: Scenario, args) -> dict:
    """Dispatch one command; returns its summary, the handler's fields plus
    ``command``, ``seed``, ``scenario_sha256`` and ``timings_ms``.  A
    non-Hermitian Gram matrix is a ``violation``, not an input error; an
    overflow or invalid operation inside the command is an input error."""
    if command not in _HANDLERS:
        raise ScenarioError(f"unknown command {command!r}")
    t0 = time.perf_counter()
    seed = args.seed if args.seed is not None else scenario.seed
    try:
        with np.errstate(over="raise", invalid="raise"):
            summary = _HANDLERS[command](scenario, args, seed)
    except GramHermiticityError as exc:
        summary = {"records": [{"error": str(exc)}], "verdict": "violation"}
    except FloatingPointError as exc:
        raise ScenarioError(f"{command}: {exc}") from None
    summary.update(command=command, seed=seed, scenario_sha256=scenario.sha256)
    summary["timings_ms"] = {"total": (time.perf_counter() - t0) * 1e3}
    return summary


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


def _flag_type(convert, expected: str, accept=lambda value: True):
    """An argparse ``type=``: a value that ``convert`` or ``accept`` refuses exits 2."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_SEED = _flag_type(int, "an integer >= 0", lambda v: v >= 0)
_POSITIVE = _flag_type(int, "an integer >= 1", lambda v: v >= 1)
_TOLERANCE = _flag_type(float, "a finite number >= 0", lambda v: 0.0 <= v < math.inf)
_DIMS = _flag_type(lambda t: [int(x) for x in t.split(",") if x.strip()], "a comma list of integers")


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, with only the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="dfrep",
        description="Finite-truncation analyses of decoherence functionals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="write results to this path")
        p.add_argument("--seed", type=_SEED, default=None, help="override the scenario seed")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        if name in _DEFAULT_SAMPLES:
            p.add_argument("--samples", type=_POSITIVE, default=_DEFAULT_SAMPLES[name])
        if name == "sweep":
            p.add_argument("--dims", type=_DIMS, default="3,4,5,6", help="sweep dimensions")
        else:
            p.add_argument("--tolerance", type=_TOLERANCE, default=None, help="pass threshold override")
        if name == "tracial":
            p.add_argument("--block-rank", dest="block_rank", type=_POSITIVE, default=None)
    return parser


# The parser of :func:`main`, built on its first call and reused by later ones.
_main_parser = functools.cache(build_parser)


def _emit(summary: dict, args) -> None:
    text = json_text(summary) + "\n"
    sys.stdout.write(text)
    if args.out:
        sweep = summary["command"] == "sweep"
        header = SWEEP_CSV_HEADER.split(",") if sweep else None
        csv = (args.fmt or ("csv" if sweep else "json")) == "csv"
        Path(args.out).write_text(records_csv(summary["records"], header) if csv else text)


def main(argv=None) -> int:
    parser = _main_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # No newline translation, so that a CRLF file hashes as its bytes.
        text = Path(args.scenario).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
        del text  # not held while the command runs
        summary = run_command(args.command, scenario, args)
    except ValueError as exc:
        # ScenarioError, DimensionExclusionError and DimensionLimitError
        # are all input errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(summary, args)
    except NonFiniteOutputError as exc:  # raised before anything is written
        print(f"error: non-finite numeric output in {exc.args[0].lstrip('.')}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 1 if summary["verdict"] == "violation" else 0


def run() -> int:
    """The process entry: :func:`main`, then ``gc.freeze()``.

    Freezing moves every object the process holds into the permanent
    generation, which the interpreter's exit-time collection does not walk;
    that collection otherwise costs about a tenth of a cold command on the
    shipped scenarios.  :func:`main` itself leaves the collector alone, as
    it also runs in long-lived processes.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
