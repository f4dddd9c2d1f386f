"""Correctness checks for every benchmark operation.

Each check takes the operation's exit code, standard output and standard
error and returns a list of problems (empty when the output is correct).
Checks compare against the expected exit code and verdict and, with a
tolerance, against analytic references computed here with numpy from the
generator's arrays, never against a golden file.
"""

from __future__ import annotations

import json

import numpy as np

from scenario_gen import realign_to_gram, single_time_operator

# Relative tolerance for trace norms, spectra and operator norms against
# the references below; far above double-precision round-off at d <= 32.
REL_TOL = 1e-8
# Gram eigenvalues the program drops (tracial.EIG_DROP_REL).
EIG_DROP_REL = 1e-12


def _close(value, ref, rel=REL_TOL) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def _cnum(x) -> complex:
    return complex(float(x["re"]), float(x["im"])) if isinstance(x, dict) else complex(x)


def _parse(rc, stdout, expect_rc, verdicts):
    """Common envelope: exit code, one JSON document, verdict."""
    problems = []
    if rc != expect_rc:
        problems.append(f"exit code {rc}, expected {expect_rc}")
    try:
        doc = json.loads(stdout)
    except (json.JSONDecodeError, TypeError):
        return None, problems + ["stdout is not one JSON document"]
    if doc.get("verdict") not in verdicts:
        problems.append(f"verdict {doc.get('verdict')!r}, expected one of {verdicts}")
    if not doc.get("records"):
        problems.append("no records")
        return None, problems
    return doc, problems


def _all_ok(rec) -> list:
    return [f"{k} is false" for k, v in rec.items() if k.endswith("_ok") and v is not True]


def passed(rc, stdout, stderr, extra=None) -> list:
    """Exit 0 with a pass verdict and every ``*_ok`` flag true; ``extra``
    checks the first record further."""
    doc, problems = _parse(rc, stdout, 0, ("pass",))
    if doc is None:
        return problems
    rec = doc["records"][0]
    problems += _all_ok(rec)
    if extra is not None:
        problems += extra(rec)
    return problems


def axioms(rec) -> list:
    tol = rec["tolerance"]
    out = []
    for key in ("hermiticity_residual", "normalization_residual", "orthoadditivity_residual"):
        if not rec[key] <= tol:
            out.append(f"{key} {rec[key]} > {tol}")
    if not rec["positivity_min"] >= -tol:
        out.append(f"positivity_min {rec['positivity_min']} < -{tol}")
    return out


def extraction(trace_norm_ref):
    def check(rec) -> list:
        out = []
        if not _close(_cnum(rec["trace"]), 1.0, 1e-9):
            out.append(f"trace {rec['trace']} != 1")
        if not _close(rec["trace_norm"], trace_norm_ref()):
            out.append(f"trace_norm {rec['trace_norm']} != {trace_norm_ref()}")
        if not rec["pairing_residual"] <= rec["pairing_tolerance"]:
            out.append(f"pairing_residual {rec['pairing_residual']}")
        return out

    return check


def conditions(rec) -> list:
    tol = rec["tolerance"]
    out = []
    for key in ("swap_adjoint_residual", "normalization_residual"):
        if not rec[key] <= tol:
            out.append(f"{key} {rec[key]} > {tol}")
    if not rec["positivity_min"] >= -tol:
        out.append(f"positivity_min {rec['positivity_min']} < -{tol}")
    return out


def decomposition(spectrum_ref):
    def check(rec) -> list:
        top, bottom, kept = spectrum_ref()
        out = []
        if not rec["beta_residual"] <= rec["tolerance"]:
            out.append(f"beta_residual {rec['beta_residual']} > {rec['tolerance']}")
        scale = max(abs(top), abs(bottom))
        for key, ref in (("signature_max", top), ("signature_min", bottom)):
            if abs(rec[key] - ref) > REL_TOL * scale:
                out.append(f"{key} {rec[key]} != {ref}")
        if rec["x_family_size"] + rec["y_family_size"] != kept:
            out.append(f"family sizes {rec['x_family_size']}+{rec['y_family_size']} != {kept}")
        return out

    return check


def tracial_unit_norm(rec) -> list:
    out = []
    if not _close(rec["operator_norm"], 1.0):
        out.append(f"operator_norm {rec['operator_norm']} != 1")
    if not rec["pairing_residual"] <= rec["tolerance"]:
        out.append(f"pairing_residual {rec['pairing_residual']}")
    if not rec["double_sum_residual"] <= 1e-10:
        out.append(f"double_sum_residual {rec['double_sum_residual']}")
    return out


def reconstruction(rec) -> list:
    if rec["reconstruction_residual"] <= rec["tolerance"]:
        return []
    return [f"reconstruction_residual {rec['reconstruction_residual']} > {rec['tolerance']}"]


def consistent(set_size):
    def check(rec) -> list:
        out = []
        if not rec["off_diagonal_max"] <= rec["tolerance"]:
            out.append(f"off_diagonal_max {rec['off_diagonal_max']}")
        if not _close(rec["total"], 1.0, 1e-9):
            out.append(f"total {rec['total']} != 1")
        if rec["set_size"] != set_size or min(rec["diagonals"]) < -1e-12:
            out.append(f"diagonals {rec['diagonals']}")
        return out

    return check


def pure_state_demo(dim):
    def check(rec) -> list:
        out = []
        if not _close(_cnum(rec["trace"]), 1.0, 1e-10):
            out.append(f"trace {rec['trace']} != 1")
        if not _close(rec["trace_norm"], dim):
            out.append(f"trace_norm {rec['trace_norm']} != {dim}")
        if not _close(rec["operator_norm"], 1.0):
            out.append(f"operator_norm {rec['operator_norm']} != 1")
        if not rec["pu_adjoint_residual"] <= 1e-10:
            out.append(f"pu_adjoint_residual {rec['pu_adjoint_residual']}")
        if not rec["beta_series_residual"] <= rec["beta_tolerance"]:
            out.append(f"beta_series_residual {rec['beta_series_residual']}")
        return out

    return check


def sweep(dims):
    """The pure-state sweep: trace norms equal the dimensions, beta stays
    at most 1, and the verdict is divergence evidence."""

    def check(rc, stdout, stderr) -> list:
        doc, problems = _parse(rc, stdout, 0, ("divergence_evidence",))
        if doc is None:
            return problems
        recs = doc["records"]
        if [r["dim"] for r in recs] != list(dims):
            return problems + [f"dims {[r['dim'] for r in recs]} != {list(dims)}"]
        for r in recs:
            if not _close(r["trace_norm"], r["dim"]):
                problems.append(f"trace_norm {r['trace_norm']} != {r['dim']}")
            if not 0.0 < r["sup_beta_rank_one"] <= 1.0 + 1e-9:
                problems.append(f"sup_beta_rank_one {r['sup_beta_rank_one']} outside (0, 1]")
        return problems

    return check


def violation(flag):
    """A planted defect: exit 1, verdict ``violation`` and ``flag`` false."""

    def check(rc, stdout, stderr) -> list:
        doc, problems = _parse(rc, stdout, 1, ("violation",))
        if doc is None:
            return problems
        if doc["records"][0].get(flag) is not False:
            problems.append(f"{flag} is not false")
        return problems

    return check


def input_error(field_path):
    """Malformed input: exit 2, nothing on stdout, the field path named."""

    def check(rc, stdout, stderr) -> list:
        problems = []
        if rc != 2:
            problems.append(f"exit code {rc}, expected 2")
        if stdout.strip():
            problems.append("unexpected output on stdout")
        if field_path not in stderr:
            problems.append(f"error message does not name {field_path!r}: {stderr.strip()!r}")
        return problems

    return check


# ---------------------------------------------------------------------------
# Analytic references from the generator's arrays.


def trace_norm_of(x) -> float:
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))


def rotated_state(arrays) -> np.ndarray:
    """U rho U^dag with U = exp(-i t_1 H): the state seen by the
    single-time functional of a class-operator scenario."""
    w, v = np.linalg.eigh(arrays["hamiltonian"])
    u = (v * np.exp(-1j * arrays["times"][0] * w)) @ v.conj().T
    return u @ arrays["rho"] @ u.conj().T


def pairing_trace_norm(fixture) -> float:
    return trace_norm_of(pairing_operator_of(fixture))


def pairing_operator_of(fixture) -> np.ndarray:
    if fixture.kind in ("operator", "form"):
        return fixture.arrays["x"]
    if fixture.kind == "class_operator":
        return single_time_operator(rotated_state(fixture.arrays))
    raise ValueError(f"no pairing-operator reference for {fixture.kind}")


def gram_spectrum(fixture):
    """(largest, smallest, count) of the Gram eigenvalues the
    decomposition keeps."""
    g = realign_to_gram(pairing_operator_of(fixture))
    w = np.linalg.eigvalsh(g)
    w = w[np.abs(w) >= EIG_DROP_REL * max(float(np.max(np.abs(w))), 1e-300)]
    return float(w.max()), float(w.min()), int(w.size)
