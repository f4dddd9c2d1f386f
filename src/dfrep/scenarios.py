"""Scenario files: parsing, validation, serialization, and functional
construction.

Scenarios are JSON objects with explicit real/imaginary arrays (no complex
literal syntax), so they stay portable:

    {
      "dimension": 3,
      "seed": 11,
      "tolerances": {"axioms": 1e-8},
      "functional": {
        "type": "pure_state",
        "amplitudes": {"re": [1, 0, 0], "im": [0, 0, 0]}
      }
    }

Functional types and their payloads:

* ``operator``        — ``matrix``: d^2 x d^2 operator on H (x) H;
* ``pure_state``      — ``amplitudes``: unit vector of length d;
* ``form``            — ``gram``: d^2 x d^2 Hermitian Gram matrix over the
                        matrix-unit basis;
* ``class_operator``  — ``rho``, ``hamiltonian`` (d x d), ``times``,
                        ``schedules`` (per time, a list of projection
                        matrices resolving the identity).

Validation failures name the offending field by path.  Scenarios embed into
larger dimensions (zero-padding; a class-operator schedule absorbs the
complement into its last projection) so one file can drive a sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .functionals import (
    DecoherenceFunctional,
    FormBackedFunctional,
    OperatorBackedFunctional,
    PureStateFunctional,
)
from .histories import ClassOperatorModel, standard_df
from .linalg import MAX_DIM, Projection


class ScenarioError(ValueError):
    """Invalid scenario text; the message names the offending field."""


KINDS = ("operator", "pure_state", "form", "class_operator")

DEFAULT_TOLERANCES = {
    "axioms": 1e-8,
    "conditions": 1e-8,
    "pairing": 1e-9,
    "consistency": 1e-9,
}


def _is_number(v, types=(int, float)) -> bool:
    """A JSON number of the given Python types; never a ``bool``, which
    Python counts as an ``int``."""
    return isinstance(v, types) and not isinstance(v, bool)


def _complex_array(node, path: str, shape) -> np.ndarray:
    if not isinstance(node, dict) or "re" not in node:
        raise ScenarioError(f"{path}: expected an object with 're' (and optional 'im') arrays")
    try:
        re = np.asarray(node["re"], dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"{path}.re: not a numeric array") from None
    if "im" in node:
        try:
            im = np.asarray(node["im"], dtype=float)
        except (TypeError, ValueError):
            raise ScenarioError(f"{path}.im: not a numeric array") from None
        if im.shape != re.shape:
            raise ScenarioError(f"{path}: re/im shapes differ ({re.shape} vs {im.shape})")
    else:
        im = np.zeros_like(re)
    arr = re + 1j * im
    if arr.shape != tuple(shape):
        raise ScenarioError(f"{path}: expected shape {tuple(shape)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{path}: non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Scenario:
    dimension: int
    seed: int
    kind: str
    payload: dict
    tolerances: dict
    sha256: str = field(default="", compare=False)

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def build(self) -> DecoherenceFunctional:
        return self.functional_at(self.dimension)

    def functional_at(self, dim: int) -> DecoherenceFunctional:
        """The scenario's functional embedded at truncation ``dim``.

        ``dim == dimension`` reproduces the scenario exactly; larger
        dimensions zero-pad the defining data.
        """
        d0 = self.dimension
        if dim < d0:
            raise ScenarioError(
                f"cannot embed a dimension-{d0} scenario into dimension {dim}"
            )
        if dim > MAX_DIM:
            raise ScenarioError(f"dimension {dim} exceeds the dense limit {MAX_DIM}")
        if self.kind == "pure_state":
            psi = np.zeros(dim, dtype=complex)
            psi[:d0] = self.payload["amplitudes"]
            return PureStateFunctional(psi)
        if self.kind == "operator":
            x = _embed_pair_operator(self.payload["matrix"], d0, dim)
            return OperatorBackedFunctional(x)
        if self.kind == "form":
            g = _embed_pair_operator(self.payload["gram"], d0, dim)
            return FormBackedFunctional(g)
        if self.kind == "class_operator":
            rho = np.zeros((dim, dim), dtype=complex)
            rho[:d0, :d0] = self.payload["rho"]
            ham = np.zeros((dim, dim), dtype=complex)
            ham[:d0, :d0] = self.payload["hamiltonian"]
            comp = np.zeros((dim, dim), dtype=complex)
            comp[d0:, d0:] = np.eye(dim - d0)
            schedules = []
            for sched in self.payload["schedules"]:
                embedded = []
                for p in sched:
                    pm = np.zeros((dim, dim), dtype=complex)
                    pm[:d0, :d0] = p
                    embedded.append(pm)
                # keep the schedule a resolution of the identity
                embedded[-1] = embedded[-1] + comp
                schedules.append([Projection.from_matrix(pm) for pm in embedded])
            model = ClassOperatorModel(
                dim=dim,
                rho=rho,
                hamiltonian=ham,
                times=self.payload["times"],
                schedules=tuple(tuple(s) for s in schedules),
            )
            return standard_df(model)
        raise ScenarioError(f"functional.type: unknown kind {self.kind!r}")


def _embed_pair_operator(x0: np.ndarray, d0: int, dim: int) -> np.ndarray:
    """Zero-embed an operator on H0 (x) H0 into H (x) H via the inclusion
    of the first d0 basis vectors."""
    if dim == d0:
        return x0
    x4 = np.zeros((dim, dim, dim, dim), dtype=complex)
    x4[:d0, :d0, :d0, :d0] = x0.reshape(d0, d0, d0, d0)
    return x4.reshape(dim * dim, dim * dim)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text.

    Raises :class:`ScenarioError` with a field path for malformed syntax,
    dimension inconsistencies, non-Hermitian or non-normalized states, and
    non-unit pure-state vectors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"syntax: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a JSON object")

    dim = doc.get("dimension")
    if not _is_number(dim, int) or dim < 1:
        raise ScenarioError("dimension: expected a positive integer")
    if dim > MAX_DIM:
        raise ScenarioError(f"dimension: {dim} exceeds the dense limit {MAX_DIM}")
    seed = doc.get("seed", 0)
    if not _is_number(seed, int) or seed < 0:
        raise ScenarioError("seed: expected a non-negative integer")
    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ScenarioError("tolerances: expected an object of numbers")
    for key, v in tol.items():
        if not _is_number(v):
            raise ScenarioError(f"tolerances.{key}: expected a number")

    fn = doc.get("functional")
    if not isinstance(fn, dict):
        raise ScenarioError("functional: expected an object")
    kind = fn.get("type")
    if kind not in KINDS:
        raise ScenarioError(
            f"functional.type: expected one of {', '.join(KINDS)}, got {kind!r}"
        )

    payload: dict = {}
    if kind == "pure_state":
        amp = _complex_array(fn.get("amplitudes"), "functional.amplitudes", (dim,))
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > 1e-8:
            raise ScenarioError(
                f"functional.amplitudes: norm must be 1 (got {nrm:.6g})"
            )
        payload["amplitudes"] = amp
    elif kind == "operator":
        payload["matrix"] = _complex_array(
            fn.get("matrix"), "functional.matrix", (dim * dim, dim * dim)
        )
    elif kind == "form":
        g = _complex_array(fn.get("gram"), "functional.gram", (dim * dim, dim * dim))
        if np.linalg.norm(g - g.conj().T) > 1e-8 * max(1.0, float(np.linalg.norm(g))):
            raise ScenarioError("functional.gram: hermiticity violated")
        payload["gram"] = g
    else:
        rho = _complex_array(fn.get("rho"), "functional.rho", (dim, dim))
        if np.linalg.norm(rho - rho.conj().T) > 1e-8 * max(
            1.0, float(np.linalg.norm(rho))
        ):
            raise ScenarioError("functional.rho: hermiticity violated")
        if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-9:
            raise ScenarioError("functional.rho: not positive semidefinite")
        if abs(np.trace(rho) - 1.0) > 1e-9:
            raise ScenarioError(
                f"functional.rho: trace must be 1 (got {np.trace(rho).real:.6g})"
            )
        ham = _complex_array(fn.get("hamiltonian"), "functional.hamiltonian", (dim, dim))
        if np.linalg.norm(ham - ham.conj().T) > 1e-8 * max(
            1.0, float(np.linalg.norm(ham))
        ):
            raise ScenarioError("functional.hamiltonian: hermiticity violated")
        times = fn.get("times")
        if not isinstance(times, list):
            raise ScenarioError("functional.times: expected a list of numbers")
        for k, t in enumerate(times):
            if not _is_number(t):
                raise ScenarioError(f"functional.times[{k}]: expected a number")
        schedules_node = fn.get("schedules")
        if not isinstance(schedules_node, list) or len(schedules_node) != len(times):
            raise ScenarioError(
                "functional.schedules: expected one schedule per time"
            )
        schedules = []
        for k, sched in enumerate(schedules_node):
            if not isinstance(sched, list) or not sched:
                raise ScenarioError(
                    f"functional.schedules[{k}]: expected a non-empty list"
                )
            mats = []
            for j, node in enumerate(sched):
                pm = _complex_array(
                    node, f"functional.schedules[{k}][{j}]", (dim, dim)
                )
                try:
                    Projection.from_matrix(pm)
                except ValueError as exc:
                    raise ScenarioError(
                        f"functional.schedules[{k}][{j}]: {exc}"
                    ) from None
                mats.append(pm)
            total = sum(mats)
            if np.linalg.norm(total - np.eye(dim)) > 1e-9 * dim:
                raise ScenarioError(
                    f"functional.schedules[{k}]: projections do not sum to the identity"
                )
            schedules.append(mats)
        payload.update(
            rho=rho, hamiltonian=ham, times=[float(t) for t in times], schedules=schedules
        )

    scenario = Scenario(
        dimension=dim,
        seed=seed,
        kind=kind,
        payload=payload,
        tolerances=dict(tol),
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
    # Construction re-runs the structural checks (schedule orthogonality,
    # unit norms) through the library validators.
    try:
        scenario.build()
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"functional: {exc}") from None
    return scenario


def _array_node(arr: np.ndarray) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def serialize_scenario(s: Scenario) -> str:
    """Canonical JSON text; ``parse_scenario`` of the output reproduces the
    scenario's fields."""
    fn: dict = {"type": s.kind}
    if s.kind == "pure_state":
        fn["amplitudes"] = _array_node(s.payload["amplitudes"])
    elif s.kind == "operator":
        fn["matrix"] = _array_node(s.payload["matrix"])
    elif s.kind == "form":
        fn["gram"] = _array_node(s.payload["gram"])
    else:
        fn["rho"] = _array_node(s.payload["rho"])
        fn["hamiltonian"] = _array_node(s.payload["hamiltonian"])
        fn["times"] = list(s.payload["times"])
        fn["schedules"] = [
            [_array_node(np.asarray(p)) for p in sched] for sched in s.payload["schedules"]
        ]
    doc = {
        "dimension": s.dimension,
        "seed": s.seed,
        "tolerances": s.tolerances,
        "functional": fn,
    }
    return json.dumps(doc, sort_keys=True, indent=1)
