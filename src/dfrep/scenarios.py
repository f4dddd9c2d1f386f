"""Scenario files: parsing, serialization, and functional construction.

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

The parser checks structure, types, shapes, finiteness and the dimension
bounds; every semantic invariant (unit norm, Hermiticity, positivity, unit
trace, ascending times, schedules resolving the identity) is checked once,
by the constructor that owns it, and the parser prefixes its message with
the field path.  Scenarios embed into larger dimensions (zero-padding; a
class-operator schedule absorbs the complement into its last projection)
so one file can drive a sweep.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from functools import cached_property

import numpy as np

from .functionals import (
    DecoherenceFunctional,
    FormBackedFunctional,
    OperatorBackedFunctional,
    PureStateFunctional,
)
from .histories import ClassOperatorFunctional, ClassOperatorModel
from .linalg import MAX_DIM, Frozen, operator_from_pairing, swap_right
from .tolerances import DEFAULT_TOLERANCES


class ScenarioError(ValueError):
    """Invalid scenario text; the message names the offending field."""


# The payload fields of each functional type, besides ``type``.
_FIELDS = {
    "operator": ("matrix",),
    "pure_state": ("amplitudes",),
    "form": ("gram",),
    "class_operator": ("rho", "hamiltonian", "times", "schedules"),
}

KINDS = tuple(_FIELDS)


def _is_number(v, types=(int, float)) -> bool:
    """A JSON number of the given Python types; never a ``bool``, which
    Python counts as an ``int``."""
    return isinstance(v, types) and not isinstance(v, bool)


def _finite(v, path: str) -> float:
    """A JSON number as a finite float."""
    try:
        if _is_number(v) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an integer literal beyond the float range
        pass
    raise ScenarioError(f"{path}: expected a finite number")


def _list(node, path: str, what: str) -> list:
    if not isinstance(node, list):
        raise ScenarioError(f"{path}: expected a list of {what}")
    return node


def _reject_unknown(node: dict, known, path: str) -> None:
    unknown = sorted(set(node) - set(known))
    if unknown:
        raise ScenarioError(f"{path}{unknown[0]}: unknown field (expected one of {', '.join(known)})")


def _real_array(node, path: str, shape) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{path}: not a numeric array") from None
    if arr.shape != shape:
        raise ScenarioError(f"{path}: expected shape {shape}, got {arr.shape}")
    # np.asarray also reads true and "1" as 1.0; only JSON numbers count.
    entries = node if arr.ndim == 1 else itertools.chain.from_iterable(node)
    if not set(map(type, entries)) <= {int, float}:
        raise ScenarioError(f"{path}: expected numbers only")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{path}: non-finite entries")
    return arr


def _complex_array(node, path: str, shape) -> np.ndarray:
    """The complex array of a ``{"re", "im"}`` node, whose lists are popped
    out of the JSON tree, and so freed, as each is converted."""
    if not isinstance(node, dict) or "re" not in node:
        raise ScenarioError(f"{path}: expected an object with 're' (and optional 'im') arrays")
    _reject_unknown(node, ("re", "im"), path + ".")
    re = _real_array(node.pop("re"), path + ".re", shape)
    if "im" not in node:
        return re + 1j * 0.0
    out = 1j * _real_array(node.pop("im"), path + ".im", shape)
    out += re  # re + 1j * im, without a second complex temporary
    return out


# The payload that an operator or form functional holds as its pairing
# matrix P; the scenario keeps no copy once the functional is built.
_HELD = {"operator": "matrix", "form": "gram"}

# Characters of scenario text hashed per update: no full-size encoded copy.
_HASH_SLICE = 1 << 20


class Scenario(Frozen):
    """A parsed scenario: its dimension, seed, kind, payload arrays and
    tolerances, and the SHA-256 of its text.

    An operator or form scenario keeps no defining matrix: its payload is
    empty once :meth:`build` has run (which :func:`parse_scenario` does),
    and X or G is an index transpose of the functional's pairing matrix P
    (see :func:`serialize_scenario`).  Its fields cannot be reassigned,
    and scenarios compare by identity.
    """

    def __init__(
        self, dimension: int, seed: int, kind: str, payload: dict, tolerances: dict, sha256: str = ""
    ):
        vars(self).update(
            dimension=dimension, seed=seed, kind=kind, payload=payload, tolerances=tolerances, sha256=sha256
        )

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def build(self) -> DecoherenceFunctional:
        """The functional at the scenario's dimension, built once (by
        :func:`parse_scenario`, to validate it)."""
        return self._functional

    @cached_property
    def _functional(self) -> DecoherenceFunctional:
        d = self._embedded(self.dimension)
        self.payload.pop(_HELD.get(self.kind), None)  # d holds P
        return d

    def functional_at(self, dim: int) -> DecoherenceFunctional:
        """The scenario's functional embedded at truncation ``dim``.

        ``dim == dimension`` returns the functional of :meth:`build`;
        larger dimensions zero-pad the defining data.
        """
        return self._functional if dim == self.dimension else self._embedded(dim)

    def _embedded(self, dim: int) -> DecoherenceFunctional:
        d0 = self.dimension
        if dim < d0:
            raise ScenarioError(
                f"cannot embed a dimension-{d0} scenario into dimension {dim}"
            )
        if dim > MAX_DIM:
            raise ScenarioError(f"dimension {dim} exceeds the dense limit {MAX_DIM}")
        if self.kind == "pure_state":
            return PureStateFunctional(_pad(self.payload["amplitudes"], dim))
        if self.kind in ("operator", "form") and dim > d0:
            # Zero-padding X or G through the inclusion of the first d0 basis
            # vectors zero-pads P, since the realignment permutes entries.
            p4 = np.zeros((dim,) * 4, dtype=complex)
            p4[:d0, :d0, :d0, :d0] = self._functional.pairing.reshape((d0,) * 4)
            return self._functional.from_pairing(p4.reshape(dim * dim, dim * dim))
        if self.kind == "operator":
            return OperatorBackedFunctional(self.payload["matrix"])
        if self.kind == "form":
            return FormBackedFunctional(self.payload["gram"])
        if self.kind == "class_operator":
            schedules = [[_pad(p, dim) for p in sched] for sched in self.payload["schedules"]]
            for sched in schedules:
                if sched:  # keep the schedule a resolution of the identity
                    sched[-1][d0:, d0:] = np.eye(dim - d0)
            model = ClassOperatorModel(
                dim=dim,
                rho=_pad(self.payload["rho"], dim),
                hamiltonian=_pad(self.payload["hamiltonian"], dim),
                times=self.payload["times"],
                schedules=schedules,
            )
            return ClassOperatorFunctional(model)
        raise ScenarioError(f"functional.type: unknown kind {self.kind!r}")


def _pad(a: np.ndarray, dim: int) -> np.ndarray:
    """Zero-pad a vector or square matrix to side ``dim``."""
    out = np.zeros((dim,) * a.ndim, dtype=complex)
    out[(slice(0, len(a)),) * a.ndim] = a
    return out


def _payload(kind: str, fn: dict, dim: int) -> dict:
    shapes = {"amplitudes": (dim,), "matrix": (dim * dim,) * 2, "gram": (dim * dim,) * 2}
    shapes.update(rho=(dim, dim), hamiltonian=(dim, dim))
    payload = {
        name: _complex_array(fn.pop(name, None), f"functional.{name}", shapes[name])
        for name in _FIELDS[kind]
        if name in shapes
    }
    if kind == "class_operator":
        times = _list(fn.get("times"), "functional.times", "numbers")
        payload["times"] = [_finite(t, f"functional.times[{k}]") for k, t in enumerate(times)]
        payload["schedules"] = [
            [
                _complex_array(p, f"functional.schedules[{k}][{j}]", (dim, dim))
                for j, p in enumerate(_list(sched, f"functional.schedules[{k}]", "projections"))
            ]
            for k, sched in enumerate(_list(fn.get("schedules"), "functional.schedules", "schedules"))
        ]
    return payload


def _sha256(text: str) -> str:
    """SHA-256 of the UTF-8 text, encoded one slice at a time."""
    h = hashlib.sha256()
    for start in range(0, len(text), _HASH_SLICE):
        h.update(text[start : start + _HASH_SLICE].encode("utf-8"))
    return h.hexdigest()


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text and build its functional once.

    Raises :class:`ScenarioError` whose message starts with the field path.
    A class-operator model's messages start with the argument it rejects
    and get the prefix ``functional.``; the other constructors take a
    single payload array, whose path is prefixed whole.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ScenarioError(f"syntax: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a JSON object")
    _reject_unknown(doc, ("dimension", "seed", "tolerances", "functional"), "")

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
    _reject_unknown(tol, DEFAULT_TOLERANCES, "tolerances.")
    for key, v in tol.items():
        if _finite(v, f"tolerances.{key}") < 0:
            raise ScenarioError(f"tolerances.{key}: must be non-negative")

    fn = doc.get("functional")
    if not isinstance(fn, dict):
        raise ScenarioError("functional: expected an object")
    kind = fn.get("type")
    if kind not in KINDS:
        raise ScenarioError(
            f"functional.type: expected one of {', '.join(KINDS)}, got {kind!r}"
        )
    _reject_unknown(fn, ("type", *_FIELDS[kind]), "functional.")

    scenario = Scenario(
        dimension=dim,
        seed=seed,
        kind=kind,
        payload=_payload(kind, fn, dim),
        tolerances=dict(tol),
        sha256=_sha256(text),
    )
    try:
        scenario.build()
    except ValueError as exc:
        where = "functional." if kind == "class_operator" else f"functional.{_FIELDS[kind][0]}: "
        raise ScenarioError(where + str(exc)) from None
    return scenario


def _array_node(arr: np.ndarray) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def serialize_scenario(s: Scenario) -> str:
    """Canonical JSON text; ``parse_scenario`` of the output reproduces the
    scenario's fields.  The X or G that an operator or form scenario does
    not keep is read back off its functional's pairing matrix P, as the
    exact index transpose :func:`dfrep.linalg.operator_from_pairing` or
    :func:`dfrep.linalg.swap_right`."""
    fn: dict = {"type": s.kind}
    payload = dict(s.payload)
    if s.kind in _HELD:
        pairing = s.build().pairing
        held = operator_from_pairing(pairing) if s.kind == "operator" else swap_right(pairing)
        payload[_HELD[s.kind]] = held
    for name, value in payload.items():
        if name == "times":
            fn[name] = list(value)
        elif name == "schedules":
            fn[name] = [[_array_node(p) for p in sched] for sched in value]
        else:
            fn[name] = _array_node(value)
    doc = {
        "dimension": s.dimension,
        "seed": s.seed,
        "tolerances": s.tolerances,
        "functional": fn,
    }
    return json.dumps(doc, sort_keys=True, indent=1)
