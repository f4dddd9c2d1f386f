"""Scenario files: parsing and functional construction.

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

Functional types and their fields:

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
by the constructor of the functional, and the parser prefixes its message
with the field path.  A :class:`Scenario` keeps that functional and no
other copy of its data.  It embeds into larger dimensions by one rule, so
one file can drive a sweep: the functional zero-pads the one array it
holds (P of an operator or form, psi, or the factor F of a class operator).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from .functionals import (
    DecoherenceFunctional,
    FormBackedFunctional,
    OperatorBackedFunctional,
    PureStateFunctional,
)
from .histories import ClassOperatorFunctional, ClassOperatorModel
from .linalg import MAX_DIM, Frozen
from .tolerances import DEFAULT_TOLERANCES


class ScenarioError(ValueError):
    """Invalid scenario text; the message names the offending field."""


# The fields of each functional type, besides ``type``.
_FIELDS = {
    "operator": ("matrix",),
    "pure_state": ("amplitudes",),
    "form": ("gram",),
    "class_operator": ("rho", "hamiltonian", "times", "schedules"),
}

KINDS = tuple(_FIELDS)

# The constructor of each kind whose functional is built from one array.
_BACKENDS = dict(operator=OperatorBackedFunctional, pure_state=PureStateFunctional, form=FormBackedFunctional)


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


# Characters of scenario text hashed per update: no full-size encoded copy.
_HASH_SLICE = 1 << 20


class Scenario(Frozen):
    """A parsed scenario: its dimension, seed, kind, functional and
    tolerances, and the SHA-256 of its text.

    The functional is the one copy of the scenario's data: X and G are
    exact index transposes of its pairing matrix P
    (:func:`dfrep.linalg.operator_from_pairing`,
    :func:`dfrep.linalg.swap_right`), psi is held as parsed, and a class
    operator's rho, H, times and schedules are on its ``model``.  Its
    fields cannot be reassigned, and scenarios compare by identity.
    """

    def __init__(
        self, dimension: int, seed: int, kind: str, functional, tolerances: dict, sha256: str = ""
    ):
        vars(self).update(
            dimension=dimension, seed=seed, kind=kind, functional=functional, tolerances=tolerances,
            sha256=sha256,
        )

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def functional_at(self, dim: int) -> DecoherenceFunctional:
        """The scenario's functional embedded at truncation ``dim``:
        :attr:`functional` itself at the scenario's dimension, and its
        ``embedded(dim)``, which zero-pads the one array it holds, above it.
        """
        if dim < self.dimension:
            raise ScenarioError(f"cannot embed a dimension-{self.dimension} scenario into dimension {dim}")
        if dim > MAX_DIM:
            raise ScenarioError(f"dimension {dim} exceeds the dense limit {MAX_DIM}")
        return self.functional if dim == self.dimension else self.functional.embedded(dim)


def _functional(kind: str, fn: dict, dim: int) -> DecoherenceFunctional:
    """The functional of a ``functional`` node, built from its converted
    arrays; each array is popped out of the node as it is converted and
    handed to the constructor, which checks every semantic invariant."""

    def array(name, shape):
        return _complex_array(fn.pop(name, None), f"functional.{name}", shape)

    if kind == "class_operator":
        rho, hamiltonian = array("rho", (dim, dim)), array("hamiltonian", (dim, dim))
        times = _list(fn.get("times"), "functional.times", "numbers")
        times = [_finite(t, f"functional.times[{k}]") for k, t in enumerate(times)]
        schedules = [
            [
                _complex_array(p, f"functional.schedules[{k}][{j}]", (dim, dim))
                for j, p in enumerate(_list(sched, f"functional.schedules[{k}]", "projections"))
            ]
            for k, sched in enumerate(_list(fn.get("schedules"), "functional.schedules", "schedules"))
        ]
        try:
            return ClassOperatorFunctional(ClassOperatorModel(dim, rho, hamiltonian, times, schedules))
        except ValueError as exc:  # the message starts with the argument it rejects
            raise ScenarioError(f"functional.{exc}") from None
    (name,) = _FIELDS[kind]
    held = array(name, (dim,) if kind == "pure_state" else (dim * dim,) * 2)
    try:
        return _BACKENDS[kind](held)
    except ValueError as exc:
        raise ScenarioError(f"functional.{name}: {exc}") from None


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
    single array, whose path is prefixed whole.
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

    return Scenario(
        dimension=dim,
        seed=seed,
        kind=kind,
        functional=_functional(kind, fn, dim),
        tolerances=dict(tol),
        sha256=_sha256(text),
    )
