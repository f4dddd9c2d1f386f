from __future__ import annotations

import json

import numpy as np
import pytest

from dfrep import (
    FormBackedFunctional,
    OperatorBackedFunctional,
    PureStateFunctional,
    gram_matrix,
    random_projection,
)
from dfrep.functionals import FactoredStateFunctional
from dfrep.histories import ClassOperatorFunctional
from dfrep.linalg import operator_from_pairing, pairing_realignment, swap_right
from dfrep.scenarios import ScenarioError, parse_scenario
from reference import identity_projection
from conftest import (
    backend_fixtures,
    basis_proj,
    class_operator_scenario_text,
    form_scenario_text,
    operator_scenario_text,
    product_state_operator,
    pure_state_scenario_text,
    random_density,
    random_valid_pairing_operator,
    rho_half_half,
)


class TestParse:
    def test_minimal_pure_state(self):
        s = parse_scenario(pure_state_scenario_text(dim=3))
        assert s.dimension == 3
        assert s.kind == "pure_state"
        assert isinstance(s.functional, PureStateFunctional)

    def test_operator_scenario_evaluates(self):
        x = product_state_operator(rho_half_half(3))
        s = parse_scenario(operator_scenario_text(x))
        d = s.functional
        assert isinstance(d, OperatorBackedFunctional)
        # downstream oracle: d(E11, E11) = tr(E11 rho)^2 = 1/4
        assert d.evaluate(basis_proj(3, 0), basis_proj(3, 0)) == pytest.approx(0.25, abs=1e-12)

    def test_form_scenario(self):
        base = backend_fixtures(3)["operator"]
        s = parse_scenario(form_scenario_text(gram_matrix(base)))
        assert isinstance(s.functional, FormBackedFunctional)

    def test_class_operator_scenario(self):
        s = parse_scenario(class_operator_scenario_text(dim=3))
        d = s.functional
        assert isinstance(d, ClassOperatorFunctional)
        one = identity_projection(3)
        assert d.evaluate(one, one) == pytest.approx(1.0, abs=1e-12)

    def test_rho_trace_error_names_field(self):
        text = class_operator_scenario_text(dim=3, trace_value=0.9)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        msg = str(err.value)
        assert "rho" in msg and "trace" in msg

    def test_malformed_syntax(self):
        for text in ("{not json", "[" * 10**5 + "]" * 10**5):
            with pytest.raises(ScenarioError, match="syntax"):
                parse_scenario(text)

    def test_dimension_inconsistency(self):
        doc = json.loads(pure_state_scenario_text(dim=3))
        doc["functional"]["amplitudes"]["re"] = [1.0, 0.0]
        doc["functional"]["amplitudes"]["im"] = [0.0, 0.0]
        with pytest.raises(ScenarioError, match="amplitudes"):
            parse_scenario(json.dumps(doc))

    def test_non_unit_pure_state(self):
        doc = json.loads(pure_state_scenario_text(dim=3))
        doc["functional"]["amplitudes"]["re"] = [1.0, 1.0, 0.0]
        with pytest.raises(ScenarioError, match="norm"):
            parse_scenario(json.dumps(doc))

    def test_non_hermitian_gram(self, rng):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        with pytest.raises(ScenarioError, match="gram"):
            parse_scenario(form_scenario_text(g))

    def test_schedule_not_resolving_identity(self):
        doc = json.loads(class_operator_scenario_text(dim=3))
        doc["functional"]["schedules"][0] = doc["functional"]["schedules"][0][:2]
        with pytest.raises(ScenarioError, match="identity"):
            parse_scenario(json.dumps(doc))

    def test_missing_im_defaults_to_zero(self):
        doc = json.loads(pure_state_scenario_text(dim=3))
        del doc["functional"]["amplitudes"]["im"]
        s = parse_scenario(json.dumps(doc))
        assert np.allclose(s.functional.psi.imag, 0.0)

    def test_unknown_type(self):
        doc = json.loads(pure_state_scenario_text(dim=3))
        doc["functional"]["type"] = "mystery"
        with pytest.raises(ScenarioError, match="type"):
            parse_scenario(json.dumps(doc))

    def test_bad_dimension(self):
        with pytest.raises(ScenarioError, match="dimension"):
            parse_scenario(json.dumps({"dimension": 0, "functional": {}}))

    @pytest.mark.parametrize(
        "field",
        ["dimension", "seed", "tolerances.axioms", "functional.times[0]"],
    )
    def test_boolean_scalar_names_field(self, field):
        # JSON true is a Python int; it must not pass for a number.
        doc = json.loads(class_operator_scenario_text(dim=3))
        if field == "tolerances.axioms":
            doc["tolerances"] = {"axioms": True}
        elif field == "functional.times[0]":
            doc["functional"]["times"] = [True]
        else:
            doc[field] = True
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value).startswith(field + ":")


def _set(*keys, value):
    """A mutation setting ``doc[k0][k1]...`` to ``value``."""

    def mutate(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value

    return mutate


_W = 2e-9  # overlap of two schedule projections: inside the identity
# tolerance (1e-9 * dim) but outside the orthogonality tolerance (1e-9)
_TILTED = np.zeros((3, 3))
_TILTED[:2, :2] = np.outer([_W, np.sqrt(1 - _W**2)], [_W, np.sqrt(1 - _W**2)])

_BASES = {
    "pure": lambda: pure_state_scenario_text(dim=3),
    "operator": lambda: operator_scenario_text(product_state_operator(rho_half_half(3))),
    "form": lambda: form_scenario_text(gram_matrix(backend_fixtures(3)["operator"])),
    "classop": lambda: class_operator_scenario_text(dim=3, times=(0.5, 1.0)),
}

# (base, mutation, field path the message must start with, newly named):
# rows marked newly named were accepted, or rejected without their field
# path, while the parser kept its own copies of the library checks.
REJECTED = [
    # structure, types and values only the parser can see
    ("pure", _set("extra", value=1), "extra", True),
    ("pure", _set("functional", "matrix", value={"re": [[1.0]]}), "functional.matrix", True),
    ("pure", _set("tolerances", value={"axiom": 1e-8}), "tolerances.axiom", True),
    ("pure", _set("tolerances", value={"axioms": float("nan")}), "tolerances.axioms", True),
    ("pure", _set("tolerances", value={"axioms": float("inf")}), "tolerances.axioms", True),
    ("pure", _set("tolerances", value={"axioms": -1e-8}), "tolerances.axioms", True),
    ("pure", _set("functional", "amplitudes", "re", value=[True, False, False]),
     "functional.amplitudes.re", True),
    ("pure", _set("functional", "amplitudes", "re", value=["1", "0", "0"]),
     "functional.amplitudes.re", True),
    ("pure", _set("functional", "amplitudes", "imag", value=[0, 0, 0]),
     "functional.amplitudes.imag", True),
    ("operator", _set("functional", "matrix", "re", value=np.eye(8).tolist()),
     "functional.matrix.re", True),
    ("classop", _set("functional", "times", value=[float("nan"), 1.0]), "functional.times[0]", True),
    ("classop", _set("functional", "times", value=[0.5, 10**400]), "functional.times[1]", True),
    ("classop", _set("functional", "times", value=0.5), "functional.times", False),
    ("classop", _set("functional", "schedules", 0, value={}), "functional.schedules[0]", False),
    # semantic invariants, each checked by the constructor that owns it
    ("pure", _set("functional", "amplitudes", "re", value=[1.5, 0, 0]), "functional.amplitudes", False),
    ("form", _set("functional", "gram", "im", value=(1e-3 * np.eye(9)).tolist()), "functional.gram", False),
    ("classop", _set("functional", "rho", "im", value=[[0, 1e-3, 0], [0, 0, 0], [0, 0, 0]]),
     "functional.rho", False),
    ("classop", _set("functional", "rho", "re", value=np.diag([1.5, -0.5, 0.0]).tolist()),
     "functional.rho", False),
    ("classop", _set("functional", "rho", "re", value=np.diag([0.5, 0.3, 0.1]).tolist()),
     "functional.rho", False),
    ("classop", _set("functional", "hamiltonian", "re", value=[[1, 1.3e-8, 0], [0, 2, 0], [0, 0, 3]]),
     "functional.hamiltonian", True),  # relative residual 4.9e-9
    ("classop", _set("functional", "times", value=[-0.5, 1.0]), "functional.times[0]", True),
    ("classop", _set("functional", "times", value=[1.0, 0.5]), "functional.times", True),
    ("classop", _set("functional", "times", value=[0.5]), "functional.schedules", False),
    ("classop", _set("functional", "schedules", 0, value=[]), "functional.schedules[0]", False),
    ("classop", lambda doc: doc["functional"]["schedules"][0].pop(), "functional.schedules[0]", False),
    ("classop", _set("functional", "schedules", 0, 1, value={"re": _TILTED.tolist()}),
     "functional.schedules[0]", True),
    ("classop", _set("functional", "schedules", 0, 0, value={"re": (2 * np.eye(3)).tolist()}),
     "functional.schedules[0][0]", False),
    ("classop", lambda doc: doc["functional"].update(times=[], schedules=[]), "functional.times", True),
]


@pytest.mark.parametrize(
    "base, mutate, path, newly_named",
    REJECTED,
    ids=[f"{row[2]}-{i}" for i, row in enumerate(REJECTED)],
)
def test_rejection_starts_with_field_path(base, mutate, path, newly_named):
    text = _BASES[base]()
    parse_scenario(text)  # the mutation alone is at fault
    doc = json.loads(text)
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert str(err.value).startswith(path + ":"), str(err.value)


def _node_array(node) -> np.ndarray:
    """The complex array of a ``{"re", "im"}`` node, as written."""
    return np.array(node["re"], dtype=float) + 1j * np.array(node["im"], dtype=float)


class TestParseReproducesTheText:
    @pytest.mark.parametrize(
        "text_builder",
        [
            lambda: pure_state_scenario_text(dim=4),
            lambda: operator_scenario_text(product_state_operator(rho_half_half(3))),
            lambda: form_scenario_text(gram_matrix(backend_fixtures(3)["operator"])),
            lambda: class_operator_scenario_text(dim=3),
            lambda: class_operator_scenario_text(
                dim=3, hamiltonian=np.diag([1.0, 2.0, 3.5]), times=(0.5, 1.0)
            ),
            # complex entries, so the imaginary parts are read too
            lambda: operator_scenario_text(random_valid_pairing_operator(3, np.random.default_rng(3))),
        ],
    )
    def test_defining_arrays_are_exact(self, text_builder):
        """The defining arrays read off each parsed functional equal the
        arrays of the text exactly, and so do the scalar fields."""
        text = text_builder()
        doc = json.loads(text)
        s = parse_scenario(text)
        assert (s.dimension, s.seed, s.kind) == (doc["dimension"], doc["seed"], doc["functional"]["type"])
        assert s.tolerances == doc.get("tolerances", {})
        got = _defining_data(s)
        fields = {k: v for k, v in doc["functional"].items() if k != "type"}
        assert sorted(got) == sorted(fields)
        for key, node in fields.items():
            if key == "times":
                assert got[key] == tuple(node)
            elif key == "schedules":
                assert [len(sched) for sched in got[key]] == [len(sched) for sched in node]
                for sa, sb in zip(got[key], node):
                    for pa, pb in zip(sa, sb):
                        assert np.array_equal(pa, _node_array(pb))
            else:
                assert np.array_equal(got[key], _node_array(node))


def _defining_data(s) -> dict:
    """The X, G, psi or class-operator model arrays of a scenario, read off
    its functional."""
    d = s.functional
    if s.kind == "operator":
        return {"matrix": operator_from_pairing(d.pairing)}
    if s.kind == "form":
        return {"gram": swap_right(d.pairing)}
    if s.kind == "pure_state":
        return {"amplitudes": d.psi}
    m = d.model
    return {
        "rho": m.rho,
        "hamiltonian": m.hamiltonian,
        "times": m.times,
        "schedules": [[p.matrix for p in sched] for sched in m.schedules],
    }


class TestShippedScenarios:
    def test_all_shipped_files_parse_and_build(self):
        from pathlib import Path

        folder = Path(__file__).resolve().parents[1] / "scenarios"
        files = sorted(folder.glob("*.json"))
        assert files, "scenario samples missing"
        for path in files:
            s = parse_scenario(path.read_text())
            d = s.functional
            one = identity_projection(s.dimension)
            assert d.evaluate(one, one) == pytest.approx(1.0, abs=1e-10), path.name


class TestFamilyEmbedding:
    def test_pure_state_padding(self):
        s = parse_scenario(pure_state_scenario_text(dim=3))
        d5 = s.functional_at(5)
        assert d5.dim == 5
        assert np.allclose(d5.psi[:3], s.functional.psi)
        assert np.allclose(d5.psi[3:], 0.0)

    def test_operator_embedding_preserves_small_projections(self, rng):
        x = product_state_operator(rho_half_half(3))
        s = parse_scenario(operator_scenario_text(x))
        d3 = s.functional
        d5 = s.functional_at(5)
        for _ in range(20):
            p3 = random_projection(3, int(rng.integers(0, 4)), rng)
            p5 = np.zeros((5, 5), dtype=complex)
            p5[:3, :3] = p3.matrix
            q3 = random_projection(3, int(rng.integers(0, 4)), rng)
            q5 = np.zeros((5, 5), dtype=complex)
            q5[:3, :3] = q3.matrix
            assert abs(d5.bilinear(p5, q5) - d3.evaluate(p3, q3)) <= 1e-10

    def test_operator_embedding_preserves_trace_norm(self):
        x = product_state_operator(rho_half_half(3))
        s = parse_scenario(operator_scenario_text(x))
        from dfrep import trace_norm

        assert trace_norm(operator_from_pairing(s.functional_at(6).pairing)) == pytest.approx(
            trace_norm(x), abs=1e-10
        )

    @pytest.mark.parametrize("name", ["operator_product_state_dim3.json", "form_dim3.json"])
    def test_embedding_pads_the_held_pairing(self, name):
        """The embedded functional, of the same class, holds the pairing
        matrix of X (or G) zero-padded and then realigned: padding P as a
        four-index array pads X and G, whose entries it only permutes."""
        from pathlib import Path

        s = parse_scenario((Path(__file__).resolve().parents[1] / "scenarios" / name).read_text())
        p = s.functional.pairing
        d6 = s.functional_at(6)
        assert type(d6) is type(s.functional)
        for defining, realign in ((operator_from_pairing(p), pairing_realignment), (swap_right(p), swap_right)):
            x4 = np.zeros((6,) * 4, dtype=complex)
            x4[:3, :3, :3, :3] = defining.reshape((3,) * 4)
            assert np.array_equal(d6.pairing, realign(x4.reshape(36, 36)))

    def test_class_operator_embedding_pads_the_factor(self, rng):
        """A class operator with a non-trivial H and t_1 > 0 embeds as the
        factored state whose F is the scenario's F zero-padded, bitwise; no
        model is rebuilt, and no eigh runs again, at the larger dimension."""
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = parse_scenario(
            class_operator_scenario_text(
                dim=5, rho=random_density(5, rng), hamiltonian=h + h.conj().T, times=(0.5, 1.0)
            )
        )
        d8 = s.functional_at(8)
        assert type(d8) is FactoredStateFunctional
        f = s.functional.factor
        padded = np.zeros((8, f.shape[1]), dtype=complex)
        padded[:5] = f
        assert np.array_equal(d8.factor, padded)

    def test_class_operator_embedding_stays_normalized(self):
        s = parse_scenario(class_operator_scenario_text(dim=3))
        d6 = s.functional_at(6)
        one = identity_projection(6)
        assert d6.evaluate(one, one) == pytest.approx(1.0, abs=1e-12)

    def test_embedding_below_dimension_rejected(self):
        s = parse_scenario(pure_state_scenario_text(dim=4))
        with pytest.raises(ScenarioError):
            s.functional_at(3)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
