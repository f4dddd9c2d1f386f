"""Working sets of the parse, the extraction, the sampled positivity, the
Hermiticity checks, the Gram decomposition and the reconstruction.

Bytes are counted with ``tracemalloc``, which traces numpy's buffers and
the interpreter's objects alike; unlike RSS, the counts do not depend on
the machine or on what the process did before.  Each bound is the value
measured when it was set plus the margin stated next to it.
"""

from __future__ import annotations

import argparse
import tracemalloc

import pytest

from dfrep import ils, tracial
from dfrep.cli import run_command
from dfrep.functionals import FormBackedFunctional, OperatorBackedFunctional
from dfrep.ils import ATOM_BLOCK, _sample_positivity_min, bilinear_unit_table
from dfrep.linalg import pairing_realignment, swap_right
from dfrep.scenarios import parse_scenario
from conftest import (
    backend_fixtures,
    operator_scenario_text,
    pure_state_scenario_text,
    random_valid_pairing_operator,
)


def _traced(fn, *args):
    """``fn(*args)`` with the traced bytes it allocated: the peak above the
    bytes held before the call, and the bytes still held after it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


class TestParse:
    def test_operator_scenario_holds_one_pairing_matrix(self, rng):
        """At d = 12 the text is 0.99 MB and P is 0.33 MB.  The JSON tree
        is freed array by array as it is converted, and the scenario keeps
        no X beside the functional's P."""
        dim = 12
        text = operator_scenario_text(random_valid_pairing_operator(dim, rng))
        scenario, peak, held = _traced(parse_scenario, text)
        p_bytes = dim**4 * 16
        assert not hasattr(scenario, "payload")
        assert scenario.functional.pairing.nbytes == p_bytes
        # Measured 1.02 P (two d^4 arrays, 2.02 P, when X was kept); 25 % margin.
        assert held <= 1.25 * p_bytes
        # Measured 1.56 len(text) (2.70 with the whole tree and a full-size
        # encoded copy alive at once); 28 % margin.
        assert peak <= 2.0 * len(text)


class TestExtraction:
    @pytest.mark.parametrize("kind", ["operator", "form", "pure_state", "class_operator"])
    def test_unit_table_temporaries_are_block_sized(self, kind, rng):
        """Beyond the output P, the fold of :func:`polarization_unit_table`
        holds a few ``(ATOM_BLOCK, N)`` complex tables of one block."""
        dim = 16
        n_atoms = dim * dim
        d = backend_fixtures(dim)[kind]
        if kind == "operator":  # a dense P with no zero pattern
            d = OperatorBackedFunctional(random_valid_pairing_operator(dim, rng))
        units, peak, _ = _traced(bilinear_unit_table, d)
        extra = peak - units.nbytes
        # Measured 4.92 tables of 16 ATOM_BLOCK N bytes (5.17 tables of
        # the larger N = 2 d^2 - d of the four-atom frame); 17 % margin.
        assert extra <= 5.75 * ATOM_BLOCK * n_atoms * 16
        # Measured 1.23 P; 18 % margin (2.50 P with the four-atom frame,
        # 9.02 P with 256-atom blocks).
        assert extra <= 1.45 * units.nbytes


class TestSampledPositivity:
    def test_no_stack_of_all_samples(self, rng):
        """The positivity minimum reduces one validated block of
        projections at a time, so the (1000, 12, 12) stack of all samples
        (2.3 MB) is never allocated."""
        dim, samples = 12, 1000
        pairing = pairing_realignment(random_valid_pairing_operator(dim, rng))
        _, peak, _ = _traced(_sample_positivity_min, pairing, dim, samples, 3)
        stack = samples * dim * dim * 16
        # Measured 0.59 stacks (2.04 when the stack and its pairing were
        # formed); 27 % margin.
        assert peak <= 0.75 * stack


class TestHermiticityChecks:
    """At d = 24 the Gram matrix G (5.3 MB) spans three block rows of
    ``linalg._SPLIT_BLOCK``, so the blocked checks are blocked here."""

    def test_form_functional_forms_no_full_size_adjoint(self, rng):
        """Beyond the P it keeps, the form backend's Hermiticity check
        holds one block of ``G - G^dag`` at a time."""
        dim = 24
        g = swap_right(pairing_realignment(random_valid_pairing_operator(dim, rng)))
        g = (g + g.conj().T) / 2
        _, peak, held = _traced(FormBackedFunctional, g)
        assert held <= 1.1 * g.nbytes
        # Measured 1.42 G (3.02 with the full-size G^dag and G - G^dag); 23 % margin.
        assert peak <= 1.75 * g.nbytes

    @pytest.mark.parametrize("kind", ["operator", "pure_state"])
    def test_gram_matrix_is_made_hermitian_in_place(self, kind, rng):
        """The Gram assembly peaks at the unit table's P and its index
        transpose G; the check and the Hermitian part add block temporaries."""
        dim = 24
        d = backend_fixtures(dim)[kind]
        if kind == "operator":
            d = OperatorBackedFunctional(random_valid_pairing_operator(dim, rng))
        g, peak, _ = _traced(tracial.gram_matrix, d)
        # Measured 2.07-2.10 G (3.02 with the full-size check and the
        # out-of-place (G + G^dag)/2); 19 % margin.
        assert peak <= 2.5 * g.nbytes


class TestDecomposition:
    """At d = 24 the full-rank class-operator fixture keeps all d^2 Gram
    eigenvalues, so the family array, like G, is one d^4 complex array
    (5.3 MB)."""

    def test_families_are_held_once(self, rng):
        """G is released once ``eigh`` returns, the kept eigenvectors are
        gathered and scaled in one array, and ``term_values`` contracts
        with that array and a per-call copy of its conjugate."""
        dim = 24
        d = backend_fixtures(dim)["class_operator"]
        a, b = rng.standard_normal((2, 5, dim, dim)) + 1j * rng.standard_normal((2, 5, dim, dim))

        def decompose_and_contract():
            dec = tracial.hermitian_form_decomposition(d)
            dec.term_values(a, b)
            return dec

        dec, peak, _ = _traced(tracial.hermitian_form_decomposition, d)
        assert len(dec.signature) == dim * dim
        d4 = dim**4 * 16
        # Measured 2.15 d^4, set by the Gram assembly (4.02 with G, the
        # eigenvectors, their reordered copies and the sign-split stacks
        # alive together); 16 % margin.
        assert peak <= 2.5 * d4
        _, _, held = _traced(decompose_and_contract)
        # Measured 1.00 d^4 (3.02 with the split stacks and the cached
        # flattened pair beside them); 25 % margin.
        assert held <= 1.25 * d4


class TestReconstruct:
    def test_comparison_holds_two_pairing_matrices(self, monkeypatch):
        """``reconstruct`` compares the fold's pairing matrix with M's in
        place: from the end of the fold to the end of the command, M's P and
        the fold's output are the only d^4 arrays (at d = 12 the fold's own
        block tables, not these, set the command's peak)."""
        dim = 12
        scenario = parse_scenario(pure_state_scenario_text(dim))
        fold = ils.polarization_unit_table

        def fold_then_reset_peak(*args):
            out = fold(*args)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(ils, "polarization_unit_table", fold_then_reset_peak)
        args = argparse.Namespace(tolerance=None, seed=None)
        record, peak, _ = _traced(run_command, "reconstruct", scenario, args)
        assert record["verdict"] == "pass"
        # Measured 2.01 P (3.01 with the transpose of the fold's output to
        # L and a fresh M beside M's P); 12 % margin.
        assert peak <= 2.25 * dim**4 * 16
