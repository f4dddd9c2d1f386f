"""Batched pairing kernels against their scalar references.

The pair tables, the blocked unit-table combine, the batched pairing with
the pairing matrix and the index-transpose swap residual are all
reorganisations of the same sums; each is checked here against the
straightforward formula it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from dfrep import (
    ClassOperatorFunctional,
    ClassOperatorModel,
    DecoherenceFunctional,
    FormBackedFunctional,
    OperatorBackedFunctional,
    Projection,
    PureStateFunctional,
    swap_operator,
    verify_ils_conditions,
)
from dfrep.cli import _pairing_residual
from dfrep.ils import (
    ATOM_BLOCK,
    _pair_units,
    _sample_positivity_min,
    bilinear_unit_table,
    ils_operator_from_matrix,
    polarization_atoms,
)
from dfrep.linalg import (
    kron_trace,
    pairing_realignment,
    pairing_values,
    rank_one_matrices,
    swap_adjoint_residual,
)
from dfrep.tracial import Decomposition
from reference import ElementaryTensorSum, haar_unitary, kron, trace_pair
from conftest import block_projections, random_density, random_valid_pairing_operator


def _cmats(rng, n, dim):
    return rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))


def _random_backends(dim: int, rng) -> dict:
    """One functional per backend, none aligned with the standard basis."""
    n = dim * dim
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = haar_unitary(dim, rng)
    model = ClassOperatorModel(
        dim=dim,
        rho=random_density(dim, rng),
        hamiltonian=(h + h.conj().T) / 2,
        times=(0.37,),
        schedules=(tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(dim)),),
    )
    return {
        "operator": OperatorBackedFunctional(x),
        "pure_state": PureStateFunctional(psi / np.linalg.norm(psi)),
        "form": FormBackedFunctional((g + g.conj().T) / 2),
        "class_operator": ClassOperatorFunctional(model),
    }


_SQ2 = np.sqrt(2.0)


def frozen_polarization_atoms(dim: int):
    """The dense ``(atoms, index, coeffs)`` form of the polarization atoms
    as it was before the sparse ``(support, coeff)`` form, kept verbatim as
    a reference: an ``(N, dim, dim)`` atom stack and the ``(dim^2, 4)``
    expansion ``E_ab = sum_k coeffs[a*dim+b, k] atoms[index[a*dim+b, k]]``."""
    atoms = []
    for a in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[a] = 1.0
        atoms.append(np.outer(e, e.conj()))
    pair_base = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            ea = np.zeros(dim, dtype=complex)
            eb = np.zeros(dim, dtype=complex)
            ea[a] = 1.0
            eb[b] = 1.0
            pair_base[(a, b)] = len(atoms)
            for vec in (
                (ea + eb) / _SQ2,
                (ea - eb) / _SQ2,
                (ea + 1j * eb) / _SQ2,
                (ea - 1j * eb) / _SQ2,
            ):
                atoms.append(np.outer(vec, vec.conj()))
    index = np.zeros((dim * dim, 4), dtype=np.intp)
    coeffs = np.zeros((dim * dim, 4), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            row = a * dim + b
            if a == b:
                index[row] = a
                coeffs[row, 0] = 1.0
                continue
            sign = 1.0 if a < b else -1.0
            index[row] = pair_base[(min(a, b), max(a, b))] + np.arange(4)
            coeffs[row] = (0.5, -0.5, sign * 0.5j, -sign * 0.5j)
    return np.stack(atoms), index, coeffs


def frozen_unit_table(d, dim: int) -> np.ndarray:
    """The index/coeff combine that the grouped fold replaced, kept
    verbatim: dense atom pair tables in blocks of 256 left atoms, gathered
    through the four-slot expansion and scattered into U by masks."""
    atoms, index, coeffs = frozen_polarization_atoms(dim)
    n_units = dim * dim
    units = np.zeros((n_units, n_units), dtype=complex)
    for start in range(0, len(atoms), 256):
        stop = min(start + 256, len(atoms))
        rows = d.pair_table(atoms[start:stop], atoms)
        right = sum(rows[:, index[:, k]] * coeffs[:, k] for k in range(4))
        for k in range(4):
            hit = (index[:, k] >= start) & (index[:, k] < stop)
            units[hit] += coeffs[hit, k, None] * right[index[hit, k] - start]
    return units


def _dense_coeffs(index, coeffs, n_atoms) -> np.ndarray:
    dense = np.zeros((len(index), n_atoms), dtype=complex)
    for row in range(len(index)):
        for k in range(4):
            dense[row, index[row, k]] += coeffs[row, k]
    return dense


class TestPairTableParity:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_matches_bilinear_loop(self, kind, dim, rng):
        d = _random_backends(dim, rng)[kind]
        left = _cmats(rng, 5, dim)
        right = _cmats(rng, 7, dim)
        fast = d.pair_table(left, right)
        ref = DecoherenceFunctional.pair_table(d, left, right)
        assert fast.shape == (5, 7)
        assert np.abs(fast - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


class TestBlockedUnitTable:
    def test_expansion_reproduces_matrix_units(self):
        dim = 4
        support, coeff = polarization_atoms(dim)
        assert support.shape == coeff.shape == (dim * dim, 2)
        atoms = rank_one_matrices(support, coeff, dim)
        frozen_atoms, index, coeffs = frozen_polarization_atoms(dim)
        # The basis atoms, then (e_a + e_b, e_a + i e_b)/sqrt(2) for each
        # pair: the first and third atoms of each frozen group of four.
        groups = dim + 4 * np.arange(dim * (dim - 1) // 2)[:, None] + [0, 2]
        assert np.abs(atoms - frozen_atoms[np.r_[:dim, groups.ravel()]]).max() <= 1e-15
        assert index.shape == coeffs.shape == (dim * dim, 4)
        for a in range(dim):
            for b in range(dim):
                row = a * dim + b
                unit = np.einsum("k,kij->ij", coeffs[row], frozen_atoms[index[row]])
                expect = np.zeros((dim, dim))
                expect[a, b] = 1.0
                assert np.abs(unit - expect).max() <= 1e-15

    # N = d^2: 9 atoms at d = 3 (below one block), 144 at d = 12 (full
    # blocks plus a partial one).
    @pytest.mark.parametrize("dim", [3, 12])
    @pytest.mark.parametrize("kind", ["operator", "class_operator"])
    def test_matches_dense_combine(self, kind, dim, rng):
        n_atoms = dim * dim
        assert n_atoms % ATOM_BLOCK != 0
        # The first block holds the basis atoms and whole pairs, the later
        # ones ATOM_BLOCK atoms each.
        first = dim + 2 * ((ATOM_BLOCK - dim) // 2)
        n_blocks = 1 + max(0, -(-(n_atoms - first) // ATOM_BLOCK))
        assert dim == 3 or n_blocks > 1  # d = 12 spans several blocks
        d = _random_backends(dim, rng)[kind]
        atoms, index, coeffs = frozen_polarization_atoms(dim)
        dense = _dense_coeffs(index, coeffs, len(atoms))
        ref = dense @ d.pair_table(atoms, atoms) @ dense.T
        blocks = []
        original = d.rank_one_table_against

        def recording(right):
            rows_of = original(right)

            def rows(left):
                blocks.append((len(left[0]), len(right[0])))
                return rows_of(left)

            return rows

        d.rank_one_table_against = recording
        units = bilinear_unit_table(d)
        assert np.abs(units - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        # The whole N x N atom table is never requested at once.
        assert len(blocks) == n_blocks
        assert sum(rows for rows, _ in blocks) == n_atoms
        assert all(rows <= ATOM_BLOCK and cols == n_atoms for rows, cols in blocks)

    # The fold against the index/coeff combine of the frozen four-atom
    # groups, at d = 3 (one block) and at d = 12, where N = 144 is not a
    # multiple of the block.
    @pytest.mark.parametrize("dim", [3, 12])
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_matches_frozen_combine(self, kind, dim, rng):
        d = _random_backends(dim, rng)[kind]
        ref = frozen_unit_table(d, dim)
        units = bilinear_unit_table(d)
        assert np.abs(units - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_extraction_builds_no_atom_stack(self, rng, monkeypatch):
        """No backend materialises projections on the extraction path: the
        dense pair table and the rank-one materialiser are never called."""
        backends = _random_backends(5, rng)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense atom stack requested")

        for cls in {type(d) for d in backends.values()} | {DecoherenceFunctional}:
            monkeypatch.setattr(cls, "pair_table", forbidden)
        monkeypatch.setattr("dfrep.functionals.rank_one_matrices", forbidden)
        for d in backends.values():
            assert bilinear_unit_table(d).shape == (25, 25)


class TestBasisFold:
    """The d^2 atoms are a basis, and the fold is exact at the block edges."""

    # d = 23: the first block ends partway through the pairs; d = 64: the
    # first block holds the basis atoms alone.
    @pytest.mark.parametrize("dim", [1, 2, 3, 23, 64])
    def test_recovers_a_generic_operator(self, dim, rng):
        n = dim * dim
        # A non-Hermitian X with no zero pattern, so every entry of P
        # matters; drawn as one (n, n) complex view with no temporaries.
        x = rng.standard_normal((n, n, 2)).view(complex)[..., 0]
        d = OperatorBackedFunctional(x)
        del x
        ref = d.pairing  # pairing_realignment(x), held once
        scale = np.abs(ref).max()
        units = bilinear_unit_table(d)
        units -= ref  # in place: at d = 64 each copy is 268 MB
        assert np.abs(units).max() <= 1e-12 * scale

    @pytest.mark.parametrize("block", [4, 6])
    def test_more_basis_atoms_than_a_block(self, block, rng, monkeypatch):
        """With d > ATOM_BLOCK the basis rows span several blocks; with
        blocks of 6 atoms, one starts among them and ends among the pairs."""
        dim = 7
        monkeypatch.setattr("dfrep.ils.ATOM_BLOCK", block)
        x = _cmats(rng, 1, dim * dim)[0]
        units = bilinear_unit_table(OperatorBackedFunctional(x))
        ref = pairing_realignment(x)
        assert np.abs(units - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("dim", [1, 2, 3, 23])
    def test_atoms_are_a_basis_with_a_closed_form_expansion(self, dim):
        atoms = rank_one_matrices(*polarization_atoms(dim), dim)
        assert np.linalg.matrix_rank(atoms.reshape(dim * dim, -1)) == dim * dim
        ia, ib = np.triu_indices(dim, 1)
        pair = dim + 2 * np.arange(len(ia))
        e_ab, e_ba = _pair_units(atoms[pair], atoms[pair + 1], atoms[ia], atoms[ib])
        eye = np.eye(dim * dim).reshape(dim, dim, dim, dim)
        assert np.abs(atoms[:dim] - eye[np.arange(dim), np.arange(dim)]).max() <= 1e-15
        assert np.abs(e_ab - eye[ia, ib]).max(initial=0.0) <= 1e-15
        assert np.abs(e_ba - eye[ib, ia]).max(initial=0.0) <= 1e-15


def rectangular_pairing(x, dp: int, dq: int) -> np.ndarray:
    """``P[(i,k), (j,l)] = X[(k,l), (i,j)]`` for X on ``C^dp (x) C^dq``: the
    pairing matrix of a two-factor operator, which the library builds only
    in the square case."""
    return x.reshape(dp, dq, dp, dq).transpose(2, 0, 3, 1).reshape(dp * dp, dq * dq)


class TestPairingValues:
    @pytest.mark.parametrize("dp,dq", [(1, 1), (2, 2), (3, 3), (5, 5), (2, 4), (5, 3)])
    def test_rows_match_reference(self, dp, dq, rng):
        p = _cmats(rng, 9, dp)
        q = _cmats(rng, 9, dq)
        x = rng.standard_normal((dp * dq, dp * dq)) + 1j * rng.standard_normal((dp * dq, dp * dq))
        pairing = rectangular_pairing(x, dp, dq)
        if dp == dq:
            assert np.array_equal(pairing_realignment(x), pairing)
        vals = pairing_values(p, q, pairing)
        assert vals.shape == (9,)
        for s in range(9):
            ref = trace_pair(kron(p[s], q[s]), x)
            assert abs(vals[s] - ref) <= 1e-12 * max(1.0, abs(ref))
            assert abs(kron_trace(p[s], q[s], x) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_rejects_mismatched_stacks(self, rng):
        with pytest.raises(ValueError):
            pairing_values(_cmats(rng, 3, 2), _cmats(rng, 4, 2), np.eye(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairing_values(_cmats(rng, 3, 2), _cmats(rng, 3, 2), np.eye(5))
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairing_realignment(np.eye(5))


class TestSwapResidual:
    @pytest.mark.parametrize("dim", [3, 5])
    def test_matches_dense_swap_on_planted_violation(self, dim, rng):
        n = dim * dim
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = swap_operator(dim)
        ref = float(np.linalg.norm(x - w @ x.conj().T @ w))
        assert ref > 1.0
        assert swap_adjoint_residual(pairing_realignment(x)) == pytest.approx(ref, rel=1e-12)
        report = verify_ils_conditions(ils_operator_from_matrix(x), samples=5)
        assert report.swap_adjoint_residual == pytest.approx(ref, rel=1e-12)
        assert not report.hermiticity_ok

    def test_zero_on_valid_operator(self, rng):
        x = random_valid_pairing_operator(4, rng)
        assert swap_adjoint_residual(pairing_realignment(x)) <= 1e-14


class TestSampledDiagnosticsKeepDraws:
    """The batched diagnostics draw in the block layout of the shared
    reference, so a seed names the same samples as a per-sample loop."""

    def test_positivity_min_matches_scalar_loop(self, rng):
        dim, samples, seed = 4, 40, 3
        x = random_valid_pairing_operator(dim, rng)
        gen = np.random.default_rng(np.random.SeedSequence([seed, dim]))
        pool = [Projection(np.diag((np.arange(dim) == i).astype(complex)), 1) for i in range(dim)]
        pool.append(Projection(np.eye(dim, dtype=complex), dim))
        pool += block_projections(dim, samples, gen, 1)
        ref = min(kron_trace(p, p, x).real for p in pool)
        pairing = pairing_realignment(x)
        assert _sample_positivity_min(pairing, dim, samples, seed) == pytest.approx(ref, abs=1e-14)

    def test_pairing_residual_matches_scalar_loop(self, rng):
        dim, samples, seed = 4, 30, 5
        x0 = random_valid_pairing_operator(dim, rng)
        d = OperatorBackedFunctional(x0)
        x = x0 + 1e-3 * rng.standard_normal(x0.shape)
        gen = np.random.default_rng(np.random.SeedSequence([seed, dim, 17]))
        pq = block_projections(dim, 2 * samples, gen)  # p and q alternate
        ref = max(abs(d.evaluate(p, q) - kron_trace(p, q, x)) for p, q in zip(pq[0::2], pq[1::2]))
        assert ref > 1e-6
        assert _pairing_residual(d, OperatorBackedFunctional(x), samples, seed) == pytest.approx(
            ref, rel=1e-10
        )


class TestStackedBeta:
    def test_matches_term_loop(self, rng):
        dim = 3
        xs = tuple(_cmats(rng, 2, dim))
        ys = tuple(_cmats(rng, 3, dim))
        rows = [f.T.reshape(-1) for f in xs + ys]  # vec(F_i^T)
        dec = Decomposition(rows, signature=(1.0,) * len(xs) + (-1.0,) * len(ys), dim=dim)
        s = ElementaryTensorSum(tuple(zip(_cmats(rng, 3, dim), _cmats(rng, 3, dim))))
        ref = 0.0 + 0.0j
        for a, b in s.terms:
            ref += sum(np.trace(a @ f) * np.trace(b @ f.conj().T) for f in xs)
            ref -= sum(np.trace(a @ f) * np.trace(b @ f.conj().T) for f in ys)
        assert abs(dec.beta(s) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_empty_families_and_dimension_check(self, rng):
        dec = Decomposition(np.empty((0, 9)), signature=(), dim=3)
        s = ElementaryTensorSum(((_cmats(rng, 1, 3)[0], _cmats(rng, 1, 3)[0]),))
        assert dec.beta(s) == 0
        with pytest.raises(ValueError, match="dimension mismatch"):
            dec.beta(ElementaryTensorSum(((np.eye(2), np.eye(2)),)))
