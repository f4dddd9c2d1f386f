from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfrep.linalg import (
    DimensionLimitError,
    Projection,
    hermiticity_residual,
    hermitize_in_place,
    kron_trace,
    random_projection,
    rank_one_proj,
    swap_operator,
    trace_norm,
)
from reference import (
    ElementaryTensorSum,
    haar_unitary,
    identity_projection,
    kron,
    projector_tensor_sum,
    spectral_projections,
    trace_pair,
    zero_projection,
)


def _cmat(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_matrix_unit(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        out = kron(e11, e11)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert_allclose(out, expect)

    def test_mixed_product_property(self, rng):
        # oracle: direct dense multiplication on both sides
        a, b, c, d = (_cmat(rng, 3) for _ in range(4))
        assert_allclose(kron(a @ c, b @ d), kron(a, b) @ kron(c, d), atol=1e-10)

    def test_dimension_limit(self):
        with pytest.raises(DimensionLimitError):
            kron(np.eye(64), np.eye(65))


class TestTracePair:
    def test_identity(self):
        assert trace_pair(np.eye(4), np.eye(4)) == pytest.approx(4.0)

    def test_matrix_unit_pairing(self):
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        assert trace_pair(e12, e12.T) == pytest.approx(1.0)

    def test_index_sum_oracle(self, rng):
        a = _cmat(rng, 4)
        x = _cmat(rng, 4)
        oracle = sum(a[i, j] * x[j, i] for i in range(4) for j in range(4))
        assert trace_pair(a, x) == pytest.approx(oracle)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            trace_pair(np.eye(2), np.eye(3))


class TestKronTrace:
    def test_identity_factors(self, rng):
        x = _cmat(rng, 9)
        assert kron_trace(np.eye(3), np.eye(3), x) == pytest.approx(np.trace(x))

    def test_matrix_unit_factors(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        assert kron_trace(e11, e11, np.eye(4)) == pytest.approx(1.0)

    def test_naive_materialization_oracle(self, rng):
        p, q = _cmat(rng, 5), _cmat(rng, 5)
        x = _cmat(rng, 25)
        naive = np.trace(np.kron(p, q) @ x)
        val = kron_trace(p, q, x)
        assert abs(val - naive) <= 1e-10
        assert abs(val - naive) <= 1e-12 * max(1.0, abs(naive))

    def test_rectangular_factors(self, rng):
        p = _cmat(rng, 2)
        q = _cmat(rng, 3)
        x = _cmat(rng, 6)
        assert kron_trace(p, q, x) == pytest.approx(np.trace(np.kron(p, q) @ x))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            kron_trace(np.eye(2), np.eye(2), np.eye(5))


class TestSpectralProjections:
    def test_degenerate_diag(self):
        pairs = spectral_projections(np.diag([1.0, 1.0, 0.0]))
        assert len(pairs) == 2
        assert pairs[0][0] == pytest.approx(0.0)
        assert pairs[1][0] == pytest.approx(1.0)
        assert_allclose(pairs[0][1].matrix, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
        assert_allclose(pairs[1][1].matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_identity(self):
        pairs = spectral_projections(np.eye(4))
        assert len(pairs) == 1
        assert pairs[0][0] == pytest.approx(1.0)
        assert pairs[0][1].rank == 4

    def test_reassembly_oracle(self, rng):
        h = _cmat(rng, 4)
        h = (h + h.conj().T) / 2
        pairs = spectral_projections(h)
        rebuilt = sum(w * p.matrix for w, p in pairs)
        assert np.linalg.norm(rebuilt - h) <= 1e-9

    def test_orthogonality_and_completeness(self, rng):
        h = _cmat(rng, 5)
        h = (h + h.conj().T) / 2
        pairs = spectral_projections(h)
        total = sum(p.matrix for _, p in pairs)
        assert np.linalg.norm(total - np.eye(5)) <= 1e-9
        for i, (_, pi) in enumerate(pairs):
            for j, (_, pj) in enumerate(pairs):
                expect = pi.matrix if i == j else 0 * pi.matrix
                assert np.linalg.norm(pi.matrix @ pj.matrix - expect) <= 1e-9

    def test_eigenvalues_ascending(self, rng):
        h = _cmat(rng, 6)
        h = (h + h.conj().T) / 2
        vals = [w for w, _ in spectral_projections(h)]
        assert vals == sorted(vals)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError):
            spectral_projections(_cmat(rng, 3))


class TestTraceNorm:
    def test_projection_rank(self, rng):
        p = random_projection(5, 3, rng)
        assert trace_norm(p.matrix) == pytest.approx(3.0, abs=1e-10)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_independent_svd_oracle(self, rng):
        # oracle: singular values via the eigenvalues of A^dag A
        a = _cmat(rng, 4)
        oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0)).sum()
        assert abs(trace_norm(a) - oracle) <= 1e-9

    def test_unitary_invariance(self, rng):
        a = _cmat(rng, 4)
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        assert abs(trace_norm(u @ a @ v) - trace_norm(a)) <= 1e-8


class TestBlockedHermiticity:
    # 289 and 600 exceed the 256-wide split block, so block pairs are covered.
    @pytest.mark.parametrize("n", [3, 289, 600])
    def test_match_the_full_size_formulas(self, n, rng):
        """The residual accumulated over block pairs matches the full-size
        norm, and the in-place Hermitian part is (a + a^dag)/2 bit for bit."""
        a = _cmat(rng, n)
        full = np.linalg.norm(a - a.conj().T) / max(1.0, np.linalg.norm(a))
        assert hermiticity_residual(a) == pytest.approx(full, rel=1e-12)
        h = a.copy()
        assert hermitize_in_place(h) is h
        assert np.array_equal(h, (a + a.conj().T) / 2)
        assert hermiticity_residual(h) == 0.0


class TestRankOneProj:
    def test_basis_vector(self):
        p = rank_one_proj(np.array([1.0, 0.0, 0.0]))
        assert_allclose(p.matrix, np.diag([1.0, 0.0, 0.0]))
        assert p.rank == 1

    def test_superposition(self):
        # outer-product oracle: all four entries are 1/2
        p = rank_one_proj(np.array([1.0, 1.0]) / np.sqrt(2))
        assert_allclose(p.matrix, np.full((2, 2), 0.5), atol=1e-12)
        assert np.trace(p.matrix) == pytest.approx(1.0)

    def test_projects_onto_span(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = v / np.linalg.norm(v)
        p = rank_one_proj(v)
        eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert_allclose(p.matrix @ eta, np.vdot(v, eta) * v, atol=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            rank_one_proj(np.array([1.0, 1.0]))


class TestSwapOperator:
    def test_dim_one(self):
        assert_allclose(swap_operator(1), np.array([[1.0]]))

    def test_dim_two_permutation(self):
        w = swap_operator(2)
        expect = np.eye(4)[[0, 2, 1, 3]]
        assert_allclose(w, expect)

    def test_product_vectors(self, rng):
        w = swap_operator(3)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.linalg.norm(w @ np.kron(a, b) - np.kron(b, a)) <= 1e-12

    def test_involution_and_unitarity(self):
        w = swap_operator(4)
        assert_allclose(w @ w, np.eye(16))
        assert_allclose(w @ w.conj().T, np.eye(16))

    def test_conjugation_swaps_factors(self, rng):
        w = swap_operator(3)
        a, b = _cmat(rng, 3), _cmat(rng, 3)
        assert np.linalg.norm(w @ np.kron(a, b) @ w - np.kron(b, a)) <= 1e-10


class TestRandomProjection:
    def test_rank_zero(self):
        assert_allclose(random_projection(4, 0, 1).matrix, np.zeros((4, 4)))

    def test_full_rank(self):
        assert_allclose(random_projection(4, 4, 1).matrix, np.eye(4))

    def test_invariants(self):
        p = random_projection(4, 2, 7)
        m = p.matrix
        assert np.linalg.norm(m @ m - m) <= 1e-10
        assert abs(np.trace(m) - 2.0) <= 1e-10

    def test_deterministic_per_seed(self):
        assert_allclose(random_projection(5, 2, 42).matrix, random_projection(5, 2, 42).matrix)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_projection(3, 4, 0)


class TestProjectionType:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Projection(np.diag([0.5, 0.5]).astype(complex), 1)

    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            Projection(m, 1)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Projection(np.eye(3, dtype=complex), 2)

    def test_helpers(self):
        assert identity_projection(3).rank == 3
        assert zero_projection(3).rank == 0


class TestElementaryTensorSum:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ElementaryTensorSum(())

    def test_uniform_dimension_enforced(self):
        with pytest.raises(ValueError):
            ElementaryTensorSum(((np.eye(2), np.eye(3)),))

    def test_materialize(self, rng):
        a, b, c, d = (_cmat(rng, 3) for _ in range(4))
        s = ElementaryTensorSum(((a, b), (c, d)))
        assert_allclose(s.materialize(), np.kron(a, b) + np.kron(c, d))

    def test_projector_expansion(self, rng):
        terms = [
            (rng.standard_normal(3) + 1j * rng.standard_normal(3),
             rng.standard_normal(3) + 1j * rng.standard_normal(3))
            for _ in range(3)
        ]
        xi = sum(np.kron(a, g) for a, g in terms)
        s = projector_tensor_sum(terms, normalize=True)
        expect = np.outer(xi, xi.conj()) / np.linalg.norm(xi) ** 2
        assert np.linalg.norm(s.materialize() - expect) <= 1e-10


@pytest.mark.parametrize("seed", range(25))
def test_kron_trace_equals_trace_pair_of_kron(seed):
    dim = 2 + seed % 4
    rng = np.random.default_rng(seed)
    p, q = _cmat(rng, dim), _cmat(rng, dim)
    x = _cmat(rng, dim * dim)
    lhs = kron_trace(p, q, x)
    rhs = trace_pair(kron(p, q), x)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("seed", range(25))
def test_spectral_projections_reconstruct(seed):
    dim = 2 + seed % 5
    rng = np.random.default_rng(seed)
    h = _cmat(rng, dim)
    h = (h + h.conj().T) / 2
    pairs = spectral_projections(h)
    rebuilt = sum(w * p.matrix for w, p in pairs)
    assert np.linalg.norm(rebuilt - h) <= 1e-9 * max(1.0, np.linalg.norm(h))


@pytest.mark.parametrize("seed", range(25))
def test_swap_conjugation_property(seed):
    dim = 2 + seed % 4
    rng = np.random.default_rng(seed)
    a, b = _cmat(rng, dim), _cmat(rng, dim)
    w = swap_operator(dim)
    assert np.linalg.norm(w @ np.kron(a, b) @ w - np.kron(b, a)) <= 1e-10


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
