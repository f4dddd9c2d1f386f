from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfrep import (
    DimensionExclusionError,
    ElementaryTensorSum,
    FormBackedFunctional,
    GramHermiticityError,
    NotTraciallyBoundedError,
    OperatorBackedFunctional,
    PureStateFunctional,
    build_tracial_operator,
    evaluate_double_sum,
    extract_ils,
    gram_matrix,
    hermitian_form_decomposition,
    identity_projection,
    kron_trace,
    operator_norm,
    orthogonal_decompose,
    pure_state_m,
    random_projection,
    reconstruct_from_product_diagonal,
    swap_operator,
    trace_norm,
    trace_pair,
    zero_projection,
)
from dfrep.linalg import kron_trace_table
from dfrep.tracial import double_sum_table, householder_basis, product_diagonal_of
from conftest import backend_fixtures, basis_proj, random_valid_pairing_operator, rho_half_half


def _e(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _random_sums(rng, dim, count):
    for _ in range(count):
        terms = tuple(
            (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
            )
            for _ in range(int(rng.integers(1, 5)))
        )
        yield ElementaryTensorSum(terms)


class TestGram:
    def test_round_trip_through_form_backend(self, rng):
        dim = 3
        base = backend_fixtures(dim)["operator"]
        g = gram_matrix(base, dim)
        again = gram_matrix(FormBackedFunctional(g), dim)
        assert np.linalg.norm(again - g) <= 1e-10

    def test_pure_state_gram_is_psd(self):
        dim = 4
        g = gram_matrix(PureStateFunctional(_e(dim, 0)), dim)
        evs = np.linalg.eigvalsh(g)
        assert evs.min() >= -1e-10

    def test_hermiticity_violation_detected(self):
        dim = 3
        x0 = np.kron(rho_half_half(dim), rho_half_half(dim)).astype(complex)
        u = np.zeros(dim * dim)
        v = np.zeros(dim * dim)
        u[1], v[2] = 1.0, 1.0
        x0 = x0 + 0.05 * (np.outer(u, v) - np.outer(v, u))  # skew corruption
        with pytest.raises(GramHermiticityError):
            gram_matrix(OperatorBackedFunctional(x0), dim)


class TestDecomposition:
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_beta_fidelity(self, kind, rng):
        dim = 4
        d = backend_fixtures(dim)[kind]
        dec = hermitian_form_decomposition(d, dim)
        assert len(dec.x_family) + len(dec.y_family) <= dim * dim
        for s in _random_sums(rng, dim, 100):
            direct = sum(d.bilinear(a, b) for a, b in s.terms)
            assert abs(dec.beta(s) - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_zero_functional_empty_families(self):
        dim = 3
        d = FormBackedFunctional(np.zeros((dim * dim, dim * dim), dtype=complex))
        dec = hermitian_form_decomposition(d, dim)
        assert dec.x_family == ()
        assert dec.y_family == ()
        assert dec.signature == ()

    def test_pure_state_reproduces_projection_pairs(self, rng):
        dim = 4
        d = PureStateFunctional(_e(dim, 0))
        dec = hermitian_form_decomposition(d, dim)
        for _ in range(30):
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            q = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            s = ElementaryTensorSum(((p.matrix, q.matrix),))
            # oracle: <p psi, q psi>
            direct = complex(np.vdot(q.matrix @ d.psi, p.matrix @ d.psi))
            assert abs(dec.beta(s) - direct) <= 1e-9

    def test_signature_ordering_and_split(self, rng):
        dim = 3
        d = backend_fixtures(dim)["class_operator"]
        dec = hermitian_form_decomposition(d, dim)
        assert list(dec.signature) == sorted(dec.signature, reverse=True)
        positives = [s for s in dec.signature if s > 0]
        negatives = [s for s in dec.signature if s < 0]
        assert len(positives) == len(dec.x_family)
        assert len(negatives) == len(dec.y_family)

    def test_dimension_two_excluded(self):
        with pytest.raises(DimensionExclusionError):
            hermitian_form_decomposition(PureStateFunctional(_e(2, 0)), 2)


class TestTracialOperator:
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_pairing_identity_on_sampled_pairs(self, kind, rng):
        dim = 4
        d = backend_fixtures(dim)[kind]
        top = build_tracial_operator(d, dim)
        for _ in range(50):
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            q = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            assert abs(kron_trace(p, q, top.m_op) - d.evaluate(p, q)) <= 1e-9

    def test_matches_source_operator(self, rng):
        dim = 3
        x0 = np.kron(rho_half_half(dim), rho_half_half(dim))
        top = build_tracial_operator(OperatorBackedFunctional(x0), dim)
        # the pairing determines the operator uniquely at fixed truncation
        assert np.linalg.norm(top.m_op - x0) <= 1e-9

    def test_pure_state_unit_diagonal(self):
        dim = 4
        top = build_tracial_operator(PureStateFunctional(_e(dim, 0)), dim)
        p = basis_proj(dim, 0)
        assert kron_trace(p, p, top.m_op) == pytest.approx(1.0, abs=1e-10)

    def test_entangled_vector_expectation(self):
        # <M xi, xi> = 1/2 for xi = (e1 (x) e2 + e2 (x) e1)/sqrt(2)
        dim = 4
        top = build_tracial_operator(PureStateFunctional(_e(dim, 0)), dim)
        xi = (np.kron(_e(dim, 0), _e(dim, 1)) + np.kron(_e(dim, 1), _e(dim, 0))) / np.sqrt(2)
        assert np.vdot(xi, top.m_op @ xi) == pytest.approx(0.5, abs=1e-12)

    def test_bound_violation_raises_with_evidence(self):
        dim = 3
        d = backend_fixtures(dim)["operator"]
        with pytest.raises(NotTraciallyBoundedError) as err:
            build_tracial_operator(d, dim, bound=1e-6, probe_samples=200, seed=5)
        assert err.value.sup_estimate > 1e-6
        assert err.value.samples == 200
        assert err.value.dim == dim

    def test_bound_satisfied_builds(self):
        dim = 3
        d = backend_fixtures(dim)["pure_state"]
        top = build_tracial_operator(d, dim, bound=2.0, probe_samples=200, seed=5)
        assert top.operator_norm <= 1 + 1e-9


def _random_form(dim, rng):
    """Form backend on a random Hermitian, almost surely full-rank Gram."""
    a = rng.standard_normal((dim * dim, dim * dim)) + 1j * rng.standard_normal((dim * dim, dim * dim))
    return FormBackedFunctional((a + a.conj().T) / 2)


def _fixture(kind, dim, rng):
    """A backend fixture, a random full-rank form or a random valid,
    non-basis-aligned operator."""
    if kind == "random_form":
        return _random_form(dim, rng)
    if kind == "random_operator":
        return OperatorBackedFunctional(random_valid_pairing_operator(dim, rng))
    return backend_fixtures(dim)[kind]


KINDS = ["operator", "pure_state", "form", "class_operator", "random_form", "random_operator"]


def _swap_adjoint(x, dim):
    """``W X^dag W`` by index transpose (W the swap)."""
    return x.reshape(dim, dim, dim, dim).transpose(3, 2, 1, 0).conj().reshape(dim * dim, dim * dim)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestRealignedRepresentative:
    """M is the realigned Gram matrix, the literal family sum and the
    swap-symmetrised trace-pairing operator at once."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_family_sum(self, kind, dim, rng):
        top = build_tracial_operator(_fixture(kind, dim, rng), dim)
        if kind == "random_form":
            assert len(top.source.signature) == dim * dim  # full rank
        assert _rel(top.m_op, top.source.pairing_operator()) <= 1e-12

    @pytest.mark.parametrize("dim", [3, 5])
    def test_matches_family_sum_with_dropped_eigenvalues(self, dim, rng):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        top = build_tracial_operator(PureStateFunctional(psi / np.linalg.norm(psi)), dim)
        assert len(top.source.signature) < dim * dim
        assert _rel(top.m_op, top.source.pairing_operator()) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_swap_symmetrised_trace_pairing_operator(self, kind, dim, rng):
        d = _fixture(kind, dim, rng)
        x = extract_ils(d, dim, samples=10).x_op
        m = build_tracial_operator(d, dim).m_op
        assert _rel(m, (x + _swap_adjoint(x, dim)) / 2) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_hermiticity_error_exactly_above_swap_bound(self, scale, factor, rng):
        """The Gram check fires iff ``||X - W X^dag W||_F`` exceeds
        ``1e-8 max(1, ||X||_F)``: a planted swap-skew part sits at half or
        twice that bound."""
        dim = 3
        x0 = scale * np.kron(rho_half_half(dim), rho_half_half(dim)).astype(complex)
        k = rng.standard_normal((dim * dim, dim * dim)) + 1j * rng.standard_normal((dim * dim, dim * dim))
        skew = (k - _swap_adjoint(k, dim)) / 2
        unit = np.linalg.norm(skew - _swap_adjoint(skew, dim))
        x = x0 + (factor * 1e-8 * max(1.0, np.linalg.norm(x0)) / unit) * skew
        residual = np.linalg.norm(x - _swap_adjoint(x, dim))
        bound = 1e-8 * max(1.0, np.linalg.norm(x))
        assert residual == pytest.approx(factor * bound, rel=1e-6)
        d = OperatorBackedFunctional(x)
        if residual > bound:
            with pytest.raises(GramHermiticityError):
                build_tracial_operator(d, dim)
        else:
            top = build_tracial_operator(d, dim)
            assert _rel(top.m_op, (x + _swap_adjoint(x, dim)) / 2) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_building_and_reading_m_runs_no_eigh(self, kind, rng, monkeypatch):
        dim = 4
        d = _fixture(kind, dim, rng)

        def refuse(*a, **k):
            raise AssertionError("np.linalg.eigh called")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", refuse)
            top = build_tracial_operator(d, dim)
            assert top.m_op.shape == (dim * dim, dim * dim)
            assert np.isfinite(top.operator_norm)
        ref = hermitian_form_decomposition(d, dim)
        dec = top.source
        assert dec.signature == ref.signature
        assert dec.dim == ref.dim == top.dim
        for got, want in ((dec.x_family, ref.x_family), (dec.y_family, ref.y_family)):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert top.source is dec  # computed once


class TestPureStateM:
    def test_trace_is_one(self):
        for dim in (3, 6):
            m = pure_state_m(_e(dim, 0))
            assert np.trace(m) == pytest.approx(1.0, abs=1e-10)

    def test_pu_pu_dagger_is_projection(self):
        dim = 5
        psi = _e(dim, 0)
        m = pure_state_m(psi)
        p = np.kron(np.outer(psi, psi.conj()), np.eye(dim))
        assert np.linalg.norm(m @ m.conj().T - p) <= 1e-10
        assert np.trace(m @ m.conj().T).real == pytest.approx(dim, abs=1e-9)

    def test_beta_series_identity(self, rng):
        dim = 4
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = psi / np.linalg.norm(psi)
        m = pure_state_m(psi)
        d = PureStateFunctional(psi)
        for s in _random_sums(rng, dim, 100):
            direct = sum(d.bilinear(a, b) for a, b in s.terms)
            assert abs(trace_pair(s.materialize(), m) - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_trace_norm_equals_dimension(self):
        # SVD oracle on the explicit operator
        for dim in range(2, 9):
            m = pure_state_m(_e(dim, 0))
            oracle = float(np.linalg.svd(m, compute_uv=False).sum())
            assert trace_norm(m) == pytest.approx(oracle, abs=1e-9)
            assert trace_norm(m) == pytest.approx(dim, abs=1e-8)
            assert operator_norm(m) <= 1 + 1e-9

    def test_equals_extracted_operator(self):
        dim = 5
        psi = _e(dim, 0)
        m = pure_state_m(psi)
        x = extract_ils(PureStateFunctional(psi), dim)
        assert np.linalg.norm(m - x.x_op) <= 1e-9

    def test_construction_from_swap(self):
        dim = 4
        psi = _e(dim, 0)
        m = pure_state_m(psi)
        p = np.kron(np.outer(psi, psi.conj()), np.eye(dim))
        assert np.linalg.norm(m - p @ swap_operator(dim)) <= 1e-12

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError):
            pure_state_m(np.array([1.0, 1.0]))


class TestHouseholderBasis:
    def test_unitary_with_first_column_psi(self, rng):
        for _ in range(10):
            psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            psi = psi / np.linalg.norm(psi)
            b = householder_basis(psi)
            assert np.linalg.norm(b @ b.conj().T - np.eye(5)) <= 1e-12
            assert np.linalg.norm(b[:, 0] - psi) <= 1e-12

    def test_deterministic(self):
        psi = np.array([0.6, 0.0, 0.8j])
        assert_allclose(householder_basis(psi), householder_basis(psi))

    def test_basis_vector_input(self):
        b = householder_basis(_e(4, 0))
        assert np.linalg.norm(b[:, 0] - _e(4, 0)) <= 1e-12


class TestReconstructor:
    def test_zero_oracle(self):
        for dim in (2, 3):
            out = reconstruct_from_product_diagonal(lambda a, b: 0.0, dim)
            assert np.linalg.norm(out) <= 1e-12

    def test_identity(self):
        dim = 3
        out = reconstruct_from_product_diagonal(
            product_diagonal_of(np.eye(dim * dim)), dim
        )
        assert np.linalg.norm(out - np.eye(dim * dim)) <= 1e-10

    def test_random_operators(self, rng):
        for dim in (2, 3):
            m0 = rng.standard_normal((dim * dim, dim * dim)) + 1j * rng.standard_normal(
                (dim * dim, dim * dim)
            )
            out = reconstruct_from_product_diagonal(product_diagonal_of(m0), dim)
            assert np.linalg.norm(out - m0) <= 1e-9 * max(1.0, np.linalg.norm(m0))

    def test_uniqueness_of_tracial_operator(self):
        # two representatives satisfying the pairing identity must agree:
        # reconstruct the difference from its product diagonal
        dim = 3
        d = backend_fixtures(dim)["pure_state"]
        m1 = build_tracial_operator(d, dim).m_op
        m2 = extract_ils(d, dim).x_op
        diff = m1 - m2
        recon = reconstruct_from_product_diagonal(product_diagonal_of(diff), dim)
        assert np.linalg.norm(recon) <= 1e-8
        assert np.linalg.norm(m1 - m2) <= 1e-8


class TestDoubleSum:
    def test_identity_pair_rank_one_blocks(self):
        dim = 3
        d = backend_fixtures(dim)["operator"]
        top = build_tracial_operator(d, dim)
        one = identity_projection(dim)
        assert evaluate_double_sum(top, one, one, 1) == pytest.approx(1.0, abs=1e-10)

    def test_single_block_equals_direct(self, rng):
        dim = 4
        d = backend_fixtures(dim)["pure_state"]
        top = build_tracial_operator(d, dim)
        p = random_projection(dim, 3, rng)
        q = random_projection(dim, 2, rng)
        direct = kron_trace(p, q, top.m_op)
        assert evaluate_double_sum(top, p, q, dim) == pytest.approx(direct, abs=1e-12)

    def test_block_rank_invariance(self, rng):
        dim = 5
        d = backend_fixtures(dim)["operator"]
        top = build_tracial_operator(d, dim)
        p = random_projection(dim, 3, rng)
        q = random_projection(dim, 2, rng)
        v1 = evaluate_double_sum(top, p, q, 1)
        v2 = evaluate_double_sum(top, p, q, 2)
        assert abs(v1 - v2) <= 1e-10
        assert abs(v1 - kron_trace(p, q, top.m_op)) <= 1e-10

    def test_table_matches_per_block_route_exactly(self, rng):
        # Reference: each (pair, block rank) decomposed and paired on its own,
        # as orthogonal_decompose and kron_trace_table do.
        dim = 6
        top = build_tracial_operator(backend_fixtures(dim)["operator"], dim)
        ps = [random_projection(dim, int(rng.integers(1, dim + 1)), rng) for _ in range(4)]
        qs = [random_projection(dim, int(rng.integers(1, dim + 1)), rng) for _ in range(4)]
        ps[1] = zero_projection(dim)
        ranks = [1, 2, dim, 4]
        table = double_sum_table(top, ps, qs, ranks)
        for s, (p, q) in enumerate(zip(ps, qs)):
            for k, br in enumerate(ranks):
                pb = orthogonal_decompose(p, br)
                qb = orthogonal_decompose(q, br)
                ref = 0j
                if pb and qb:
                    ref = complex(np.sum(kron_trace_table(
                        np.stack([b.matrix for b in pb]), np.stack([b.matrix for b in qb]), top.m_op
                    )))
                assert table[s][k] == ref
                assert evaluate_double_sum(top, p, q, br) == ref

    def test_rejects_block_rank_below_one(self, rng):
        top = build_tracial_operator(backend_fixtures(3)["operator"], 3)
        p = random_projection(3, 2, rng)
        with pytest.raises(ValueError, match=">= 1"):
            double_sum_table(top, [p], [p], [1, 0])


class TestPureStateDichotomySignature:
    def test_trace_norm_grows_operator_norm_stays(self):
        # the desk-scale signature: tracially bounded but not tensor bounded
        for dim in range(2, 9):
            d = PureStateFunctional(_e(dim, 0))
            x = extract_ils(d, dim, allow_dim_two=True)
            assert x.trace_norm == pytest.approx(dim, abs=1e-8)
            assert operator_norm(pure_state_m(_e(dim, 0))) <= 1 + 1e-9


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
