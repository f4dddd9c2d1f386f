from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfrep import (
    DimensionExclusionError,
    FormBackedFunctional,
    GramHermiticityError,
    OperatorBackedFunctional,
    PureStateFunctional,
    build_tracial_operator,
    evaluate_double_sum,
    extract_ils,
    gram_matrix,
    hermitian_form_decomposition,
    kron_trace,
    operator_norm,
    pure_state_m,
    random_projection,
    reconstruct_from_product_diagonal,
    swap_operator,
    trace_norm,
)
from dfrep.linalg import (
    Projection,
    operator_from_pairing,
    pairing_realignment,
    projection_blocks,
    swap_right,
)
from dfrep.ils import bilinear_unit_table, ils_operator_from_matrix, verify_ils_conditions
from dfrep.tracial import (
    double_sum_table,
    product_diagonal_of,
    pure_state_projector,
)
from reference import (
    ElementaryTensorSum,
    haar_unitary,
    householder_basis,
    identity_projection,
    kron,
    orthogonal_decompose,
    trace_pair,
    zero_projection,
)
from conftest import backend_fixtures, basis_proj, random_valid_pairing_operator, rho_half_half
from test_batched_pairing import _random_backends


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
        g = gram_matrix(base)
        again = gram_matrix(FormBackedFunctional(g))
        assert np.linalg.norm(again - g) <= 1e-10

    def test_hermitian_part_of_a_multi_block_gram(self, rng):
        """At d = 17 (n = 289) G spans two block rows; it is made Hermitian
        in place with the bits of (G + G^dag)/2."""
        d = OperatorBackedFunctional(random_valid_pairing_operator(17, rng))
        raw = swap_right(bilinear_unit_table(d))
        assert np.array_equal(gram_matrix(d), (raw + raw.conj().T) / 2)

    def test_pure_state_gram_is_psd(self):
        dim = 4
        g = gram_matrix(PureStateFunctional(_e(dim, 0)))
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
            gram_matrix(OperatorBackedFunctional(x0))


class TestDecomposition:
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_beta_fidelity(self, kind, rng):
        dim = 4
        d = backend_fixtures(dim)[kind]
        dec = hermitian_form_decomposition(d)
        assert len(dec.x_family) + len(dec.y_family) <= dim * dim
        for s in _random_sums(rng, dim, 100):
            direct = sum(d.bilinear(a, b) for a, b in s.terms)
            assert abs(dec.beta(s) - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_zero_functional_empty_families(self):
        dim = 3
        d = FormBackedFunctional(np.zeros((dim * dim, dim * dim), dtype=complex))
        dec = hermitian_form_decomposition(d)
        assert dec.x_family == ()
        assert dec.y_family == ()
        assert dec.signature == ()

    def test_pure_state_reproduces_projection_pairs(self, rng):
        dim = 4
        d = PureStateFunctional(_e(dim, 0))
        dec = hermitian_form_decomposition(d)
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
        dec = hermitian_form_decomposition(d)
        assert list(dec.signature) == sorted(dec.signature, reverse=True)
        positives = [s for s in dec.signature if s > 0]
        negatives = [s for s in dec.signature if s < 0]
        assert len(positives) == len(dec.x_family)
        assert len(negatives) == len(dec.y_family)

    def test_dimension_two_excluded(self):
        with pytest.raises(DimensionExclusionError):
            hermitian_form_decomposition(PureStateFunctional(_e(2, 0)))

    def test_families_are_read_only_views_of_rows(self):
        dim = 4
        dec = hermitian_form_decomposition(backend_fixtures(dim)["class_operator"])
        families = dec.x_family + dec.y_family
        assert dec.rows.shape == (len(dec.signature), dim * dim) == (len(families), dim * dim)
        for row, f in zip(dec.rows, families):
            assert np.shares_memory(f, dec.rows)
            assert np.array_equal(f, row.reshape(dim, dim).T)
            with pytest.raises(ValueError, match="read-only"):
                f[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            dec.rows[0, 0] = 1.0

    def test_zero_gram_gives_no_rows_and_zero_terms(self, rng):
        dim = 3
        dec = hermitian_form_decomposition(FormBackedFunctional(np.zeros((dim * dim, dim * dim), dtype=complex)))
        assert dec.rows.shape == (0, dim * dim)
        a, b = rng.standard_normal((2, 5, dim, dim)) + 1j * rng.standard_normal((2, 5, dim, dim))
        assert np.array_equal(dec.term_values(a, b), np.zeros(5))

    def test_indefinite_form_splits_in_signature_order(self, rng):
        """Row i is sqrt(|lambda_i|) times a unit eigenvector of G for
        lambda_i; the positive eigenvalues' rows make up x_family and the
        negative ones' y_family, each in descending order."""
        dim = 3
        lam = np.array([3.0, 2.0, 1.0, 0.5, 0.0, 0.0, -0.25, -1.5, -2.5])
        u = haar_unitary(dim * dim, rng)
        g = (u * lam) @ u.conj().T
        g = (g + g.conj().T) / 2
        d = FormBackedFunctional(g)
        dec = hermitian_form_decomposition(d)
        assert_allclose(dec.signature, lam[lam != 0], atol=1e-12)
        assert (len(dec.x_family), len(dec.y_family)) == (4, 3)
        for row, w, f in zip(dec.rows, dec.signature, dec.x_family + dec.y_family):
            assert_allclose(f.T.reshape(-1), row)
            assert_allclose(np.vdot(row, row).real, abs(w), atol=1e-12)
            assert_allclose(g @ row, w * row, atol=1e-12)
        a, b = rng.standard_normal((2, 20, dim, dim)) + 1j * rng.standard_normal((2, 20, dim, dim))
        assert_allclose(dec.term_values(a, b), d.pair_values(a, b), atol=1e-12)
        assert_allclose(dec.pairing_operator(), operator_from_pairing(swap_right(g)), atol=1e-12)


class TestTracialOperator:
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_pairing_identity_on_sampled_pairs(self, kind, rng):
        dim = 4
        d = backend_fixtures(dim)[kind]
        top = build_tracial_operator(d)
        for _ in range(50):
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            q = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            assert abs(kron_trace(p, q, top.x_op) - d.evaluate(p, q)) <= 1e-9

    def test_matches_source_operator(self, rng):
        dim = 3
        x0 = np.kron(rho_half_half(dim), rho_half_half(dim))
        top = build_tracial_operator(OperatorBackedFunctional(x0))
        # the pairing determines the operator uniquely at fixed truncation
        assert np.linalg.norm(top.x_op - x0) <= 1e-9

    def test_pure_state_unit_diagonal(self):
        dim = 4
        top = build_tracial_operator(PureStateFunctional(_e(dim, 0)))
        p = basis_proj(dim, 0)
        assert kron_trace(p, p, top.x_op) == pytest.approx(1.0, abs=1e-10)

    def test_entangled_vector_expectation(self):
        # <M xi, xi> = 1/2 for xi = (e1 (x) e2 + e2 (x) e1)/sqrt(2)
        dim = 4
        top = build_tracial_operator(PureStateFunctional(_e(dim, 0)))
        xi = (np.kron(_e(dim, 0), _e(dim, 1)) + np.kron(_e(dim, 1), _e(dim, 0))) / np.sqrt(2)
        assert np.vdot(xi, top.x_op @ xi) == pytest.approx(0.5, abs=1e-12)


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
        d = _fixture(kind, dim, rng)
        dec = hermitian_form_decomposition(d)
        if kind == "random_form":
            assert len(dec.signature) == dim * dim  # full rank
        assert _rel(build_tracial_operator(d).x_op, dec.pairing_operator()) <= 1e-12

    @pytest.mark.parametrize("dim", [3, 5])
    def test_matches_family_sum_with_dropped_eigenvalues(self, dim, rng):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        d = PureStateFunctional(psi / np.linalg.norm(psi))
        dec = hermitian_form_decomposition(d)
        assert len(dec.signature) < dim * dim
        assert _rel(build_tracial_operator(d).x_op, dec.pairing_operator()) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_swap_symmetrised_trace_pairing_operator(self, kind, dim, rng):
        d = _fixture(kind, dim, rng)
        x = extract_ils(d).x_op
        m = build_tracial_operator(d).x_op
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
                build_tracial_operator(d)
        else:
            top = build_tracial_operator(d)
            assert _rel(top.x_op, (x + _swap_adjoint(x, dim)) / 2) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_building_and_reading_m_runs_no_eigh(self, kind, rng, monkeypatch):
        dim = 4
        d = _fixture(kind, dim, rng)

        def refuse(*a, **k):
            raise AssertionError("np.linalg.eigh called")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", refuse)
            top = build_tracial_operator(d)
            assert top.x_op.shape == (dim * dim, dim * dim)
            assert np.isfinite(top.operator_norm)


def _rotated_backends(dim, rng):
    """One valid functional per backend, none aligned with the standard
    basis: a Haar-rotated valid X, a random pure state, a random Hermitian
    Gram matrix and a class operator with a Haar-rotated schedule."""
    backends = _random_backends(dim, rng)
    uu = np.kron(*[haar_unitary(dim, rng)] * 2)
    backends["operator"] = OperatorBackedFunctional(uu @ random_valid_pairing_operator(dim, rng) @ uu.conj().T)
    return backends


def _definitional_pairing(d, dim):
    """``P[(a,b), (c,e)] = D(E_ab, E_ce)`` with every matrix unit expanded
    over rank-one polarization projections and D read off ``d.evaluate``:
    ``E_aa = p(e_a)`` and, for a != b,
    ``E_ab = (p(u+) - p(u-))/2 + i (p(v+) - p(v-))/2`` with
    ``u+- = (e_a +- e_b)/sqrt(2)`` and ``v+- = (e_a +- i e_b)/sqrt(2)``."""
    eye = np.eye(dim, dtype=complex)
    projections, index = [], {}

    def proj(v):
        m = np.outer(v, v.conj())
        key = (m.round(12) + 0.0).tobytes()  # v and its phase multiples share one projection
        if key not in index:
            index[key] = len(projections)
            projections.append(Projection(m, 1))
        return index[key]

    coeffs = np.zeros((dim * dim, 2 * dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            if a == b:
                terms = [(1.0, eye[a])]
            else:
                terms = [
                    (sign * w, (eye[a] + sign * phase * eye[b]) / np.sqrt(2))
                    for w, phase in ((0.5, 1.0), (0.5j, 1.0j))
                    for sign in (1.0, -1.0)
                ]
            for w, v in terms:
                coeffs[a * dim + b, proj(v)] += w
    coeffs = coeffs[:, : len(projections)]
    table = np.array([[d.evaluate(p, q) for q in projections] for p in projections])
    return coeffs @ table @ coeffs.T


class TestOnePairingMatrix:
    """Every representation holds the same pairing matrix P, and X, M and G
    are its index transposes."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_representations_share_the_definitional_pairing(self, kind, dim, rng):
        d = _rotated_backends(dim, rng)[kind]
        ref = _definitional_pairing(d, dim)
        scale = max(1.0, np.abs(ref).max())
        x = extract_ils(d)
        assert np.abs(x.pairing - ref).max() <= 1e-12 * scale
        top = build_tracial_operator(d)
        assert np.abs(top.pairing - x.pairing).max() <= 1e-12 * scale
        # X[(b,e), (a,c)] = M[(b,e), (a,c)] = P[(a,b), (c,e)] and G[(a,b), (c,e)] = P[(a,b), (e,c)]
        for holder, op in ((x, x.x_op), (top, top.x_op)):
            p4 = holder.pairing.reshape(dim, dim, dim, dim)
            assert np.array_equal(op, np.einsum("abce->beac", p4).reshape(dim * dim, dim * dim))
            assert np.array_equal(pairing_realignment(op), holder.pairing)
        p4 = top.pairing.reshape(dim, dim, dim, dim)
        assert np.array_equal(swap_right(top.pairing), np.einsum("abce->abec", p4).reshape(dim * dim, dim * dim))
        assert np.array_equal(swap_right(swap_right(top.pairing)), top.pairing)

    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_one_class_holds_the_pairing_matrix(self, kind, dim):
        """The extracted X, the bounded M, X wrapped again as it is and
        through the dense wrapper are all operator-backed functionals that
        evaluate d again, with norms computed only when read; X rebuilt
        from its own matrix still meets the three conditions."""
        d = backend_fixtures(dim)[kind]
        x = extract_ils(d)
        rewrapped = OperatorBackedFunctional(x.x_op)
        assert verify_ils_conditions(rewrapped).passed
        holders = (x, build_tracial_operator(d), rewrapped, ils_operator_from_matrix(x.x_op))
        pq = next(projection_blocks(dim, 40, np.random.default_rng(dim)))
        p, q = pq[0::2], pq[1::2]
        ref = d.pair_values(p, q)
        for holder in holders:
            assert type(holder) is OperatorBackedFunctional and holder.dim == dim
            assert np.abs(holder.pair_values(p, q) - ref).max() <= 1e-12
            assert not {"trace_norm", "operator_norm"} & set(vars(holder))
            assert holder.trace_norm >= holder.operator_norm > 0
            assert {"trace_norm", "operator_norm"} <= set(vars(holder))

    def test_holds_one_quartic_array(self):
        """Only P is held after the build; G is read off it, not stored."""
        dim = 16
        d = PureStateFunctional(_e(dim, 0))
        tracemalloc.start()
        try:
            top = build_tracial_operator(d)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        quartic = dim**4 * np.dtype(complex).itemsize
        assert top.pairing.nbytes == quartic
        assert held < 2 * quartic


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
        x = extract_ils(PureStateFunctional(psi))
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

    @pytest.mark.parametrize("dim", [3, 8, 16])
    def test_projector_is_basis_free(self, dim, rng):
        """sum_i |psi (x) psi_i><psi (x) psi_i| over the Householder basis
        equals the basis-free |psi><psi| (x) I of pure_state_projector."""
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = psi / np.linalg.norm(psi)
        basis = householder_basis(psi)
        ref = np.zeros((dim * dim, dim * dim), dtype=complex)
        for i in range(dim):
            col = np.kron(psi, basis[:, i])
            ref += np.outer(col, col.conj())
        assert np.abs(pure_state_projector(psi) - ref).max() <= 1e-14


class TestReconstructor:
    def test_zero_oracle(self):
        for dim in (2, 3):
            out = reconstruct_from_product_diagonal(lambda a, b: 0.0, dim)
            assert np.linalg.norm(out) <= 1e-12

    def test_identity(self):
        dim = 3
        out = operator_from_pairing(
            reconstruct_from_product_diagonal(product_diagonal_of(OperatorBackedFunctional(np.eye(dim * dim))), dim)
        )
        assert np.linalg.norm(out - np.eye(dim * dim)) <= 1e-10

    def test_random_operators(self, rng):
        for dim in (2, 3):
            m0 = rng.standard_normal((dim * dim, dim * dim)) + 1j * rng.standard_normal(
                (dim * dim, dim * dim)
            )
            f = product_diagonal_of(OperatorBackedFunctional(m0))
            out = operator_from_pairing(reconstruct_from_product_diagonal(f, dim))
            assert np.linalg.norm(out - m0) <= 1e-9 * max(1.0, np.linalg.norm(m0))

    def test_uniqueness_of_tracial_operator(self):
        # two representatives satisfying the pairing identity must agree:
        # reconstruct the difference from its product diagonal
        dim = 3
        d = backend_fixtures(dim)["pure_state"]
        m1 = build_tracial_operator(d).x_op
        m2 = extract_ils(d).x_op
        diff = m1 - m2
        recon = reconstruct_from_product_diagonal(product_diagonal_of(OperatorBackedFunctional(diff)), dim)
        assert np.linalg.norm(recon) <= 1e-8
        assert np.linalg.norm(m1 - m2) <= 1e-8


class TestDoubleSum:
    def test_identity_pair_rank_one_blocks(self):
        dim = 3
        d = backend_fixtures(dim)["operator"]
        top = build_tracial_operator(d)
        one = identity_projection(dim)
        assert evaluate_double_sum(top, one, one, 1) == pytest.approx(1.0, abs=1e-10)

    def test_single_block_equals_direct(self, rng):
        dim = 4
        d = backend_fixtures(dim)["pure_state"]
        top = build_tracial_operator(d)
        p = random_projection(dim, 3, rng)
        q = random_projection(dim, 2, rng)
        direct = kron_trace(p, q, top.x_op)
        assert evaluate_double_sum(top, p, q, dim) == pytest.approx(direct, abs=1e-12)

    def test_block_rank_invariance(self, rng):
        dim = 5
        d = backend_fixtures(dim)["operator"]
        top = build_tracial_operator(d)
        p = random_projection(dim, 3, rng)
        q = random_projection(dim, 2, rng)
        v1 = evaluate_double_sum(top, p, q, 1)
        v2 = evaluate_double_sum(top, p, q, 2)
        assert abs(v1 - v2) <= 1e-10
        assert abs(v1 - kron_trace(p, q, top.x_op)) <= 1e-10

    def test_table_matches_per_block_route_exactly(self, rng):
        # Reference: each (pair, block rank) decomposed and paired on its own,
        # as orthogonal_decompose does, in a block pair table with P.
        dim = 6
        top = build_tracial_operator(backend_fixtures(dim)["operator"])
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
                    rows_p = np.stack([b.matrix.reshape(-1) for b in pb])
                    rows_q = np.stack([b.matrix.reshape(-1) for b in qb])
                    ref = complex(np.sum((rows_p @ top.pairing) @ rows_q.T))
                    oracle = sum(trace_pair(kron(a.matrix, b.matrix), top.x_op) for a in pb for b in qb)
                    assert abs(ref - oracle) <= 1e-12 * max(1.0, abs(oracle))
                assert table[s][k] == ref
                assert evaluate_double_sum(top, p, q, br) == ref

    def test_sampled_stack_builds_no_projection(self, rng, monkeypatch):
        """A block of projection_blocks is validated once, when drawn;
        the table reads each rank off its own eigh and constructs no
        Projection."""
        dim = 4
        top = build_tracial_operator(backend_fixtures(dim)["operator"])
        pq = next(projection_blocks(dim, 8, rng, min_rank=1))
        p, q = pq[0::2], pq[1::2]

        def refuse(self):
            raise AssertionError("Projection constructed")

        monkeypatch.setattr(Projection, "__post_init__", refuse)
        table = np.asarray(double_sum_table(top, p, q, [1, 2, dim]))
        ref = np.array([trace_pair(kron(a, b), top.x_op) for a, b in zip(p, q)])
        assert np.abs(table - ref[:, None]).max() <= 1e-10

    def test_rejects_block_rank_below_one(self, rng):
        top = build_tracial_operator(backend_fixtures(3)["operator"])
        p = random_projection(3, 2, rng)
        with pytest.raises(ValueError, match=">= 1"):
            double_sum_table(top, [p], [p], [1, 0])


class TestPureStateDichotomySignature:
    def test_trace_norm_grows_operator_norm_stays(self):
        # the desk-scale signature: tracially bounded but not tensor bounded
        for dim in range(2, 9):
            d = PureStateFunctional(_e(dim, 0))
            x = extract_ils(d, allow_dim_two=True)
            assert x.trace_norm == pytest.approx(dim, abs=1e-8)
            assert operator_norm(pure_state_m(_e(dim, 0))) <= 1 + 1e-9


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
