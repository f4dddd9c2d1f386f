from __future__ import annotations

import numpy as np
import pytest

from dfrep import (
    DimensionExclusionError,
    FormBackedFunctional,
    OperatorBackedFunctional,
    Projection,
    PureStateFunctional,
    check_axioms,
    gram_matrix,
    kron_trace,
    random_projection,
    rank_one_proj,
)
from reference import (
    ElementaryTensorSum,
    beta,
    beta_of_product_projection,
    bilinear_refined,
    extend_to_bilinear,
    identity_projection,
    sesquilinear_q,
)
from conftest import backend_fixtures, basis_proj, rho_half_half


def _cmat(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _e(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


class TestEvaluate:
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_normalization_every_backend(self, kind):
        d = backend_fixtures(4)[kind]
        one = identity_projection(4)
        assert d.evaluate(one, one) == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_diagonal(self):
        d = PureStateFunctional(_e(3, 0))
        p = rank_one_proj(_e(3, 0))
        assert d.evaluate(p, p) == pytest.approx(1.0)

    def test_pure_state_half(self):
        # hand evaluation: p psi = (e1+e2)/2, q psi = e1, overlap 1/2
        d = PureStateFunctional(_e(3, 0))
        p = rank_one_proj((_e(3, 0) + _e(3, 1)) / np.sqrt(2))
        q = basis_proj(3, 0)
        assert d.evaluate(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self):
        d = PureStateFunctional(_e(3, 0))
        with pytest.raises(ValueError):
            d.evaluate(identity_projection(4), identity_projection(4))

    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_conjugate_symmetry(self, kind, rng):
        d = backend_fixtures(4)[kind]
        for _ in range(30):
            p = random_projection(4, int(rng.integers(0, 5)), rng)
            q = random_projection(4, int(rng.integers(0, 5)), rng)
            assert abs(d.evaluate(p, q) - np.conj(d.evaluate(q, p))) <= 1e-9


class TestCheckAxioms:
    def test_product_state_operator(self):
        rho = rho_half_half(3)
        d = OperatorBackedFunctional(np.kron(rho, rho))
        report = check_axioms(d, samples=100, seed=1)
        assert report.passed
        assert report.hermiticity_residual <= 1e-10
        assert report.normalization_residual <= 1e-10
        assert report.orthoadditivity_residual <= 1e-10
        assert report.positivity_min >= -1e-10
        # oracle: d(p, q) = tr(p rho) tr(q rho)
        p = basis_proj(3, 0)
        assert d.evaluate(p, p) == pytest.approx(0.25, abs=1e-12)

    def test_pure_state_backend(self):
        report = check_axioms(PureStateFunctional(_e(4, 0)), samples=100, seed=2)
        assert report.passed
        assert report.hermiticity_residual <= 1e-10
        assert report.positivity_min >= -1e-10

    def test_corrupted_trace_fails_normalization(self):
        rho = rho_half_half(3)
        d = OperatorBackedFunctional(2.0 * np.kron(rho, rho))
        report = check_axioms(d, samples=50, seed=3)
        assert report.normalization_residual == pytest.approx(1.0, abs=1e-12)
        assert not report.normalization_ok
        assert not report.passed

    def test_works_at_dimension_two(self):
        report = check_axioms(PureStateFunctional(_e(2, 0)), samples=50, seed=4)
        assert report.passed


class TestExtension:
    def test_normalization(self):
        d = backend_fixtures(3)["operator"]
        form = extend_to_bilinear(d)
        assert form(np.eye(3), np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_restriction_equals_functional(self, kind, rng):
        d = backend_fixtures(4)[kind]
        form = extend_to_bilinear(d)
        for _ in range(100):
            p = random_projection(4, int(rng.integers(0, 5)), rng)
            q = random_projection(4, int(rng.integers(0, 5)), rng)
            assert abs(form(p.matrix, q.matrix) - d.evaluate(p, q)) <= 1e-9

    def test_operator_backend_kron_trace_oracle(self, rng):
        rho = rho_half_half(3)
        x0 = np.kron(rho, rho)
        form = extend_to_bilinear(OperatorBackedFunctional(x0))
        for _ in range(20):
            x, y = _cmat(rng, 3), _cmat(rng, 3)
            assert abs(form(x, y) - kron_trace(x, y, x0)) <= 1e-9

    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_spectral_route_matches_canonical(self, kind, rng):
        d = backend_fixtures(4)[kind]
        form = extend_to_bilinear(d)
        for _ in range(10):
            x, y = _cmat(rng, 4), _cmat(rng, 4)
            canonical = d.bilinear(x, y)
            assert abs(form(x, y) - canonical) <= 1e-9 * max(1.0, abs(canonical))

    def test_decomposition_independence(self, rng):
        # degenerate spectra exercise the merged-projection refinements
        d = backend_fixtures(4)["operator"]
        form = extend_to_bilinear(d)
        x = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        y = np.diag([2.0, 2.0, 2.0, -1.0]).astype(complex)
        base = form(x, y)
        for _ in range(25):
            assert abs(bilinear_refined(d, x, y, rng) - base) <= 1e-8

    def test_dimension_two_excluded(self):
        with pytest.raises(DimensionExclusionError):
            extend_to_bilinear(PureStateFunctional(_e(2, 0)))


class TestSesquilinearQ:
    def test_unit(self):
        d = backend_fixtures(3)["operator"]
        form = extend_to_bilinear(d)
        assert sesquilinear_q(form, np.eye(3), np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    def test_projection_diagonal_nonnegative(self, rng):
        d = backend_fixtures(4)["operator"]
        form = extend_to_bilinear(d)
        for _ in range(20):
            p = random_projection(4, int(rng.integers(1, 5)), rng).matrix
            v = sesquilinear_q(form, p, p)
            assert abs(v.imag) <= 1e-9
            assert v.real >= -1e-9

    def test_pure_state_is_squared_norm(self, rng):
        psi = _e(4, 0)
        form = extend_to_bilinear(PureStateFunctional(psi))
        for _ in range(20):
            x = _cmat(rng, 4)
            v = sesquilinear_q(form, x, x)
            assert v.real == pytest.approx(float(np.linalg.norm(x @ psi) ** 2), abs=1e-9)
            assert abs(v.imag) <= 1e-9


class TestBeta:
    def test_matches_functional_on_projection_tensors(self, rng):
        d = backend_fixtures(4)["operator"]
        for _ in range(20):
            p = random_projection(4, int(rng.integers(0, 5)), rng)
            q = random_projection(4, int(rng.integers(0, 5)), rng)
            s = ElementaryTensorSum(((p.matrix, q.matrix),))
            assert abs(beta(d, s) - d.evaluate(p, q)) <= 1e-10

    def test_zero_sum(self):
        d = backend_fixtures(3)["operator"]
        z = np.zeros((3, 3), dtype=complex)
        assert beta(d, ElementaryTensorSum(((z, z),))) == 0.0

    def test_pure_state_entangled_projector(self):
        # hand evaluation of beta(p_xi), xi = (e1 (x) e2 + e2 (x) e1)/sqrt(2)
        dim = 4
        d = PureStateFunctional(_e(dim, 0))
        val = beta_of_product_projection(
            d, [(_e(dim, 0), _e(dim, 1)), (_e(dim, 1), _e(dim, 0))]
        )
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_regrouping_invariance(self, rng):
        d = backend_fixtures(4)["operator"]
        a, b, c = _cmat(rng, 4), _cmat(rng, 4), _cmat(rng, 4)
        # (a + c) (x) b  ==  a (x) b + c (x) b as tensor sums
        s1 = ElementaryTensorSum(((a + c, b),))
        s2 = ElementaryTensorSum(((a, b), (c, b)))
        assert np.linalg.norm(s1.materialize() - s2.materialize()) <= 1e-9
        assert abs(beta(d, s1) - beta(d, s2)) <= 1e-10

    def test_random_regroupings(self, rng):
        # randomly split/permute terms of the same tensor element
        d = backend_fixtures(4)["operator"]
        base_terms = [(_cmat(rng, 4), _cmat(rng, 4)) for _ in range(3)]
        s = ElementaryTensorSum(tuple(base_terms))
        reference = beta(d, s)
        for _ in range(20):
            regrouped = []
            for a, b in base_terms:
                split = _cmat(rng, 4)
                regrouped.append((a - split, b))
                regrouped.append((split, b))
            order = rng.permutation(len(regrouped))
            s2 = ElementaryTensorSum(tuple(regrouped[i] for i in order))
            assert np.linalg.norm(s2.materialize() - s.materialize()) <= 1e-9
            assert abs(beta(d, s2) - reference) <= 1e-9

    def test_product_vector_projector_identity(self, rng):
        # p_{alpha (x) gamma} = p_alpha (x) p_gamma
        d = backend_fixtures(4)["pure_state"]
        for _ in range(10):
            alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            gamma = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            alpha /= np.linalg.norm(alpha)
            gamma /= np.linalg.norm(gamma)
            via_projs = beta(
                d,
                ElementaryTensorSum(
                    ((rank_one_proj(alpha).matrix, rank_one_proj(gamma).matrix),)
                ),
            )
            via_vector = beta_of_product_projection(d, [(alpha, gamma)])
            assert abs(via_projs - via_vector) <= 1e-10

    def test_dimension_exclusion(self):
        d = PureStateFunctional(_e(2, 0))
        with pytest.raises(DimensionExclusionError):
            beta(d, ElementaryTensorSum(((np.eye(2, dtype=complex), np.eye(2, dtype=complex)),)))


class TestFiniteAdditivity:
    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_countable_additivity_truncated(self, kind, rng):
        dim = 5
        d = backend_fixtures(dim)[kind]
        q = random_projection(dim, 2, rng)
        parts = [basis_proj(dim, i) for i in range(dim)]
        for n in range(1, dim + 1):
            total = Projection(sum(p.matrix for p in parts[:n]), n)
            split = sum(d.evaluate(p, q) for p in parts[:n])
            assert abs(d.evaluate(total, q) - split) <= 1e-9


class TestFormBacked:
    def test_gram_round_trip_evaluation(self, rng):
        dim = 4
        base = backend_fixtures(dim)["operator"]
        form_backed = FormBackedFunctional(gram_matrix(base))
        for _ in range(30):
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            q = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            assert abs(form_backed.evaluate(p, q) - base.evaluate(p, q)) <= 1e-9

    def test_non_hermitian_gram_rejected(self, rng):
        g = _cmat(rng, 9)
        with pytest.raises(ValueError):
            FormBackedFunctional(g)


@pytest.mark.parametrize("seed", range(20))
def test_hermiticity_property_operator_backend(seed):
    rng = np.random.default_rng(seed)
    from conftest import random_valid_pairing_operator

    d = OperatorBackedFunctional(random_valid_pairing_operator(3, rng))
    p = random_projection(3, int(rng.integers(0, 4)), rng)
    q = random_projection(3, int(rng.integers(0, 4)), rng)
    assert abs(d.evaluate(p, q) - np.conj(d.evaluate(q, p))) <= 1e-9


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
