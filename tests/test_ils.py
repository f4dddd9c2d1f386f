from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfrep import (
    DimensionExclusionError,
    OperatorBackedFunctional,
    Projection,
    PureStateFunctional,
    extract_ils,
    random_projection,
    swap_operator,
    verify_ils_conditions,
)
from dfrep.ils import (
    bilinear_unit_table,
    ils_operator_from_matrix,
)
from reference import evaluate_ils, functional_to_operator, identity_projection, zero_projection
from conftest import (
    backend_fixtures,
    basis_proj,
    random_valid_pairing_operator,
    rho_half_half,
)


def _e(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _skew_corruption(dim, scale=0.05):
    """Zero-trace skew-Hermitian perturbation: breaks only the swap-adjoint
    condition (Re tr((p (x) p) eta) = 0 exactly for skew-Hermitian eta)."""
    n = dim * dim
    u = np.zeros(n)
    v = np.zeros(n)
    u[0 * dim + 1] = 1.0  # e1 (x) e2
    v[0 * dim + 2] = 1.0  # e1 (x) e3
    eta = scale * (np.outer(u, v) - np.outer(v, u))
    return eta.astype(complex)


def _negative_diag_corruption(x0, dim, scale=0.2):
    """Trace-preserving, swap-adjoint-preserving mixture that makes one
    basis diagonal negative: fails only positivity."""
    q = basis_proj(dim, dim - 1).matrix  # rho_half_half puts no weight here
    return (1 + scale) * x0 - scale * np.kron(q, q)


class TestUnitTable:
    def test_matches_backend_bilinear(self, rng):
        dim = 3
        d = backend_fixtures(dim)["operator"]
        units = bilinear_unit_table(d)
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    for e in range(dim):
                        eab = np.outer(_e(dim, a), _e(dim, b).conj())
                        ece = np.outer(_e(dim, c), _e(dim, e).conj())
                        assert abs(units[a * dim + b, c * dim + e] - d.bilinear(eab, ece)) <= 1e-10


class TestExtract:
    def test_round_trip_product_state(self):
        rho = rho_half_half(3)
        x0 = np.kron(rho, rho)
        x = extract_ils(OperatorBackedFunctional(x0))
        assert np.abs(x.x_op - x0).max() <= 1e-9

    def test_round_trip_random_valid(self, rng):
        for dim in (3, 4):
            x0 = random_valid_pairing_operator(dim, rng)
            x = extract_ils(OperatorBackedFunctional(x0))
            assert np.abs(x.x_op - x0).max() <= 1e-9

    def test_pure_state_explicit_operator(self):
        # hand-solved matrix elements: X = sum_i |e1 (x) e_i><e_i (x) e1|
        for dim in (3, 5):
            x = extract_ils(PureStateFunctional(_e(dim, 0)))
            expect = np.zeros((dim * dim, dim * dim), dtype=complex)
            for i in range(dim):
                u = np.kron(_e(dim, 0), _e(dim, i))
                v = np.kron(_e(dim, i), _e(dim, 0))
                expect += np.outer(u, v.conj())
            assert np.linalg.norm(x.x_op - expect) <= 1e-9
            assert x.trace_norm == pytest.approx(dim, abs=1e-8)

    def test_diagnostics_fields(self):
        rho = rho_half_half(3)
        x = extract_ils(OperatorBackedFunctional(np.kron(rho, rho)))
        conds = verify_ils_conditions(x, samples=100)
        assert np.trace(x.x_op) == pytest.approx(1.0, abs=1e-10)
        assert conds.swap_adjoint_residual <= 1e-10
        assert conds.positivity_min >= -1e-10
        assert x.trace_norm == pytest.approx(1.0, abs=1e-10)

    def test_dimension_two_excluded_by_default(self):
        d = PureStateFunctional(_e(2, 0))
        with pytest.raises(DimensionExclusionError):
            extract_ils(d)
        x = extract_ils(d, allow_dim_two=True)
        assert x.trace_norm == pytest.approx(2.0, abs=1e-10)

    def test_dimension_comes_from_the_functional(self):
        d = PureStateFunctional(_e(3, 0))
        x = extract_ils(d)
        assert x.dim == 3 and x.pairing.shape == (9, 9)
        with pytest.raises(TypeError):
            extract_ils(d, 4)  # no dimension argument, and allow_dim_two is keyword-only


class TestEvaluateIls:
    def test_identity_pair_gives_trace(self):
        d = backend_fixtures(3)["operator"]
        x = extract_ils(d)
        one = identity_projection(3)
        assert evaluate_ils(x, one, one) == pytest.approx(np.trace(x.x_op), abs=1e-12)
        assert evaluate_ils(x, one, one) == pytest.approx(1.0, abs=1e-10)

    def test_zero_projection(self):
        d = backend_fixtures(3)["operator"]
        x = extract_ils(d)
        assert evaluate_ils(x, zero_projection(3), identity_projection(3)) == 0.0

    @pytest.mark.parametrize("kind", ["operator", "pure_state", "form", "class_operator"])
    def test_matches_backend_on_sampled_pairs(self, kind, rng):
        d = backend_fixtures(4)[kind]
        x = extract_ils(d)
        for _ in range(100):
            p = random_projection(4, int(rng.integers(0, 5)), rng)
            q = random_projection(4, int(rng.integers(0, 5)), rng)
            assert abs(evaluate_ils(x, p, q) - d.evaluate(p, q)) <= 1e-9

    def test_orthoadditivity_exact(self, rng):
        d = backend_fixtures(4)["operator"]
        x = extract_ils(d)
        p1 = basis_proj(4, 0)
        p2 = basis_proj(4, 2)
        p12 = Projection(p1.matrix + p2.matrix, 2)
        q = random_projection(4, 2, rng)
        lhs = evaluate_ils(x, p12, q)
        rhs = evaluate_ils(x, p1, q) + evaluate_ils(x, p2, q)
        assert abs(lhs - rhs) <= 1e-12


class TestConditions:
    def test_valid_operator_passes(self, rng):
        x0 = random_valid_pairing_operator(3, rng)
        report = verify_ils_conditions(ils_operator_from_matrix(x0), samples=100, seed=1)
        assert report.passed
        assert report.swap_adjoint_residual <= 1e-8
        assert report.normalization_residual <= 1e-8
        assert report.positivity_min >= -1e-9

    def test_imaginary_scaling_fails_two_conditions(self):
        rho = rho_half_half(3)
        x0 = 1j * np.kron(rho, rho)
        report = verify_ils_conditions(ils_operator_from_matrix(x0), samples=50, seed=2)
        assert not report.normalization_ok
        assert not report.hermiticity_ok

    def test_positivity_value_at_basis_projection(self):
        rho = rho_half_half(3)
        x = ils_operator_from_matrix(np.kron(rho, rho))
        p = basis_proj(3, 0)
        # oracle: tr((p (x) p) rho (x) rho) = tr(p rho)^2 = 1/4
        assert evaluate_ils(x, p, p) == pytest.approx(0.25, abs=1e-12)
        report = verify_ils_conditions(x, samples=100, seed=3)
        assert report.positivity_min >= -1e-9

    def test_corruptions_fail_exactly_matching_condition(self, rng):
        dim = 3
        x0 = np.kron(rho_half_half(dim), rho_half_half(dim))

        scaled = ils_operator_from_matrix(2.0 * x0)
        r = verify_ils_conditions(scaled, samples=100, seed=4)
        assert (r.hermiticity_ok, r.positivity_ok, r.normalization_ok) == (True, True, False)

        skew = ils_operator_from_matrix(x0 + _skew_corruption(dim))
        r = verify_ils_conditions(skew, samples=100, seed=4)
        assert (r.hermiticity_ok, r.positivity_ok, r.normalization_ok) == (False, True, True)
        assert r.swap_adjoint_residual > 1e-3

        negdiag = ils_operator_from_matrix(_negative_diag_corruption(x0, dim))
        r = verify_ils_conditions(negdiag, samples=100, seed=4)
        assert (r.hermiticity_ok, r.positivity_ok, r.normalization_ok) == (True, False, True)

    def test_hermiticity_axiom_iff_swap_adjoint(self, rng):
        # clean fixtures sit below 1e-8; the corrupted one jumps above 1e-3
        dim = 3
        for kind, d in backend_fixtures(dim).items():
            x = extract_ils(d)
            assert verify_ils_conditions(x).swap_adjoint_residual <= 1e-8, kind
        bad = ils_operator_from_matrix(
            np.kron(rho_half_half(dim), rho_half_half(dim)) + _skew_corruption(dim)
        )
        assert verify_ils_conditions(bad).swap_adjoint_residual > 1e-3


class TestOperatorToFunctional:
    """An operator on H (x) H becomes a decoherence functional as
    ``OperatorBackedFunctional(x)``, and ``verify_ils_conditions`` says
    whether it is a valid one."""

    def test_valid_round_trip(self, rng):
        x0 = random_valid_pairing_operator(4, rng)
        d = OperatorBackedFunctional(x0)
        assert verify_ils_conditions(d).passed
        x = extract_ils(d)
        assert np.abs(x.x_op - x0).max() <= 1e-9

    def test_axioms_pass_for_valid_operator(self, rng):
        from dfrep import check_axioms

        d = OperatorBackedFunctional(random_valid_pairing_operator(3, rng))
        assert verify_ils_conditions(d).passed
        assert check_axioms(d, samples=100, seed=6).passed

    def test_zero_trace_fails_normalization(self):
        r = verify_ils_conditions(OperatorBackedFunctional(np.zeros((9, 9), dtype=complex)))
        assert not r.normalization_ok
        assert not r.passed

    def test_skew_fails_hermiticity_only(self):
        x0 = np.kron(rho_half_half(3), rho_half_half(3)) + _skew_corruption(3)
        r = verify_ils_conditions(OperatorBackedFunctional(x0))
        assert (r.hermiticity_ok, r.positivity_ok, r.normalization_ok) == (False, True, True)


class TestFunctionalToOperator:
    def test_trace_functional(self):
        coeffs = np.eye(9, dtype=complex)  # phi(E_ab) = tr(E_ab) = delta_ab
        assert_allclose(functional_to_operator(coeffs), np.eye(9))

    def test_entry_reader(self):
        coeffs = np.zeros((4, 4), dtype=complex)
        coeffs[0, 0] = 1.0  # phi(z) = z_11
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert_allclose(functional_to_operator(coeffs), expect)

    def test_random_pairing_oracle(self, rng):
        n = 9
        t0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs = np.empty((n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                eab = np.zeros((n, n), dtype=complex)
                eab[a, b] = 1.0
                coeffs[a, b] = np.trace(eab @ t0)
        t = functional_to_operator(coeffs)
        for _ in range(50):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            phi_direct = np.trace(z @ t0)
            assert abs(np.trace(z @ t) - phi_direct) <= 1e-10 * max(1.0, abs(phi_direct))


class TestSwapIdentity:
    def test_swap_adjoint_equivalent_form(self, rng):
        # tr((p (x) q) X) == tr((q (x) p) X^dag) for valid X: the swap
        # condition is the finite-dimensional form of the Hermiticity axiom.
        # With W the swap unitary, tr((q (x) p) X^dag) = tr((p (x) q) W X^dag W),
        # so the pointwise identity is exactly X = W X^dag W.
        dim = 3
        x0 = random_valid_pairing_operator(dim, rng)
        w = swap_operator(dim)
        assert np.linalg.norm(x0 - w @ x0.conj().T @ w) <= 1e-10
        for _ in range(10):
            p = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
            q = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
            lhs = np.trace(np.kron(p.matrix, q.matrix) @ x0)
            rhs = np.trace(np.kron(q.matrix, p.matrix) @ x0.conj().T)
            assert abs(lhs - rhs) <= 1e-10


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
