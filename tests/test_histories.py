from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfrep import (
    ClassOperatorModel,
    OperatorBackedFunctional,
    PureStateFunctional,
    check_axioms,
    consistency_report,
    random_projection,
)
from dfrep.histories import ClassOperatorFunctional
from dfrep.ils import polarization_atoms
from dfrep.linalg import projection_blocks, rank_one_matrices
from dfrep.tolerances import MODEL_TOL as _MODEL_TOL
from reference import (
    HomogeneousHistory,
    class_operator,
    haar_unitary,
    heisenberg,
    history_pair_value,
    identity_projection,
    iter_homogeneous_histories,
    orthogonal_decompose,
    zero_projection,
)
from conftest import basis_proj, rho_half_half, trivial_model


def _basis_schedule(dim):
    return tuple(basis_proj(dim, i) for i in range(dim))


def _spectral_exp(h, t):
    # independent oracle: exponential through the eigendecomposition
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T


class TestClassOperator:
    def test_identity_history_exact(self):
        model = trivial_model(3)
        h = HomogeneousHistory((None,))
        assert np.array_equal(class_operator(model, h), np.eye(3))

    def test_trivial_dynamics_product(self):
        dim = 3
        sched = _basis_schedule(dim)
        model = ClassOperatorModel(
            dim=dim,
            rho=rho_half_half(dim),
            hamiltonian=np.zeros((dim, dim)),
            times=(0.0, 1.0),
            schedules=(sched, sched),
        )
        c = class_operator(model, HomogeneousHistory((0, 1)))
        assert_allclose(c, sched[1].matrix @ sched[0].matrix, atol=1e-12)

    def test_heisenberg_conjugation_oracle(self, rng):
        dim = 3
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (h + h.conj().T) / 2
        sched = _basis_schedule(dim)
        model = ClassOperatorModel(
            dim=dim,
            rho=rho_half_half(dim),
            hamiltonian=h,
            times=(0.4, 1.7),
            schedules=(sched, sched),
        )
        c = class_operator(model, HomogeneousHistory((2, 0)))
        u1, u2 = _spectral_exp(h, 0.4), _spectral_exp(h, 1.7)
        expect = (u2.conj().T @ sched[0].matrix @ u2) @ (
            u1.conj().T @ sched[2].matrix @ u1
        )
        assert np.linalg.norm(c - expect) <= 1e-9

    def test_choice_out_of_range(self):
        model = trivial_model(3)
        with pytest.raises(IndexError):
            class_operator(model, HomogeneousHistory((5,)))


class TestStandardDf:
    def test_normalization(self):
        d = ClassOperatorFunctional(trivial_model(3))
        one = identity_projection(3)
        assert d.evaluate(one, one) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_dynamics_diagonal(self, rng):
        model = trivial_model(4)
        d = ClassOperatorFunctional(model)
        p = random_projection(4, 2, rng)
        # d(p, p) = tr(p rho p) = tr(p rho)
        assert d.evaluate(p, p) == pytest.approx(
            complex(np.trace(p.matrix @ model.rho)), abs=1e-12
        )

    def test_pure_state_orthogonal_events(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        d = ClassOperatorFunctional(trivial_model(3, rho=rho))
        # direct trace oracle: tr(E11 rho E22) = 0
        assert d.evaluate(basis_proj(3, 0), basis_proj(3, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_passes_axiom_checks(self, rng):
        h = rng.standard_normal((3, 3))
        h = (h + h.T) / 2
        model = ClassOperatorModel(
            dim=3,
            rho=rho_half_half(3),
            hamiltonian=h,
            times=(0.9,),
            schedules=(_basis_schedule(3),),
        )
        report = check_axioms(ClassOperatorFunctional(model), samples=200, seed=5)
        assert report.passed

    def test_history_pair_values_match_single_time(self):
        model = trivial_model(3)
        d = ClassOperatorFunctional(model)
        for i in range(3):
            for j in range(3):
                via_history = history_pair_value(
                    model, HomogeneousHistory((i,)), HomogeneousHistory((j,))
                )
                via_projection = d.evaluate(model.schedules[0][i], model.schedules[0][j])
                assert abs(via_history - via_projection) <= 1e-12

    def test_full_family_diagonal_sums_to_one(self):
        dim = 3
        sched = _basis_schedule(dim)
        model = ClassOperatorModel(
            dim=dim,
            rho=rho_half_half(dim),
            hamiltonian=np.zeros((dim, dim)),
            times=(0.0, 1.0),
            schedules=(sched, sched),
        )
        total = sum(
            history_pair_value(model, h, h).real
            for h in iter_homogeneous_histories(model)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def _random_supports(rng, dim, n):
    """``n`` sparse vectors on two distinct basis indices each."""
    support = np.stack([rng.choice(dim, size=2, replace=False) for _ in range(n)])
    return support, rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))


class TestOneStandardFunctional:
    """The pure state is the single-time class operator with rho = |psi><psi|:
    both evaluate tr(x F F^dag y) through one factored route."""

    def test_one_rank_one_route(self):
        assert PureStateFunctional.rank_one_table_against is ClassOperatorFunctional.rank_one_table_against

    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_pure_state_is_the_class_operator(self, dim, rng):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        pure = PureStateFunctional(psi)
        classop = ClassOperatorFunctional(trivial_model(dim, rho=np.outer(psi, psi.conj())))
        p = next(projection_blocks(dim, 12, rng))
        q = next(projection_blocks(dim, 12, rng))
        atoms, right = polarization_atoms(dim), _random_supports(rng, dim, 9)
        for method in ("pair_table", "pair_values"):
            assert_allclose(getattr(classop, method)(p, q), getattr(pure, method)(p, q), rtol=0, atol=1e-12)
        got = classop.rank_one_table_against(right)(atoms)
        assert_allclose(got, pure.rank_one_table_against(right)(atoms), rtol=0, atol=1e-12)
        for a, b in zip(p, q):
            assert abs(classop.evaluate(a, b) - pure.evaluate(a, b)) <= 1e-12

    def test_rank_deficient_rotated_state_matches_heisenberg(self, rng):
        dim, t = 6, 0.8
        u = haar_unitary(dim, rng)
        rho = u[:, :2] @ np.diag([0.7, 0.3]) @ u[:, :2].conj().T
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        frame = haar_unitary(dim, rng)
        model = ClassOperatorModel(
            dim=dim,
            rho=rho,
            hamiltonian=(h + h.conj().T) / 2,
            times=(t,),
            schedules=(tuple(np.outer(frame[:, i], frame[:, i].conj()) for i in range(dim)),),
        )
        d = ClassOperatorFunctional(model)

        def ref_table(left, right):
            return np.array(
                [[np.trace(heisenberg(model, a, t) @ rho @ heisenberg(model, b, t)) for b in right] for a in left]
            )

        p = next(projection_blocks(dim, 10, rng))
        q = next(projection_blocks(dim, 10, rng))
        assert_allclose(d.pair_table(p, q), ref_table(p, q), rtol=0, atol=1e-12)
        assert_allclose(d.pair_values(p, q), np.diagonal(ref_table(p, q)), rtol=0, atol=1e-12)
        left, right = polarization_atoms(dim), _random_supports(rng, dim, 7)
        ref = ref_table(rank_one_matrices(*left, dim), rank_one_matrices(*right, dim))
        assert_allclose(d.rank_one_table_against(right)(left), ref, rtol=0, atol=1e-12)


def _expm_taylor(a):
    # Reference exponential without any eigendecomposition: scaling and
    # squaring around a 30-term Taylor series.
    squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 1e-300)))) + 1)
    b = a / 2.0**squarings
    out = term = np.eye(len(a), dtype=complex)
    for k in range(1, 31):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _model(h, times=(0.5,)):
    dim = len(h)
    return ClassOperatorModel(
        dim=dim,
        rho=np.eye(dim) / dim,
        hamiltonian=h,
        times=times,
        schedules=tuple(_basis_schedule(dim) for _ in times),
    )


class TestSpectralPropagator:
    def test_embedded_sigma_x_rotation(self):
        omega, t = 1.3, 0.7
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        h = np.zeros((3, 3), dtype=complex)
        h[:2, :2] = omega * sx
        expect = np.eye(3, dtype=complex)
        expect[:2, :2] = np.cos(omega * t) * np.eye(2) - 1j * np.sin(omega * t) * sx
        assert_allclose(_model(h).propagator(t), expect, atol=1e-14)

    def test_diagonal_hamiltonian(self):
        lam = np.array([-2.0, 0.0, 0.5, 3.25])
        t = 1.7
        u = _model(np.diag(lam)).propagator(t)
        assert_allclose(u, np.diag(np.exp(-1j * t * lam)), atol=1e-14)

    def test_time_zero_is_exact_identity(self, rng):
        u = _model(_random_hermitian(6, rng)).propagator(0.0)
        assert np.array_equal(u, np.eye(6))

    def test_degenerate_spectrum(self, rng):
        # H = a P + b (I - P), so U(t) = e^{-ita} P + e^{-itb} (I - P).
        dim, a, b, t = 7, 1.5, -0.25, 2.3
        p = random_projection(dim, 3, rng).matrix
        h = a * p + b * (np.eye(dim) - p)
        expect = np.exp(-1j * t * a) * p + np.exp(-1j * t * b) * (np.eye(dim) - p)
        assert_allclose(_model(h).propagator(t), expect, atol=1e-13)

    def test_matches_taylor_reference(self, rng):
        h = _random_hermitian(14, rng)
        model = _model(h)
        for t in (0.3, -1.1, 4.0):
            assert np.linalg.norm(model.propagator(t) - _expm_taylor(-1j * t * h)) <= 1e-12

    def test_group_law(self, rng):
        model = _model(_random_hermitian(8, rng))
        s, t = 0.6, -1.9
        assert_allclose(
            model.propagator(s) @ model.propagator(t), model.propagator(s + t), atol=1e-13
        )

    def test_unitary_at_dense_limit(self, rng):
        dim = 64
        u = _model(_random_hermitian(dim, rng)).propagator(2.5)
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-13 * dim

    def test_hamiltonian_hermitian_only_within_tolerance(self, rng):
        dim, t = 5, 1.3
        herm = _random_hermitian(dim, rng)
        skew = _random_hermitian(dim, rng) * 1j  # anti-Hermitian
        skew *= 0.4 * _MODEL_TOL * np.linalg.norm(herm) / np.linalg.norm(skew)
        h = herm + skew
        model = _model(h)
        assert np.array_equal(model.hamiltonian, h)
        u = model.propagator(t)
        # The Hermitian part drives the dynamics, so U stays unitary ...
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-13 * dim
        assert np.linalg.norm(u - _expm_taylor(-1j * t * herm)) <= 1e-12
        # ... and differs from exp(-itH) by O(t ||skew||) only.
        assert np.linalg.norm(u - _expm_taylor(-1j * t * h)) <= 2 * t * np.linalg.norm(skew)


class TestModelImmutability:
    def test_spectrum_is_read_only(self, rng):
        model = _model(_random_hermitian(4, rng))
        for arr in (model.energies, model.eigenbasis):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_propagator_calls_leave_model_unchanged(self, rng):
        model = _model(_random_hermitian(4, rng), times=(0.2, 0.9))
        before = dict(vars(model))
        u = model.propagator(0.9)
        u[:] = 0.0  # a caller's array, not shared state
        class_operator(model, HomogeneousHistory((1, 2)))
        ClassOperatorFunctional(model)
        assert vars(model).keys() == before.keys()
        assert all(vars(model)[k] is v for k, v in before.items())
        assert np.linalg.norm(model.propagator(0.9)) == pytest.approx(2.0, abs=1e-12)


class TestModelValidation:
    def test_rho_trace(self):
        with pytest.raises(ValueError, match="trace"):
            ClassOperatorModel(
                dim=2,
                rho=np.diag([0.5, 0.4]),
                hamiltonian=np.zeros((2, 2)),
                times=(0.0,),
                schedules=((identity_projection(2),),),
            )

    def test_rho_positivity(self):
        with pytest.raises(ValueError, match="semidefinite"):
            ClassOperatorModel(
                dim=2,
                rho=np.diag([1.5, -0.5]),
                hamiltonian=np.zeros((2, 2)),
                times=(0.0,),
                schedules=((identity_projection(2),),),
            )

    def test_schedule_must_resolve_identity(self):
        with pytest.raises(ValueError, match="identity"):
            ClassOperatorModel(
                dim=2,
                rho=np.diag([0.5, 0.5]),
                hamiltonian=np.zeros((2, 2)),
                times=(0.0,),
                schedules=((basis_proj(2, 0),),),
            )


class TestOrthogonalDecompose:
    def test_zero_projection(self):
        assert orthogonal_decompose(zero_projection(4), 1) == []

    def test_identity_into_rank_ones(self):
        parts = orthogonal_decompose(identity_projection(3), 1)
        assert len(parts) == 3
        assert all(p.rank == 1 for p in parts)
        assert_allclose(sum(p.matrix for p in parts), np.eye(3), atol=1e-12)

    def test_reassembly_oracle(self, rng):
        p = random_projection(5, 3, rng)
        parts = orthogonal_decompose(p, 2)
        assert all(part.rank <= 2 for part in parts)
        assert np.linalg.norm(sum(part.matrix for part in parts) - p.matrix) <= 1e-9
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert np.linalg.norm(parts[i].matrix @ parts[j].matrix) <= 1e-9


class TestConsistencyReport:
    def test_unit_set(self):
        d = ClassOperatorFunctional(trivial_model(3))
        report = consistency_report(d, [identity_projection(3)])
        assert report.consistent
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_complement_pair_sums_to_one(self, rng):
        d = ClassOperatorFunctional(trivial_model(4))
        p = random_projection(4, 2, rng)
        comp = identity_projection(4).matrix - p.matrix
        report = consistency_report(d, [p.matrix, comp])
        assert report.consistent
        assert report.total == pytest.approx(1.0, abs=1e-9)

    def test_trivial_dynamics_schedule(self):
        model = trivial_model(3)
        d = ClassOperatorFunctional(model)
        report = consistency_report(d, [p.matrix for p in model.schedules[0]])
        assert report.off_diagonal_max <= 1e-12
        # probabilities are tr(p_i rho)
        expect = tuple(float(np.trace(p.matrix @ model.rho).real) for p in model.schedules[0])
        assert report.diagonals == pytest.approx(expect, abs=1e-12)
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_negative_probability_is_inconsistent(self):
        # X diagonal with X[0][0] = 1.5 and X[4][4] = -0.5: Hermitian, unit
        # trace and interference-free on the basis, but d(e1, e1) = -0.5.
        x = np.diag([1.5, 0, 0, 0, -0.5, 0, 0, 0, 0]).astype(complex)
        fam = [basis_proj(3, i) for i in range(3)]
        report = consistency_report(OperatorBackedFunctional(x), fam)
        assert report.off_diagonal_max == 0.0
        assert report.diagonals == (1.5, -0.5, 0.0)
        assert not report.consistent
        assert consistency_report(OperatorBackedFunctional(x), fam, tolerance=0.5).consistent

    def test_non_orthogonal_set_rejected(self):
        d = ClassOperatorFunctional(trivial_model(3))
        p = basis_proj(3, 0)
        with pytest.raises(ValueError, match="orthogonal"):
            consistency_report(d, [p, p])

    def test_medium_mode_exposed(self, rng):
        h = rng.standard_normal((3, 3))
        h = (h + h.T) / 2
        model = ClassOperatorModel(
            dim=3,
            rho=rho_half_half(3),
            hamiltonian=h,
            times=(1.1,),
            schedules=(_basis_schedule(3),),
        )
        d = ClassOperatorFunctional(model)
        fam = [p.matrix for p in model.schedules[0]]
        weak = consistency_report(d, fam, mode="weak")
        medium = consistency_report(d, fam, mode="medium")
        assert medium.off_diagonal_max >= weak.off_diagonal_max


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
