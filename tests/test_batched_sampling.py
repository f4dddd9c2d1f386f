"""Batched sampling kernels against frozen copies of the scalar loops they
replace.

The sampled checks (axiom residuals, boundedness, tensor-subspace vectors),
the double-polarization reconstructor and the block double sum now draw
from the generator sample by sample as before, then evaluate whole stacks
at once.  The ``_scalar_*`` functions below are the per-sample loops as
they stood before the batching, kept verbatim apart from inlining the
random-projection and Haar draws; each batched kernel is checked against
them, draw for draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from dfrep import (
    ClassOperatorModel,
    DecoherenceFunctional,
    FormBackedFunctional,
    OperatorBackedFunctional,
    Projection,
    PureStateFunctional,
    boundedness_probe,
    check_axioms,
    consistency_report,
    evaluate_double_sum,
    gram_matrix,
    orthogonal_decompose,
    random_projection,
    reconstruct_from_product_diagonal,
    standard_df,
)
from dfrep.functionals import bilinear_refined
from dfrep.linalg import (
    check_projection_stack,
    ginibre,
    haar_from_ginibre,
    haar_unitary,
    kron_trace,
    kron_trace_table,
    sample_projections,
    spectral_projections,
)
from dfrep.probes import _sample_tensor_vectors
from dfrep.tracial import product_diagonal_of
from conftest import random_density, random_valid_pairing_operator
from test_batched_pairing import _cmats, _random_backends

KINDS = ["operator", "pure_state", "form", "class_operator"]


# ---------------------------------------------------------------------------
# Frozen scalar references.


def _scalar_kron_trace(p, q, x) -> complex:
    dp, dq = p.shape[0], q.shape[0]
    return complex(np.einsum("ik,jl,klij->", p, q, x.reshape(dp, dq, dp, dq)))


def _scalar_random_projection(dim, rank, rng) -> Projection:
    if rank == 0:
        return Projection(np.zeros((dim, dim), dtype=complex), 0)
    if rank == dim:
        return Projection(np.eye(dim, dtype=complex), dim)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return Projection(q @ q.conj().T, rank)


def _scalar_haar_unitary(dim, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def _scalar_check_axioms(d, samples, seed):
    """(hermiticity, positivity_min, positivity_imag_max, normalization,
    orthoadditivity) by the per-sample loop."""
    dim = d.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    eye = Projection(np.eye(dim, dtype=complex), dim)
    pool = [eye] + [
        Projection(np.diag((np.arange(dim) == i).astype(complex)), 1)
        for i in range(dim)
    ]
    for _ in range(samples):
        rank = int(rng.integers(0, dim + 1))
        pool.append(_scalar_random_projection(dim, rank, rng))
    herm = 0.0
    for _ in range(samples):
        p = pool[int(rng.integers(len(pool)))]
        q = pool[int(rng.integers(len(pool)))]
        herm = max(herm, abs(d.evaluate(p, q) - np.conj(d.evaluate(q, p))))
    pos_min = np.inf
    pos_imag = 0.0
    for p in pool:
        v = d.evaluate(p, p)
        pos_min = min(pos_min, v.real)
        pos_imag = max(pos_imag, abs(v.imag))
    norm_res = abs(d.evaluate(eye, eye) - 1.0)
    ortho = 0.0
    for _ in range(samples if dim >= 2 else 0):
        u = _scalar_haar_unitary(dim, rng)
        r1 = int(rng.integers(1, dim))
        r2 = int(rng.integers(1, dim - r1 + 1))
        b1 = u[:, :r1]
        b2 = u[:, r1 : r1 + r2]
        p1 = Projection(b1 @ b1.conj().T, r1)
        p2 = Projection(b2 @ b2.conj().T, r2)
        p12 = Projection(p1.matrix + p2.matrix, r1 + r2)
        q = pool[int(rng.integers(len(pool)))]
        ortho = max(ortho, abs(d.evaluate(p12, q) - d.evaluate(p1, q) - d.evaluate(p2, q)))
    return herm, pos_min, pos_imag, norm_res, ortho


def _scalar_tensor_vectors(dim, samples, rng, max_terms=4):
    rows = np.empty((samples, dim * dim), dtype=complex)
    counts = {}
    for n in range(samples):
        terms = int(rng.integers(1, max_terms + 1))
        xi = np.zeros(dim * dim, dtype=complex)
        for _ in range(terms):
            a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            xi += np.kron(a, g)
        nrm = np.linalg.norm(xi)
        if nrm < 1e-12:
            xi = np.zeros(dim * dim, dtype=complex)
            xi[0] = 1.0
            nrm = 1.0
        rows[n] = xi / nrm
        counts[terms] = counts.get(terms, 0) + 1
    return rows, counts


def _scalar_reconstruct(f, dim):
    phases = [1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]
    eye = np.eye(dim, dtype=complex)
    n = dim * dim
    out = np.zeros((n, n), dtype=complex)
    for a in range(dim):
        for a2 in range(dim):
            lefts = [eye[a] + phases[k] * eye[a2] for k in range(4)]
            for b in range(dim):
                for b2 in range(dim):
                    rights = [eye[b] + phases[l] * eye[b2] for l in range(4)]
                    acc = 0.0 + 0.0j
                    for k in range(4):
                        for l in range(4):
                            acc += phases[(k + l) % 4] * f(lefts[k], rights[l])
                    out[a2 * dim + b2, a * dim + b] = acc / 16.0
    return out


def _scalar_product_diagonal_of(m):
    def f(alpha, beta):
        vec = np.kron(alpha, beta)
        return complex(np.vdot(vec, m @ vec))

    return f


def _scalar_double_sum(m, p, q, block_rank):
    out = 0.0 + 0.0j
    for pi in orthogonal_decompose(p, block_rank):
        for qj in orthogonal_decompose(q, block_rank):
            out += _scalar_kron_trace(pi.matrix, qj.matrix, m)
    return out


def _scalar_bilinear_refined(d, x, y, rng):
    def refine(h):
        pieces = []
        for w, proj in spectral_projections(h):
            vals, vecs = np.linalg.eigh(proj.matrix)
            cols = vecs[:, vals > 0.5]
            r = cols.shape[1]
            cols = cols @ _scalar_haar_unitary(r, rng)
            for k in range(r):
                pieces.append((w, np.outer(cols[:, k], cols[:, k].conj())))
        return pieces

    def pair(a, b):
        out = 0.0 + 0.0j
        for wa, pa in refine(a):
            for wb, pb in refine(b):
                out += wa * wb * d.evaluate(Projection(pa, 1), Projection(pb, 1))
        return out

    xr = (x + x.conj().T) / 2
    xi = (x - x.conj().T) / 2j
    yr = (y + y.conj().T) / 2
    yi = (y - y.conj().T) / 2j
    return pair(xr, yr) + 1j * pair(xi, yr) + 1j * pair(xr, yi) - pair(xi, yi)


def _valid_backends(dim, rng) -> dict:
    """One functional per backend satisfying all four axioms, none aligned
    with the standard basis."""
    x = random_valid_pairing_operator(dim, rng)
    operator = OperatorBackedFunctional(x)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = haar_unitary(dim, rng)
    model = ClassOperatorModel(
        dim=dim,
        rho=random_density(dim, rng),
        hamiltonian=(h + h.conj().T) / 2,
        times=(0.41,),
        schedules=(tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(dim)),),
    )
    return {
        "operator": operator,
        "pure_state": PureStateFunctional(psi / np.linalg.norm(psi)),
        "form": FormBackedFunctional(gram_matrix(operator, dim)),
        "class_operator": standard_df(model),
    }


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Draw helpers.


class TestDraws:
    def test_ginibre_is_the_two_draw_stream(self):
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        g = ginibre(5, 2, a)
        ref = b.standard_normal((5, 2)) + 1j * b.standard_normal((5, 2))
        assert np.array_equal(g, ref)
        assert a.standard_normal() == b.standard_normal()

    @pytest.mark.parametrize("min_rank", [0, 1])
    def test_sample_projections_match_successive_calls(self, min_rank):
        dim, count = 5, 60
        a = np.random.default_rng(np.random.SeedSequence([9, dim]))
        b = np.random.default_rng(np.random.SeedSequence([9, dim]))
        stack = sample_projections(dim, count, a, min_rank)
        for s in range(count):
            ref = _scalar_random_projection(dim, int(b.integers(min_rank, dim + 1)), b)
            assert np.abs(stack[s] - ref.matrix).max() <= 1e-15
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_haar_unitary_unchanged_and_stackable(self):
        u = haar_unitary(4, np.random.default_rng(5))
        assert np.abs(u - _scalar_haar_unitary(4, np.random.default_rng(5))).max() <= 1e-15
        gen = np.random.default_rng(6)
        g = np.stack([ginibre(3, 3, gen) for _ in range(5)])
        stacked = haar_from_ginibre(g)
        ref = np.random.default_rng(6)
        for s in range(5):
            assert np.abs(stacked[s] - _scalar_haar_unitary(3, ref)).max() <= 1e-15

    def test_random_projection_unchanged(self):
        for rank in range(5):
            p = random_projection(4, rank, np.random.default_rng(rank))
            ref = _scalar_random_projection(4, rank, np.random.default_rng(rank))
            assert p.rank == rank
            assert np.abs(p.matrix - ref.matrix).max() <= 1e-15


class TestProjectionStackCheck:
    def test_accepts_valid_and_names_failing_index(self, rng):
        good = sample_projections(4, 6, rng, 1)
        ranks = np.rint(np.trace(good, axis1=1, axis2=2).real).astype(int)
        assert np.array_equal(check_projection_stack(good, ranks), good)
        cases = {
            "Hermitian": lambda m: m + 1e-3j * np.eye(4),
            "idempotent": lambda m: 0.5 * m,
        }
        for word, corrupt in cases.items():
            bad = good.copy()
            bad[3] = corrupt(bad[3])
            with pytest.raises(ValueError, match=f"projection 3 is not {word}"):
                check_projection_stack(bad, ranks)
        wrong = ranks.copy()
        wrong[2] += 1
        with pytest.raises(ValueError, match="projection 2 .*rank"):
            check_projection_stack(good, wrong)

    def test_same_criteria_as_projection(self, rng):
        p = sample_projections(4, 1, rng, 1)[0]
        rank = int(round(np.trace(p).real))
        for m, r in ((p, rank), (p + 1e-7 * np.eye(4), rank), (p, rank + 1), (0.9 * p, rank)):
            try:
                Projection(m, r)
                expect_ok = True
            except ValueError:
                expect_ok = False
            try:
                check_projection_stack(m[None], [r])
                ok = True
            except ValueError:
                ok = False
            assert ok == expect_ok

    def test_non_finite_is_a_value_error(self, rng):
        bad = sample_projections(3, 2, rng)
        bad[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="projection 1 has non-finite"):
            check_projection_stack(bad, [1, 1])


# ---------------------------------------------------------------------------
# Elementwise pair values.


class TestPairValues:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [3, 5])
    def test_equals_pair_table_diagonal(self, kind, dim, rng):
        d = _random_backends(dim, rng)[kind]
        left = _cmats(rng, 6, dim)
        right = _cmats(rng, 6, dim)
        vals = d.pair_values(left, right)
        diag = np.diagonal(d.pair_table(left, right))
        loop = DecoherenceFunctional.pair_values(d, left, right)
        scale = max(1.0, np.abs(diag).max())
        assert vals.shape == (6,)
        assert np.abs(vals - diag).max() <= 1e-12 * scale
        assert np.abs(vals - loop).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_bad_stacks(self, kind, rng):
        d = _random_backends(3, rng)[kind]
        with pytest.raises(ValueError, match="equal-length"):
            d.pair_values(_cmats(rng, 2, 3), _cmats(rng, 3, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            d.pair_values(_cmats(rng, 2, 4), _cmats(rng, 2, 4))


# ---------------------------------------------------------------------------
# Sampled checks keep their draws.


class TestCheckAxiomsBatched:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim,samples", [(3, 150), (8, 60)])
    def test_matches_scalar_loop(self, kind, dim, samples, rng):
        d = _valid_backends(dim, rng)[kind]
        report = check_axioms(d, samples=samples, seed=13)
        herm, pos_min, pos_imag, norm_res, ortho = _scalar_check_axioms(d, samples, 13)
        assert report.positivity_min == pytest.approx(pos_min, abs=1e-12)
        for value in (
            report.hermiticity_residual,
            report.positivity_imag_max,
            report.normalization_residual,
            report.orthoadditivity_residual,
        ):
            assert value <= report.tol
        ref_ok = {
            "hermiticity": herm <= report.tol,
            "positivity": pos_min >= -report.tol and pos_imag <= report.tol,
            "normalization": norm_res <= report.tol,
            "orthoadditivity": ortho <= report.tol,
        }
        assert report.verdicts() == ref_ok
        assert report.passed

    def test_planted_non_hermitian_operator_is_flagged(self, rng):
        dim, samples = 4, 80
        x = random_valid_pairing_operator(dim, rng)
        n = dim * dim
        skew = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = OperatorBackedFunctional(x + 1e-3 * (skew - skew.conj().T))
        report = check_axioms(d, samples=samples, seed=4)
        herm, pos_min, _, _, ortho = _scalar_check_axioms(d, samples, 4)
        assert herm > 1e-6
        assert not report.hermiticity_ok
        assert report.hermiticity_residual == pytest.approx(herm, rel=1e-12)
        assert report.orthoadditivity_residual == pytest.approx(ortho, abs=1e-12)
        assert report.positivity_min == pytest.approx(pos_min, abs=1e-12)

    def test_planted_non_additive_functional(self, rng):
        """A functional quadratic in its first slot fails orthoadditivity by
        an amount that depends on every sampled pair and pool partner."""
        dim, samples = 4, 70
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

        class Quadratic(DecoherenceFunctional):
            def __init__(self):
                self.dim = dim

            def bilinear(self, x, y):
                return complex(np.vdot(psi, x @ psi) ** 2 * np.vdot(phi, y @ phi))

        d = Quadratic()
        report = check_axioms(d, samples=samples, seed=8)
        herm, pos_min, pos_imag, norm_res, ortho = _scalar_check_axioms(d, samples, 8)
        assert ortho > 1e-3
        assert not report.orthoadditivity_ok
        assert report.orthoadditivity_residual == pytest.approx(ortho, rel=1e-12)
        assert report.hermiticity_residual == pytest.approx(herm, rel=1e-12)
        assert report.positivity_min == pytest.approx(pos_min, rel=1e-12)
        assert report.positivity_imag_max == pytest.approx(pos_imag, rel=1e-12, abs=1e-15)
        assert report.normalization_residual == pytest.approx(norm_res, rel=1e-12)

    def test_boundedness_probe_matches_scalar_loop(self, rng):
        d = _random_backends(4, rng)["form"]
        gen = np.random.default_rng(np.random.SeedSequence([6, 4]))
        ref = 0.0
        for _ in range(70):
            p = _scalar_random_projection(4, int(gen.integers(0, 5)), gen)
            q = _scalar_random_projection(4, int(gen.integers(0, 5)), gen)
            ref = max(ref, abs(d.evaluate(p, q)))
        assert boundedness_probe(d, samples=70, seed=6) == pytest.approx(ref, rel=1e-12)


class TestTensorVectors:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_scalar_loop(self, dim):
        a = np.random.default_rng(np.random.SeedSequence([17, dim]))
        b = np.random.default_rng(np.random.SeedSequence([17, dim]))
        rows, counts = _sample_tensor_vectors(dim, 400, a)
        ref_rows, ref_counts = _scalar_tensor_vectors(dim, 400, b)
        assert counts == ref_counts
        assert np.abs(rows - ref_rows).max() <= 1e-15
        # Same generator state afterwards: nothing extra was drawn.
        assert a.standard_normal() == b.standard_normal()


class TestRefinedBilinear:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_scalar_loop(self, kind, rng):
        d = _random_backends(3, rng)[kind]
        x = _cmats(rng, 1, 3)[0]
        y = np.diag([1.0, 1.0, -2.0]) + 0j  # a degenerate block to refine
        a = np.random.default_rng(12)
        b = np.random.default_rng(12)
        ref = _scalar_bilinear_refined(d, x, y, b)
        assert _close(bilinear_refined(d, x, y, a), ref, 1e-12)
        assert a.standard_normal() == b.standard_normal()


# ---------------------------------------------------------------------------
# Reconstructor, diagonal oracle and double sum.


class TestReconstructor:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_scalar_reconstructor(self, dim, rng):
        n = dim * dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out = reconstruct_from_product_diagonal(product_diagonal_of(m), dim)
        ref = _scalar_reconstruct(_scalar_product_diagonal_of(m), dim)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(out - m).max() <= 1e-12 * np.abs(m).max()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_zero_oracle(self, dim):
        out = reconstruct_from_product_diagonal(lambda a, b: 0.0, dim)
        assert out.shape == (dim * dim, dim * dim)
        assert np.array_equal(out, _scalar_reconstruct(lambda a, b: 0.0, dim))
        assert not out.any()

    def test_oracle_broadcasts_and_keeps_scalar_calls(self, rng):
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        f = product_diagonal_of(m)
        ref = _scalar_product_diagonal_of(m)
        alphas = rng.standard_normal((4, 1, 3)) + 1j * rng.standard_normal((4, 1, 3))
        betas = rng.standard_normal((1, 5, 3)) + 1j * rng.standard_normal((1, 5, 3))
        vals = f(alphas, betas)
        assert vals.shape == (4, 5)
        for k in range(4):
            for l in range(5):
                assert _close(vals[k, l], ref(alphas[k, 0], betas[0, l]), 1e-13)
        single = f(alphas[0, 0], betas[0, 0])
        assert isinstance(single, complex)
        assert _close(single, ref(alphas[0, 0], betas[0, 0]), 1e-13)


class TestDoubleSum:
    @pytest.mark.parametrize("dim", [3, 5])
    def test_matches_per_block_kron_trace(self, dim, rng):
        n = dim * dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(3):
            p = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
            q = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
            for block_rank in (1, 2, dim):
                ref = _scalar_double_sum(m, p, q, block_rank)
                assert _close(evaluate_double_sum(m, p, q, block_rank), ref, 1e-12)

    def test_zero_projection_gives_zero(self, rng):
        m = rng.standard_normal((9, 9)) + 0j
        zero = Projection(np.zeros((3, 3), dtype=complex), 0)
        assert evaluate_double_sum(m, zero, random_projection(3, 2, rng), 1) == 0

    def test_table_entries_are_kron_traces(self, rng):
        p, q = _cmats(rng, 3, 2), _cmats(rng, 4, 3)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        table = kron_trace_table(p, q, x)
        assert table.shape == (3, 4)
        for s in range(3):
            for t in range(4):
                assert _close(table[s, t], _scalar_kron_trace(p[s], q[t], x), 1e-12)


class TestKronTrace:
    @pytest.mark.parametrize("dp,dq", [(2, 2), (3, 3), (2, 4), (5, 3)])
    def test_matches_three_operand_einsum(self, dp, dq, rng):
        p, q = _cmats(rng, 1, dp)[0], _cmats(rng, 1, dq)[0]
        x = rng.standard_normal((dp * dq, dp * dq)) + 1j * rng.standard_normal((dp * dq, dp * dq))
        assert _close(kron_trace(p, q, x), _scalar_kron_trace(p, q, x), 1e-13)


class TestConsistencyTable:
    @pytest.mark.parametrize("kind", ["operator", "form"])
    def test_matches_evaluate_loop(self, kind, rng):
        d = _random_backends(4, rng)[kind]
        u = haar_unitary(4, rng)
        family = [np.outer(u[:, i], u[:, i].conj()) for i in range(4)]
        for mode in ("weak", "medium"):
            report = consistency_report(d, family, mode=mode)
            off = 0.0
            for i in range(4):
                for j in range(4):
                    if i != j:
                        v = d.evaluate(family[i], family[j])
                        off = max(off, abs(v.real) if mode == "weak" else abs(v))
            assert report.off_diagonal_max == pytest.approx(off, rel=1e-12)
            diags = [d.evaluate(p, p).real for p in family]
            assert report.diagonals == pytest.approx(diags, abs=1e-14)

    def test_dimension_mismatch(self, rng):
        d = _random_backends(3, rng)["pure_state"]
        with pytest.raises(ValueError, match="dimension mismatch"):
            consistency_report(d, [np.eye(4)])
