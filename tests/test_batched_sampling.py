"""Batched sampling kernels against per-sample references.

The sampled checks (axiom residuals, pairing residuals, tensor-subspace vectors)
draw per block of ``SAMPLE_BLOCK`` samples with a few vectorised generator
calls, and the double-polarization reconstructor and the block double sum
evaluate whole stacks at once.  The ``_scalar_*`` functions below evaluate
one sample at a time; the sampled ones take their draws from the shared
block-layout helpers in ``conftest``, so each batched kernel is checked
against them draw for draw.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

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
    check_axioms,
    consistency_report,
    evaluate_double_sum,
    gram_matrix,
    random_projection,
    reconstruct_from_product_diagonal,
    verify_ils_conditions,
)
from dfrep.cli import _pairing_residual, _random_tensor_sums, main
from dfrep.ils import ATOM_BLOCK
from dfrep.linalg import (
    SAMPLE_BLOCK,
    block_draws,
    check_projection_stack,
    ginibre,
    haar_from_ginibre,
    kron_trace,
    operator_from_pairing,
    pairing_realignment,
    pairing_values,
    projection_blocks,
    sample_blocks,
    swap_operator,
)
from dfrep.probes import _sample_tensor_vectors, _sup_beta_rank_one, tensor_bound_probe
from dfrep import functionals
from dfrep.tracial import product_diagonal_of
from reference import (
    _scalar_product_diagonal_of,
    _scalar_reconstruct,
    bilinear_refined,
    haar_unitary,
    kron,
    orthogonal_decompose,
    spectral_projections,
    trace_pair,
)
from conftest import (
    block_projections,
    block_tensor_terms,
    random_density,
    random_valid_pairing_operator,
)
from test_batched_pairing import _cmats, _random_backends, rectangular_pairing

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
    return _scalar_haar_from_ginibre(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )


def _scalar_haar_from_ginibre(g) -> np.ndarray:
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def _scalar_check_axioms(d, samples, seed):
    """(hermiticity, positivity_min, positivity_imag_max, normalization,
    orthoadditivity) by the per-sample loop, drawing in the block layout."""
    dim = d.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    eye = Projection(np.eye(dim, dtype=complex), dim)
    pool = [eye] + [
        Projection(np.diag((np.arange(dim) == i).astype(complex)), 1)
        for i in range(dim)
    ]
    pool += block_projections(dim, samples, rng)
    blocks = [min(SAMPLE_BLOCK, samples - s) for s in range(0, samples, SAMPLE_BLOCK)]
    herm = 0.0
    for n in blocks:
        for i, j in rng.integers(len(pool), size=(n, 2)):
            p, q = pool[i], pool[j]
            herm = max(herm, abs(d.evaluate(p, q) - np.conj(d.evaluate(q, p))))
    pos_min = np.inf
    pos_imag = 0.0
    for p in pool:
        v = d.evaluate(p, p)
        pos_min = min(pos_min, v.real)
        pos_imag = max(pos_imag, abs(v.imag))
    norm_res = abs(d.evaluate(eye, eye) - 1.0)
    ortho = 0.0
    for n in blocks if dim >= 2 else ():
        z = rng.standard_normal((2, n, dim, dim))
        r1s = rng.integers(1, dim, size=n)
        r2s = rng.integers(1, dim - r1s + 1)
        qis = rng.integers(len(pool), size=n)
        for s in range(n):
            u = _scalar_haar_from_ginibre(z[0, s] + 1j * z[1, s])
            r1, r2 = int(r1s[s]), int(r2s[s])
            b1 = u[:, :r1]
            b2 = u[:, r1 : r1 + r2]
            p1 = Projection(b1 @ b1.conj().T, r1)
            p2 = Projection(b2 @ b2.conj().T, r2)
            p12 = Projection(p1.matrix + p2.matrix, r1 + r2)
            q = pool[qis[s]]
            ortho = max(ortho, abs(d.evaluate(p12, q) - d.evaluate(p1, q) - d.evaluate(p2, q)))
    return herm, pos_min, pos_imag, norm_res, ortho


def _scalar_tensor_vectors(dim, samples, rng, max_terms=4):
    rows = np.empty((samples, dim * dim), dtype=complex)
    counts = {}
    for n, terms in enumerate(block_tensor_terms((dim,), samples, rng, max_terms)):
        xi = np.zeros(dim * dim, dtype=complex)
        for a, g in terms:
            xi += np.kron(a, g)
        nrm = np.linalg.norm(xi)
        if nrm < 1e-12:
            xi = np.zeros(dim * dim, dtype=complex)
            xi[0] = 1.0
            nrm = 1.0
        rows[n] = xi / nrm
        counts[len(terms)] = counts.get(len(terms), 0) + 1
    return rows, counts


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
        "form": FormBackedFunctional(gram_matrix(operator)),
        "class_operator": ClassOperatorFunctional(model),
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
    @pytest.mark.parametrize("count", [60, 300])
    def test_projection_blocks_match_block_reference(self, min_rank, count):
        dim = 5
        a = np.random.default_rng(np.random.SeedSequence([9, dim]))
        b = np.random.default_rng(np.random.SeedSequence([9, dim]))
        blocks = list(projection_blocks(dim, count, a, min_rank))
        assert [len(block) for block in blocks] == sample_blocks(count)
        stack = np.concatenate(blocks)
        ref = block_projections(dim, count, b, min_rank)
        for s in range(count):
            assert np.abs(stack[s] - ref[s].matrix).max() <= 1e-15
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
        good = next(projection_blocks(4, 6, rng, 1))
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
        p = next(projection_blocks(4, 1, rng, 1))[0]
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
        bad = next(projection_blocks(3, 2, rng))
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
    @pytest.mark.parametrize("dim,samples", [(3, 150), (3, 300), (8, 60)])
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
            assert value <= report.tolerance
        tol = report.tolerance
        assert report.hermiticity_ok == (herm <= tol)
        assert report.positivity_ok == (pos_min >= -tol and pos_imag <= tol)
        assert report.normalization_ok == (norm_res <= tol)
        assert report.orthoadditivity_ok == (ortho <= tol)
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


class TestTensorVectors:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_scalar_loop(self, dim):
        a = np.random.default_rng(np.random.SeedSequence([17, dim]))
        b = np.random.default_rng(np.random.SeedSequence([17, dim]))
        blocks = list(_sample_tensor_vectors(dim, 400, a))
        rows = np.concatenate([r for r, _ in blocks])
        terms = np.concatenate([t for _, t in blocks])
        ref_rows, ref_counts = _scalar_tensor_vectors(dim, 400, b)
        assert {int(t): int(np.sum(terms == t)) for t in set(terms.tolist())} == ref_counts
        assert np.abs(rows - ref_rows).max() <= 1e-15
        # Same generator state afterwards: nothing extra was drawn.
        assert a.standard_normal() == b.standard_normal()


class CountingGenerator:
    """A ``Generator`` proxy that counts the calls made through it."""

    def __init__(self, gen):
        self._gen = gen
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _blocks(n):
    return -(-n // SAMPLE_BLOCK)


def _counted_generators(monkeypatch) -> list:
    """Make ``np.random.default_rng`` return a :class:`CountingGenerator`
    and return the list each new one is appended to."""
    made = []
    real = np.random.default_rng

    def counting_rng(*args, **kwargs):
        made.append(CountingGenerator(real(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    return made


class TestGeneratorCalls:
    """Each sampled check calls the generator a few times per block of
    ``SAMPLE_BLOCK`` samples, never once per sample."""

    # Most calls any site makes per block (check_axioms: ranks and columns
    # of the pool, Hermiticity pairs, and the Ginibre stack, r1, r2 and
    # pool indices of the orthogonal splits).
    PER_BLOCK = 7

    SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "operator_product_state_dim3.json"

    def _sites(self, dim):
        d = _valid_backends(dim, np.random.default_rng(5))["operator"]
        scenario = str(self.SCENARIO)
        # site -> (call with n samples, blocks of samples it draws)
        return {
            "projection_blocks": (
                lambda n: list(projection_blocks(dim, n, np.random.default_rng(0))),
                _blocks,
            ),
            "tensor_vectors": (
                lambda n: list(_sample_tensor_vectors(dim, n, np.random.default_rng(0))),
                _blocks,
            ),
            "tensor_sums": (
                lambda n: _random_tensor_sums(dim, n, np.random.default_rng(0)),
                _blocks,
            ),
            "check_axioms": (lambda n: check_axioms(d, samples=n), _blocks),
            "tensor_bound_probe": (  # one dimension, plus one more generator
                lambda n: tensor_bound_probe(lambda m: d, [dim], samples=n),
                lambda n: _blocks(n) + 1,
            ),
            "pairing_residual": (
                lambda n: _pairing_residual(d, d, n, 0),
                lambda n: _blocks(2 * n),
            ),
            "tracial_command": (  # pairing residual plus the 20 double-sum pairs
                lambda n: main(["tracial", "--scenario", scenario, "--samples", str(n)]),
                lambda n: _blocks(2 * n) + 1,
            ),
        }

    @pytest.mark.parametrize(
        "site",
        [
            "projection_blocks",
            "tensor_vectors",
            "tensor_sums",
            "check_axioms",
            "tensor_bound_probe",
            "pairing_residual",
            "tracial_command",
        ],
    )
    def test_calls_per_block(self, site, monkeypatch, capsys):
        run, blocks = self._sites(4)[site]
        made = _counted_generators(monkeypatch)
        for n in (50, 300, 700):
            made.clear()
            run(n)
            calls = sum(g.calls for g in made)
            assert 0 < calls <= self.PER_BLOCK * blocks(n), (site, n, calls)
        capsys.readouterr()


class TestSampleCountRule:
    """``linalg.sample_blocks`` is the one sample-count rule: every sampled
    entry point refuses fewer than one sample before its first draw, and
    the sweep before its first extraction."""

    SITES = {
        "tensor_bound_probe": lambda d, n: tensor_bound_probe(lambda m: d, [d.dim], samples=n),
        "verify_ils_conditions": lambda d, n: verify_ils_conditions(d, samples=n),
        "check_axioms": lambda d, n: check_axioms(d, samples=n),
        "pairing_residual": lambda d, n: _pairing_residual(d, d, n, 0),
        "tensor_sums": lambda d, n: _random_tensor_sums(d.dim, n, np.random.default_rng(0)),
        "sup_beta_rank_one": lambda d, n: _sup_beta_rank_one(d.x_op, d.dim, n, 0),
        "projection_blocks": lambda d, n: next(projection_blocks(d.dim, n, np.random.default_rng(0))),
        "block_draws": lambda d, n: next(block_draws(np.random.default_rng(0), n, 1, 5)),
    }

    @pytest.mark.parametrize("samples", [0, -5])
    @pytest.mark.parametrize("site", list(SITES))
    def test_refuses_fewer_than_one_sample(self, site, samples, monkeypatch):
        d = _valid_backends(3, np.random.default_rng(5))["operator"]
        made = _counted_generators(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep member was extracted")

        monkeypatch.setattr("dfrep.probes.extract_ils", refuse)
        with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
            self.SITES[site](d, samples)
        assert sum(g.calls for g in made) == 0


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
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_scalar_reconstructor(self, dim, rng, monkeypatch):
        n = dim * dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        realigned = []

        def spy(x):
            realigned.append(x.shape)
            return pairing_realignment(x)

        monkeypatch.setattr(functionals, "pairing_realignment", spy)
        f = product_diagonal_of(OperatorBackedFunctional(m))
        assert realigned == [(n, n)]  # once, where the functional is built
        out = operator_from_pairing(reconstruct_from_product_diagonal(f, dim))
        assert realigned == [(n, n)]  # none inside the d^2 oracle calls
        ref = _scalar_reconstruct(_scalar_product_diagonal_of(m), dim)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(out - m).max() <= 1e-12 * np.abs(m).max()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_zero_oracle(self, dim):
        out = reconstruct_from_product_diagonal(lambda a, b: 0.0, dim)
        assert out.shape == (dim * dim, dim * dim)
        assert np.array_equal(out, _scalar_reconstruct(lambda a, b: 0.0, dim))
        assert not out.any()

    @pytest.mark.parametrize("shape", [(5, 5), (9, 8)])
    def test_oracle_rejects_non_pair_operator(self, shape):
        with pytest.raises(ValueError, match=r"\(d\^2, d\^2\)"):
            OperatorBackedFunctional(np.zeros(shape))

    def test_oracle_fills_the_block_table(self, rng):
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        f = product_diagonal_of(OperatorBackedFunctional(m))
        ref = _scalar_product_diagonal_of(m)
        alphas = rng.standard_normal((4, 1, 3)) + 1j * rng.standard_normal((4, 1, 3))
        betas = rng.standard_normal((1, 5, 3)) + 1j * rng.standard_normal((1, 5, 3))
        vals = f(alphas, betas)
        assert vals.shape == (4, 5)
        for k in range(4):
            for l in range(5):
                assert _close(vals[k, l], ref(alphas[k, 0], betas[0, l]), 1e-13)

    def test_oracle_refuses_elementwise_stacks(self, rng):
        """Only the reconstructor's ``(B, 1, d)`` against ``(1, N, d)``
        layout is read; two ``(n, d)`` stacks are refused, naming both."""
        f = product_diagonal_of(OperatorBackedFunctional(rng.standard_normal((9, 9)) + 0j))
        alphas, betas = rng.standard_normal((2, 6, 3)) + 0j
        with pytest.raises(ValueError, match=r"got \(6, 3\) and \(6, 3\)"):
            f(alphas, betas)

    @pytest.mark.parametrize("dim", [1, 2, 12, 23])
    def test_one_oracle_call_per_atom_block(self, dim, rng):
        n = dim * dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        oracle = product_diagonal_of(OperatorBackedFunctional(m))
        calls = []

        def spy(alpha, beta):
            calls.append((alpha.shape, beta.shape))
            return oracle(alpha, beta)

        out = operator_from_pairing(reconstruct_from_product_diagonal(spy, dim))
        n_atoms = dim * dim
        assert len(calls) == -(-n_atoms // ATOM_BLOCK)
        assert all(a[0] <= ATOM_BLOCK and a[1:] == (1, dim) for a, _ in calls)
        assert all(b == (1, n_atoms, dim) for _, b in calls)
        assert sum(a[0] for a, _ in calls) == n_atoms
        assert np.abs(out - m).max() <= 1e-12 * np.abs(m).max()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_non_hermitian_operators_without_swap_symmetry(self, dim, rng):
        n = dim * dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = swap_operator(dim)
        assert np.abs(m - m.conj().T).max() > 0.1 and np.abs(w @ m @ w - m).max() > 0.1
        f = product_diagonal_of(OperatorBackedFunctional(m))
        out = operator_from_pairing(reconstruct_from_product_diagonal(f, dim))
        ref = _scalar_reconstruct(_scalar_product_diagonal_of(m), dim)
        assert np.abs(ref - m).max() <= 1e-12 * np.abs(m).max()
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dim", [3, 5])
    def test_oracle_on_sparse_and_dense_vectors(self, dim, rng):
        n = dim * dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        f, ref = product_diagonal_of(OperatorBackedFunctional(m)), _scalar_product_diagonal_of(m)

        def dense(*shape):
            return rng.standard_normal(shape + (dim,)) + 1j * rng.standard_normal(shape + (dim,))

        def two_sparse(count):
            v = np.zeros((count, dim), dtype=complex)
            for row in v:
                support = rng.choice(dim, size=2, replace=False)
                row[support] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            return v

        for alphas, betas in ((two_sparse(6), two_sparse(7)), (dense(6), dense(7))):
            vals = f(alphas[:, None], betas[None])
            assert vals.shape == (6, 7)
            want = np.array([[ref(a, b) for b in betas] for a in alphas])
            assert np.abs(vals - want).max() <= 1e-13 * np.abs(want).max()

    def test_block_oracle_builds_no_larger_table(self, rng):
        """A block of atoms against all atoms allocates a few ``(B, N)``
        tables and the block's ``(B, d^2)`` rows of P, never one entry per
        pair and support term."""
        b, n, dim = 64, 4000, 3
        m = rng.standard_normal((dim * dim, dim * dim)) + 0j
        f = product_diagonal_of(OperatorBackedFunctional(m))
        alphas, betas = rng.standard_normal((b, 1, dim)) + 0j, rng.standard_normal((1, n, dim)) + 0j
        tracemalloc.start()
        try:
            vals = f(alphas, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (b, n)
        assert peak < 5 * vals.nbytes  # dim^2 = 9 terms of (B, N) would be 9 tables

    def test_cli_reads_the_held_pairing_matrix(self, monkeypatch, capsys):
        realigned = []

        def spy(x):
            realigned.append(np.shape(x))
            return pairing_realignment(x)

        monkeypatch.setattr(functionals, "pairing_realignment", spy)
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / "operator_product_state_dim3.json"
        assert main(["reconstruct", "--scenario", str(scenario)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
        assert realigned == [(9, 9)]  # once, where the scenario builds the functional


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
                assert _close(evaluate_double_sum(OperatorBackedFunctional(m), p, q, block_rank), ref, 1e-12)

    def test_zero_projection_gives_zero(self, rng):
        m = rng.standard_normal((9, 9)) + 0j
        zero = Projection(np.zeros((3, 3), dtype=complex), 0)
        assert evaluate_double_sum(OperatorBackedFunctional(m), zero, random_projection(3, 2, rng), 1) == 0

    @pytest.mark.parametrize("dp,dq", [(1, 1), (2, 2), (3, 3), (5, 5), (2, 3)])
    def test_table_entries_are_kron_traces(self, dp, dq, rng):
        p, q = _cmats(rng, 3, dp), _cmats(rng, 4, dq)
        x = rng.standard_normal((dp * dq, dp * dq)) + 1j * rng.standard_normal((dp * dq, dp * dq))
        pairs = np.repeat(p, 4, axis=0), np.tile(q, (3, 1, 1))
        table = pairing_values(*pairs, rectangular_pairing(x, dp, dq)).reshape(3, 4)
        if dp == dq:  # the operator backend's table is the same product with P
            backend = OperatorBackedFunctional(x).pair_table(p, q)
            assert np.abs(backend - table).max() <= 1e-12 * max(1.0, np.abs(table).max())
        for s in range(3):
            for t in range(4):
                ref = trace_pair(kron(p[s], q[t]), x)
                assert _close(table[s, t], ref, 1e-12)
                assert _close(ref, _scalar_kron_trace(p[s], q[t], x), 1e-12)


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
