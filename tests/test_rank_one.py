"""Rank-one pair tables, the guarded Hermitian norm route, the certified
positive-semidefinite trace norm, the lazy trace norm and the batched beta
checks, each against the dense or scalar computation it replaces."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from dfrep import (
    DecoherenceFunctional,
    FormBackedFunctional,
    OperatorBackedFunctional,
    build_tracial_operator,
    hermitian_form_decomposition,
    swap_operator,
    verify_ils_conditions,
)
from dfrep import functionals, ils, linalg, tracial
from dfrep.cli import _random_tensor_sums, main
from dfrep.ils import extract_ils, ils_operator_from_matrix, polarization_atoms
from dfrep.probes import _sup_beta_rank_one
from dfrep.linalg import (
    operator_norm,
    rank_one_matrices,
    operator_from_pairing,
    pairing_realignment,
    rank_one_vectors,
    trace_norm,
)
from dfrep.tolerances import HERMITIAN_ROUTE_REL
from dfrep.tracial import family_sizes, product_diagonal_of
from reference import ElementaryTensorSum, _scalar_product_diagonal_of, haar_unitary
from conftest import (
    block_tensor_terms,
    product_state_operator,
    random_density,
    random_valid_pairing_operator,
)
from test_batched_pairing import _random_backends


def _swapped(x) -> np.ndarray:
    """W X for an operator X on H (x) H, through its pairing matrix."""
    return operator_from_pairing(pairing_realignment(x), swapped=True)

ROOT = Path(__file__).resolve().parent.parent
KINDS = ["operator", "pure_state", "form", "class_operator"]


def _cmat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _rel(a, ref) -> float:
    return float(np.abs(a - ref).max() / max(1.0, np.abs(ref).max()))


def _svd(a):
    return np.linalg.svd(a, compute_uv=False)


# Every kernel a trace norm can end in: the dense decompositions and the
# pivoted low-rank route (the blocked route enters through cholesky).
NORM_KERNELS = ("svd", "eigvalsh", "cholesky", "_pivoted_trace")


def _forbid(monkeypatch, *names):
    """Make each named ``np.linalg`` function, or private ``dfrep.linalg``
    kernel, raise when called."""

    def raiser(*args, **kwargs):
        raise AssertionError("unexpected dense decomposition")

    for name in names:
        monkeypatch.setattr(linalg if name.startswith("_") else np.linalg, name, raiser)


def _spy(monkeypatch, name) -> list:
    """Record the return value of every call to the ``dfrep.linalg`` kernel."""
    calls = []
    kernel = getattr(linalg, name)

    def recorder(*args):
        calls.append(kernel(*args))
        return calls[-1]

    monkeypatch.setattr(linalg, name, recorder)
    return calls


def _psd(rng, n, rank):
    """``V D V^dag`` with Haar V (n x rank) and D uniform in [0.5, 1.5],
    made exactly Hermitian."""
    v = haar_unitary(n, rng)[:, :rank]
    h = (v * rng.uniform(0.5, 1.5, rank)) @ v.conj().T
    return (h + h.conj().T) / 2


class TestRankOnePairTables:
    @pytest.mark.parametrize("dim", range(3, 13))
    @pytest.mark.parametrize("kind", KINDS)
    def test_polarization_atoms_match_materialised(self, kind, dim, rng):
        d = _random_backends(dim, rng)[kind]
        support, coeff = polarization_atoms(dim)
        atoms = rank_one_matrices(support, coeff, dim)
        fast = d.rank_one_table_against((support, coeff))((support, coeff))
        assert fast.shape == (len(support), len(support))
        assert _rel(fast, d.pair_table(atoms, atoms)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_supports_match_scalar_loop(self, kind, rng):
        """Unnormalised vectors with random, sometimes repeated, supports."""
        dim = 6
        d = _random_backends(dim, rng)[kind]
        left = (rng.integers(0, dim, (7, 2)), _cmat(rng, 7)[:, :2])
        right = (rng.integers(0, dim, (9, 2)), _cmat(rng, 9)[:, :2])
        fast = d.rank_one_table_against(right)(left)
        ref = DecoherenceFunctional.pair_table(
            d, rank_one_matrices(*left, dim), rank_one_matrices(*right, dim)
        )
        assert _rel(fast, ref) <= 1e-12
        assert _rel(DecoherenceFunctional.rank_one_table_against(d, right)(left), ref) <= 1e-12

    def test_operator_table_and_oracle_share_one_reader(self, rng, monkeypatch):
        """The operator backend's atom table and the reconstructor's oracle
        both read the product diagonal off P through one linalg kernel."""
        dim = 3
        x = _cmat(rng, dim * dim)
        calls = []
        kernel = linalg.rank_one_product_diagonal

        def spy(left, right, pairing):
            calls.append((left[0].shape, right[0].shape))
            return kernel(left, right, pairing)

        for module in (functionals, tracial):
            monkeypatch.setattr(module, "rank_one_product_diagonal", spy)
        atoms = polarization_atoms(dim)
        n = len(atoms[0])
        OperatorBackedFunctional(x).rank_one_table_against(atoms)(atoms)
        assert calls == [((n, 2), (n, 2))]
        product_diagonal_of(x)(_cmat(rng, dim)[:, None], _cmat(rng, dim)[None])
        assert calls[1:] == [((dim, dim), (dim, dim))]

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_operator_table_equals_oracle_on_densified_atoms(self, dim, rng):
        x = _cmat(rng, dim * dim)
        assert np.abs(x - x.conj().T).max() > 0.1
        atoms = polarization_atoms(dim)
        v = rank_one_vectors(*atoms, dim)
        table = OperatorBackedFunctional(x).rank_one_table_against(atoms)(atoms)
        assert np.array_equal(table, product_diagonal_of(x)(v[:, None], v[None]))

    def test_reader_on_wide_supports(self, rng):
        """Supports of three and four entries, some repeated, as an
        ``(n, k)`` against an ``(m, k')`` set; then dense vectors with 3 to
        5 nonzero entries through the oracle."""
        dim = 5
        x = _cmat(rng, dim * dim)
        ref = _scalar_product_diagonal_of(x)
        (sv, cv), (sw, cw) = ((rng.integers(0, dim, (n, k)), _cmat(rng, n)[:, :k]) for n, k in ((4, 3), (6, 4)))
        vals = linalg.rank_one_product_diagonal((sv, cv), (sw, cw), pairing_realignment(x))
        alphas, betas = rank_one_vectors(sv, cv, dim), rank_one_vectors(sw, cw, dim)
        assert vals.shape == (4, 6)
        assert _rel(vals, [[ref(a, b) for b in betas] for a in alphas]) <= 1e-13
        alphas = _cmat(rng, dim)[:4] * (rng.random((4, dim)) < 0.6)
        alphas[:, :3] = _cmat(rng, 4)[:, :3]
        f = product_diagonal_of(x)
        vals = f(alphas[:, None], betas[None])
        assert vals.shape == (4, 6)
        assert _rel(vals, [[ref(a, b) for b in betas] for a in alphas]) <= 1e-13

    def test_vectors_accumulate_repeated_support(self):
        support = np.array([[0, 2], [1, 1]])
        coeff = np.array([[1.0, 2.0j], [3.0, 4.0]])
        v = rank_one_vectors(support, coeff, 3)
        assert np.array_equal(v, [[1, 0, 2j], [0, 7, 0]])
        assert np.array_equal(rank_one_matrices(support, coeff, 3)[1], np.diag([0, 49, 0]))


class TestHermitianNormRoute:
    # 600 exceeds the split block, so the blockwise split covers block pairs.
    @pytest.mark.parametrize("n", [1, 7, 40, 600])
    def test_hermitian_input_matches_svd_without_svd(self, n, rng, monkeypatch):
        a = _cmat(rng, n)
        h = (a + a.conj().T) / 2
        s = _svd(h)
        _forbid(monkeypatch, "svd")
        assert trace_norm(h) == pytest.approx(s.sum(), rel=1e-13)
        assert operator_norm(h) == pytest.approx(s.max(), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 9, 600])
    def test_non_hermitian_input_uses_svd(self, n, rng, monkeypatch):
        a = _cmat(rng, n)
        s = _svd(a)
        _forbid(monkeypatch, "eigvalsh")
        assert trace_norm(a) == pytest.approx(s.sum(), rel=1e-14)
        assert operator_norm(a) == pytest.approx(s.max(), rel=1e-14)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_swapped_pairing_operator_takes_hermitian_route(self, dim, rng, monkeypatch):
        x = random_valid_pairing_operator(dim, rng)
        wx = _swapped(x)
        assert np.array_equal(wx, swap_operator(dim) @ x)
        s = _svd(x)
        _forbid(monkeypatch, "svd")
        assert trace_norm(wx) == pytest.approx(s.sum(), rel=1e-13)
        assert operator_norm(wx) == pytest.approx(s.max(), rel=1e-13)
        assert ils_operator_from_matrix(x).trace_norm == pytest.approx(s.sum(), rel=1e-13)

    def test_planted_swap_violation_falls_back_to_svd(self, rng, monkeypatch):
        dim = 4
        x = random_valid_pairing_operator(dim, rng) + 1e-6 * _cmat(rng, dim * dim)
        holder = ils_operator_from_matrix(x)
        assert verify_ils_conditions(holder).swap_adjoint_residual > 1e-7
        _forbid(monkeypatch, "eigvalsh")
        assert holder.trace_norm == pytest.approx(_svd(x).sum(), rel=1e-14)

    def test_guard_threshold(self, rng, monkeypatch):
        """The route switches where sqrt(n) ||S||_F crosses
        HERMITIAN_ROUTE_REL ||H||_F, and inside it the result still agrees
        with the SVD to that relative bound."""
        n = 16
        a = _cmat(rng, n)
        h = (a + a.conj().T) / 2
        s = _cmat(rng, n)
        s = (s - s.conj().T) / 2
        s /= np.linalg.norm(s)
        edge = HERMITIAN_ROUTE_REL * np.linalg.norm(h) / np.sqrt(n)
        inside, outside = h + 0.5 * edge * s, h + 2.0 * edge * s
        ref = _svd(inside).sum()
        with monkeypatch.context() as m:
            _forbid(m, "svd")
            assert abs(trace_norm(inside) - ref) <= HERMITIAN_ROUTE_REL * ref
            with pytest.raises(AssertionError):
                trace_norm(outside)
        _forbid(monkeypatch, "eigvalsh")
        assert trace_norm(outside) == pytest.approx(_svd(outside).sum(), rel=1e-14)

    def test_overwrite_only_when_asked(self, rng):
        x = random_valid_pairing_operator(4, rng)
        wx = _swapped(x)
        kept = wx.copy()
        ref = trace_norm(wx)
        assert np.array_equal(wx, kept)
        assert trace_norm(wx, overwrite_a=True) == pytest.approx(ref, rel=1e-15)
        h = (kept + kept.conj().T) / 2
        assert np.abs(wx - h).max() <= 1e-15 * np.abs(h).max()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_holder_norms_leave_the_pairing_intact(self, dim, rng):
        """The norms overwrite a fresh W X or W M, never the held P: at
        d = 1 the index transpose of P is P itself."""
        x = random_valid_pairing_operator(dim, rng) if dim > 1 else np.array([[1 + 1e-15j]])
        holder = ils_operator_from_matrix(x)
        kept = holder.pairing.copy()
        assert holder.trace_norm == pytest.approx(_svd(x).sum(), rel=1e-13)
        assert np.array_equal(holder.pairing, kept)
        assert np.array_equal(holder.x_op, x)
        if dim > 1:
            top = build_tracial_operator(OperatorBackedFunctional(x))
            kept = top.pairing.copy()
            assert top.operator_norm == pytest.approx(_svd(top.x_op).max(), rel=1e-13)
            assert np.array_equal(top.pairing, kept)


class TestCertifiedTraceNorm:
    """Positive semidefinite H: tr H from a blocked Cholesky (full rank) or
    ||L||_F^2 from a pivoted partial Cholesky (low rank); anything else
    falls through to eigvalsh on an unchanged H."""

    # 600 exceeds the factor block, so the left-looking update and the
    # off-diagonal solve run.
    @pytest.mark.parametrize("n", [7, 40, 600])
    def test_positive_definite_takes_blocked_cholesky(self, n, rng, monkeypatch):
        h = _psd(rng, n, n)
        ref = _svd(h).sum()
        _forbid(monkeypatch, "svd", "eigvalsh", "_pivoted_trace")
        assert trace_norm(h) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("dim", [3, 10, 25])
    @pytest.mark.parametrize("which", ["one", "dim", "tenth"])
    def test_low_rank_takes_pivoted_cholesky(self, dim, which, rng, monkeypatch):
        n = dim * dim
        rank = {"one": 1, "dim": dim, "tenth": max(1, n // 10)}[which]
        h = _psd(rng, n, rank)
        ref = _svd(h).sum()
        blocked = _spy(monkeypatch, "_cholesky_certifies")
        pivoted = _spy(monkeypatch, "_pivoted_trace")
        _forbid(monkeypatch, "svd", "eigvalsh")
        got = trace_norm(h)
        assert blocked == [False] and pivoted == [got]
        assert got == pytest.approx(ref, rel=1e-12)

    def _assert_falls_through(self, h, monkeypatch):
        pristine = h.copy()
        ref = float(np.sum(np.abs(np.linalg.eigvalsh(pristine))))
        blocked = _spy(monkeypatch, "_cholesky_certifies")
        pivoted = _spy(monkeypatch, "_pivoted_trace")
        _forbid(monkeypatch, "svd")
        assert trace_norm(h, overwrite_a=True) == ref
        assert np.array_equal(h, pristine)
        assert blocked == [False] and pivoted == [None]

    @pytest.mark.parametrize("n, rank", [(40, 40), (600, 600), (600, 60)])
    def test_planted_negative_eigenvalue_falls_back(self, n, rank, rng, monkeypatch):
        v = haar_unitary(n, rng)
        lam = np.zeros(n)
        lam[:rank] = rng.uniform(0.5, 1.5, rank)
        lam[-1] = -1e-10 * lam.sum()
        h = (v * lam) @ v.conj().T
        self._assert_falls_through((h + h.conj().T) / 2, monkeypatch)

    def test_indefinite_swapped_product_state_falls_back(self, rng, monkeypatch):
        dim = 5
        wx = _swapped(product_state_operator(random_density(dim, rng)))
        h = (wx + wx.conj().T) / 2  # exactly Hermitian, so trace_norm keeps it
        assert np.linalg.eigvalsh(h).min() < -1e-3
        self._assert_falls_through(h, monkeypatch)

    @pytest.mark.parametrize("n", [1, 5, 600])
    def test_zero_matrix(self, n, monkeypatch):
        _forbid(monkeypatch, "svd", "eigvalsh")
        assert trace_norm(np.zeros((n, n))) == 0.0

    def test_one_by_one(self, monkeypatch):
        with monkeypatch.context() as m:
            _forbid(m, "svd", "eigvalsh", "_pivoted_trace")
            assert trace_norm([[2.5]]) == 2.5
        _forbid(monkeypatch, "svd", "cholesky", "_pivoted_trace")
        assert trace_norm([[-2.5]]) == 2.5  # tr H < 0: straight to eigvalsh

    @pytest.mark.parametrize("dim", range(3, 13))
    @pytest.mark.parametrize("kind", KINDS)
    def test_ils_trace_norm_matches_svd(self, kind, dim, rng, monkeypatch):
        """W X is I (x) |psi><psi| for a pure state and I (x) rho' for a
        single-time class operator: both are certified without eigvalsh.
        The other backends may be indefinite, and then no certificate may
        be issued."""
        d = _random_backends(dim, rng)[kind]
        if kind == "operator":  # the random X of _random_backends is not swap-Hermitian
            d = OperatorBackedFunctional(random_valid_pairing_operator(dim, rng))
        holder = extract_ils(d)
        ref = _svd(holder.x_op).sum()
        wx = operator_from_pairing(holder.pairing, swapped=True)
        indefinite = np.linalg.eigvalsh((wx + wx.conj().T) / 2).min() < -1e-9 * ref
        blocked = _spy(monkeypatch, "_cholesky_certifies")
        pivoted = _spy(monkeypatch, "_pivoted_trace")
        if kind in ("pure_state", "class_operator"):
            _forbid(monkeypatch, "svd", "eigvalsh")
        assert holder.trace_norm == pytest.approx(ref, rel=1e-12)
        if indefinite:  # tr H < 0 skips both attempts
            assert blocked + pivoted in ([], [False, None])


class TestLazyTraceNorm:
    def test_verify_conditions_and_probe_skip_it(self, rng, monkeypatch, capsys):
        x = random_valid_pairing_operator(4, rng)
        _forbid(monkeypatch, *NORM_KERNELS)
        scenario = ROOT / "scenarios" / "operator_product_state_dim3.json"
        assert main(["verify-conditions", "--scenario", str(scenario)]) == 0
        assert '"verdict":"pass"' in capsys.readouterr().out
        d = OperatorBackedFunctional(x)
        assert verify_ils_conditions(d).passed
        assert _sup_beta_rank_one(extract_ils(d, allow_dim_two=True).x_op, d.dim, 20, 0) > 0
        holder = ils_operator_from_matrix(x)
        assert "trace_norm" not in vars(holder)
        with pytest.raises(AssertionError):
            holder.trace_norm

    def test_sweep_and_probe_skip_the_condition_checks(self, rng, monkeypatch, capsys):
        """Only verify_ils_conditions computes the swap residual and the
        sampled positivity; the extraction inside a sweep or a probe
        computes neither."""

        def raiser(*args, **kwargs):
            raise AssertionError("condition check outside verify_ils_conditions")

        for name in ("_sample_positivity_min", "swap_adjoint_residual"):
            monkeypatch.setattr(ils, name, raiser)
        d = OperatorBackedFunctional(random_valid_pairing_operator(4, rng))
        assert _sup_beta_rank_one(extract_ils(d, allow_dim_two=True).x_op, d.dim, 20, 0) > 0
        scenario = ROOT / "scenarios" / "pure_state_dim3.json"
        assert main(["sweep", "--scenario", str(scenario), "--dims", "3,4", "--samples", "20"]) == 0
        assert '"command":"sweep"' in capsys.readouterr().out

    def test_computed_once(self, rng, monkeypatch):
        holder = ils_operator_from_matrix(random_valid_pairing_operator(3, rng))
        first = holder.trace_norm
        with monkeypatch.context() as m:
            _forbid(m, *NORM_KERNELS)
            assert holder.trace_norm == first
        form = _random_backends(3, rng)["form"]
        with monkeypatch.context() as m:  # no eigvalsh of W M before the first read
            _forbid(m, "eigvalsh")
            top = build_tracial_operator(form)
            assert "operator_norm" not in vars(top)
        norm = top.operator_norm
        assert norm == pytest.approx(_svd(top.x_op).max(), rel=1e-13)
        _forbid(monkeypatch, *NORM_KERNELS)
        assert top.operator_norm == norm


class TestTracialWithoutEigenvectors:
    @pytest.mark.parametrize("kind", KINDS)
    def test_family_sizes_and_operator_norm(self, kind, rng, monkeypatch):
        d = _random_backends(4, rng)[kind]
        if kind == "operator":  # the random X of _random_backends is not swap-Hermitian
            d = OperatorBackedFunctional(random_valid_pairing_operator(4, rng))
        top = build_tracial_operator(d)
        assert top.operator_norm == pytest.approx(_svd(top.x_op).max(), rel=1e-13)
        with monkeypatch.context() as m:
            _forbid(m, "eigh")
            sizes = family_sizes(top)
        dec = hermitian_form_decomposition(d)
        assert sizes == (len(dec.x_family), len(dec.y_family))

    def test_swapped_representative_is_exactly_hermitian(self, rng):
        top = build_tracial_operator(_random_backends(4, rng)["form"])
        wm = operator_from_pairing(top.pairing, swapped=True)
        assert np.array_equal(wm, wm.conj().T)


class TestBatchedBetaChecks:
    @pytest.mark.parametrize("count", [6, 300])
    def test_tensor_sums_keep_the_draw_stream(self, count):
        dim = 3
        a, b, starts = _random_tensor_sums(dim, count, np.random.default_rng(11))
        ref_a, ref_b, ref_starts = [], [], []
        for terms in block_tensor_terms((dim, dim), count, np.random.default_rng(11)):
            ref_starts.append(len(ref_a))
            ref_a += [t[0] for t in terms]
            ref_b += [t[1] for t in terms]
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        assert list(starts) == ref_starts
        with pytest.raises(ValueError, match="samples must be >= 1"):
            _random_tensor_sums(dim, 0, np.random.default_rng(11))

    def test_term_values_sum_to_beta(self, rng):
        dec = hermitian_form_decomposition(_random_backends(3, rng)["form"])
        a = np.stack([_cmat(rng, 3) for _ in range(4)])
        b = np.stack([_cmat(rng, 3) for _ in range(4)])
        vals = dec.term_values(a, b)
        assert vals.shape == (4,)
        ref = dec.beta(ElementaryTensorSum(tuple(zip(a, b))))
        assert abs(vals.sum() - ref) <= 1e-12 * max(1.0, abs(ref))
        for k in range(4):
            one = dec.beta(ElementaryTensorSum(((a[k], b[k]),)))
            assert abs(vals[k] - one) <= 1e-12 * max(1.0, abs(one))


class TestGramTolerance:
    def test_one_tolerance_for_form_and_gram(self):
        assert tracial.GRAM_HERMITICITY_REL is functionals.GRAM_HERMITICITY_REL
        g = np.eye(9, dtype=complex)
        g[0, 1] = 1e-8
        FormBackedFunctional(g)
        g[0, 1] = 3e-8  # ||G - G^dag||_F = 4.2e-8 > 1e-8 * ||G||_F
        with pytest.raises(ValueError, match="Hermitian"):
            FormBackedFunctional(g)
        with pytest.raises(TypeError):
            FormBackedFunctional(np.eye(9), tol=1.0)
