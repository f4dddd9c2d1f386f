from __future__ import annotations

import numpy as np
import pytest

from dfrep import (
    OperatorBackedFunctional,
    PureStateFunctional,
    extract_ils,
    operator_norm,
    pure_state_m,
    tensor_bound_probe,
    trace_norm,
)
from dfrep.linalg import projection_blocks
from dfrep.probes import (
    VERDICT_DIVERGENCE,
    VERDICT_INCONCLUSIVE,
    VERDICT_TENSOR_BOUNDED,
    _sample_tensor_vectors,
    _sup_beta_rank_one,
    _sweep_verdict,
)
from reference import beta_of_product_projection, rank_one_proj
from conftest import rho_half_half


def _e(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _pure_family(n):
    return PureStateFunctional(_e(n, 0))


def _constant_family(n):
    rho = rho_half_half(n)
    return OperatorBackedFunctional(np.kron(rho, rho))


def _sup_beta(d, samples, seed):
    """The sweep's sup |beta(p_xi)| estimate for the one functional d."""
    return _sup_beta_rank_one(extract_ils(d, allow_dim_two=True).x_op, d.dim, samples, seed)


class TestTracialBoundProbe:
    def test_pure_state_bounded_by_operator_norm(self):
        # |<PU xi, xi>| <= ||PU|| = 1 for every unit xi
        d = _pure_family(6)
        sup = _sup_beta(d, samples=2000, seed=1)
        assert sup <= 1 + 1e-9
        assert sup > 0.0

    def test_operator_backend_holder_bound(self):
        rho = rho_half_half(4)
        x0 = np.kron(rho, rho)
        d = OperatorBackedFunctional(x0)
        sup = _sup_beta(d, samples=1000, seed=2)
        assert sup <= trace_norm(x0) + 1e-9

    def test_monotone_in_samples_exactly(self):
        d = _pure_family(4)
        vals = [_sup_beta(d, samples=n, seed=11) for n in (10, 100, 500)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_elementary_vector_matches_projection_pair(self, rng):
        # beta(p_{alpha (x) gamma}) equals d on the rank-one pair
        d = _pure_family(4)
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        gamma = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha /= np.linalg.norm(alpha)
        gamma /= np.linalg.norm(gamma)

        direct = d.evaluate(rank_one_proj(alpha), rank_one_proj(gamma))
        assert abs(beta_of_product_projection(d, [(alpha, gamma)]) - direct) <= 1e-10

    def test_fast_path_matches_term_pair_route(self, rng):
        # the probe evaluates beta(p_xi) as <X xi, xi>; check against the
        # definitional expansion for every backend
        from conftest import backend_fixtures

        dim = 4
        for kind, d in backend_fixtures(dim).items():
            x = extract_ils(d)
            for _ in range(10):
                terms = [
                    (
                        rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
                        rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
                    )
                    for _ in range(int(rng.integers(1, 5)))
                ]
                xi = sum(np.kron(a, g) for a, g in terms)
                xi = xi / np.linalg.norm(xi)
                fast = complex(np.vdot(xi, x.x_op @ xi))
                slow = beta_of_product_projection(d, terms)
                assert abs(fast - slow) <= 1e-9, kind

    def test_works_at_dimension_two(self):
        assert _sup_beta(_pure_family(2), samples=200, seed=4) <= 1 + 1e-9


def _tensor_rows(dim, samples, rng):
    """All blocks of ``_sample_tensor_vectors`` as one row array, with the
    number of samples per term count."""
    blocks = list(_sample_tensor_vectors(dim, samples, rng))
    assert [len(r) for r, _ in blocks] == [len(t) for _, t in blocks]
    terms = np.concatenate([t for _, t in blocks])
    counts = {int(t): int(c) for t, c in enumerate(np.bincount(terms)) if c}
    return np.concatenate([r for r, _ in blocks]), counts


# 200 samples fill part of one block, 300 spill into a second and 700 fill
# two blocks and part of a third.
BLOCK_SPANS = (200, 300, 700)


def _seeded(seed, dim):
    return np.random.default_rng(np.random.SeedSequence([seed, dim]))


class TestSampling:
    def test_unit_norm_and_length_mix(self):
        rng = np.random.default_rng(0)
        rows, counts = _tensor_rows(3, 500, rng)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
        assert set(counts) <= {1, 2, 3, 4}
        assert sum(counts.values()) == 500
        assert len(counts) == 4  # all lengths appear at this sample size

    def test_prefix_stability(self):
        rows = {n: _tensor_rows(3, n, _seeded(5, 3))[0] for n in (50,) + BLOCK_SPANS}
        for n in (50,) + BLOCK_SPANS[:-1]:
            assert np.array_equal(rows[n], rows[700][:n])

    @pytest.mark.parametrize("min_rank", [0, 1])
    def test_projection_prefix_stability(self, min_rank):
        stacks = {n: np.concatenate([*projection_blocks(4, n, _seeded(5, 4), min_rank)]) for n in BLOCK_SPANS}
        for n in BLOCK_SPANS[:-1]:
            assert np.array_equal(stacks[n], stacks[700][:n])


class TestMonotoneSuprema:
    """Running suprema across block boundaries: exactly non-decreasing in
    ``samples`` and equal to the running max of the per-sample values."""

    def test_sup_beta_rank_one(self):
        dim, seed = 4, 2
        d = _pure_family(dim)
        x_op = extract_ils(d).x_op
        sups = [_sup_beta(d, samples=n, seed=seed) for n in BLOCK_SPANS]
        assert sups == sorted(sups)
        rows, _ = _tensor_rows(dim, 700, _seeded(seed, dim))
        vals = np.abs(np.einsum("nd,nd->n", rows.conj(), rows @ x_op.T))
        for n, sup in zip(BLOCK_SPANS, sups):
            assert sup == pytest.approx(float(np.max(vals[:n])), rel=1e-14)


class TestSupBetaBlocks:
    @pytest.mark.parametrize("samples", [1, 256, 700])
    def test_blocked_sup_matches_whole_stack(self, samples):
        # 700 rows: two full blocks of SAMPLE_BLOCK and a partial one.
        dim, seed = 4, 3
        x_op = extract_ils(PureStateFunctional(_e(dim, 1))).x_op
        x_op = x_op + 0.1 * np.random.default_rng(0).standard_normal(x_op.shape)
        sup = _sup_beta_rank_one(x_op, dim, samples, seed)
        xis, _ = _tensor_rows(dim, samples, _seeded(seed, dim))
        ref = float(np.max(np.abs(np.einsum("nd,nd->n", xis.conj(), xis @ x_op.T))))
        assert sup == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestTensorBoundProbe:
    def test_constant_family_stabilizes(self):
        report = tensor_bound_probe(_constant_family, [3, 4, 5, 6], samples=200, seed=1)
        assert report.verdict == VERDICT_TENSOR_BOUNDED
        trace_norms = [r["trace_norm"] for r in report.records]
        assert max(trace_norms) - min(trace_norms) <= 1e-8
        assert abs(report.growth_slope) <= 1e-8

    def test_pure_state_family_diverges(self):
        report = tensor_bound_probe(_pure_family, list(range(2, 9)), samples=300, seed=1)
        assert report.verdict == VERDICT_DIVERGENCE
        for r in report.records:
            assert r["trace_norm"] == pytest.approx(r["dim"], abs=1e-8)
        assert report.growth_slope == pytest.approx(1.0, abs=1e-6)
        assert all(r["sup_beta_rank_one"] <= 1 + 1e-9 for r in report.records)

    def test_verdicts_stable_across_seeds(self):
        for seed in range(1, 11):
            r1 = tensor_bound_probe(_constant_family, [3, 4, 5], samples=50, seed=seed)
            assert r1.verdict != VERDICT_DIVERGENCE
            r2 = tensor_bound_probe(_pure_family, [2, 3, 4, 5, 6], samples=50, seed=seed)
            assert r2.verdict != VERDICT_TENSOR_BOUNDED

    def test_records_shape(self):
        report = tensor_bound_probe(_constant_family, [3, 4, 5], samples=20, seed=2)
        assert report._fields == ("records", "verdict", "growth_slope", "samples")
        assert report.dims == (3, 4, 5)
        recs = report.records
        assert [r["dim"] for r in recs] == [3, 4, 5]
        assert all(set(r) == {"dim", "trace_norm", "sup_beta_rank_one", "elapsed_ms"} for r in recs)
        assert report.samples == 20

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            tensor_bound_probe(_pure_family, [4, 3], samples=10, seed=0)
        with pytest.raises(ValueError):
            tensor_bound_probe(_pure_family, [], samples=10, seed=0)
        with pytest.raises(ValueError):
            tensor_bound_probe(_pure_family, [1, 2], samples=10, seed=0)

    def test_verdict_rules(self):
        assert _sweep_verdict([2, 3, 4, 5], [2, 3, 4, 5], 1.0) == VERDICT_DIVERGENCE
        assert _sweep_verdict([3, 4, 5], [1.0, 1.0, 1.0], 0.0) == VERDICT_TENSOR_BOUNDED
        assert _sweep_verdict([3, 4], [1.0, 1.2], 0.2) == VERDICT_INCONCLUSIVE


class TestPureStateSignature:
    def test_divergence_with_bounded_sup(self):
        # trace norms grow linearly while the beta sup stays <= 1: the
        # sweep-level witness separating the two boundedness notions
        report = tensor_bound_probe(_pure_family, list(range(2, 7)), samples=500, seed=8)
        assert report.verdict == VERDICT_DIVERGENCE
        assert all(r["sup_beta_rank_one"] <= 1 + 1e-9 for r in report.records)
        for n in report.dims:
            assert operator_norm(pure_state_m(_e(n, 0))) <= 1 + 1e-9


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
