"""Boundedness diagnostics across truncation dimensions.

Three probes, all seeded and deterministic:

* :func:`boundedness_probe` — plain boundedness, ``max |d(p, q)|`` over
  random projection pairs of all ranks;
* :func:`tracial_bound_probe` — ``sup |beta(p_xi)|`` over random unit
  vectors in the algebraic tensor subspace (sums of one to four elementary
  tensors);
* :func:`tensor_bound_probe` — a sweep over truncation dimensions recording
  the trace norm of the extracted trace-pairing operator per dimension,
  whose growth or stabilization is the finite-size evidence for the
  trace-class dichotomy.

Verdicts are labelled *evidence*, never proofs: a certified decision is not
possible from finitely many truncations, so the thresholds below are
declared cutoffs and every report embeds its seeds and sample counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .functionals import DecoherenceFunctional
from .ils import extract_ils
from .linalg import sample_projections, stack_norms

VERDICT_TENSOR_BOUNDED = "tensor_bounded_evidence"
VERDICT_DIVERGENCE = "divergence_evidence"
VERDICT_INCONCLUSIVE = "inconclusive"

# Declared cutoffs for the sweep verdict: trace norms fitted with slope at
# least 1/2 over at least four dimensions count as divergence; a relative
# spread below 1% across the top three dimensions counts as stabilization.
SLOPE_THRESHOLD = 0.5
MIN_DIMS_FOR_SLOPE = 4
SPREAD_THRESHOLD = 0.01


def boundedness_probe(
    d: DecoherenceFunctional, dim: int | None = None, samples: int = 500, seed: int = 0
) -> float:
    """Running max of |d(p, q)| over seeded random projection pairs across
    all ranks.  Non-decreasing in ``samples`` for a fixed seed."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if dim is None:
        dim = d.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    # p and q alternate in the stream, as in a per-pair loop.
    pq = sample_projections(dim, 2 * samples, rng)
    return float(np.max(np.abs(d.pair_values(pq[0::2], pq[1::2]))))


def _sample_tensor_vectors(dim: int, samples: int, rng, max_terms: int = 4):
    """Seeded unit vectors in the algebraic tensor subspace.

    Each sample is a normalized sum of one to ``max_terms`` elementary
    tensors ``a (x) g`` of complex Gaussian factors.  Draws happen strictly
    per sample (the term count, then one fused ``standard_normal`` for the
    real and imaginary parts of every ``a`` and ``g``, which is the same
    stream as drawing them one by one), so for a fixed generator state the
    first n samples do not depend on the total count (running suprema are
    exactly monotone in ``samples``).  The tensors are then assembled in one
    batch per term count.  Returns the ``(samples, dim*dim)`` rows and the
    number of samples per term count.
    """
    terms = np.empty(samples, dtype=int)
    z = np.empty((samples, max_terms, 4, dim))
    for n in range(samples):
        terms[n] = rng.integers(1, max_terms + 1)
        rng.standard_normal(out=z[n, : terms[n]].reshape(-1))  # a contiguous view
    rows = np.empty((samples, dim * dim), dtype=complex)
    counts = {}
    for t in np.unique(terms):
        idx = np.flatnonzero(terms == t)
        a = z[idx, :t, 0] + 1j * z[idx, :t, 1]
        g = z[idx, :t, 2] + 1j * z[idx, :t, 3]
        # Summed term by term, in the order the vectors were drawn.
        xi = a[:, 0, :, None] * g[:, 0, None, :]
        for k in range(1, t):
            xi += a[:, k, :, None] * g[:, k, None, :]
        rows[idx] = xi.reshape(len(idx), dim * dim)
        counts[int(t)] = len(idx)
    nrm = stack_norms(rows)
    # Measure-zero cancellation: fall back to e1 (x) e1.
    small = nrm < 1e-12
    rows[small] = 0.0
    rows[small, 0] = 1.0
    nrm[small] = 1.0
    rows /= nrm[:, None]
    return rows, counts


def _sup_beta_rank_one(x_op: np.ndarray, dim: int, samples: int, seed: int, max_terms: int):
    """sup |beta(p_xi)| via the pairing identity ``beta(p_xi) = <X xi, xi>``.

    The identity holds exactly for the extracted trace-pairing operator
    (both sides are the same linear functional on the algebraic tensor
    product); the definitional term-pair route is kept as a test oracle in
    :func:`dfrep.functionals.beta_of_product_projection`.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    xis, counts = _sample_tensor_vectors(dim, samples, rng, max_terms)
    vals = np.abs(np.einsum("nd,nd->n", xis.conj(), xis @ x_op.T))
    return float(np.max(vals)), counts


def tracial_bound_probe(
    d: DecoherenceFunctional,
    dim: int | None = None,
    samples: int = 1000,
    seed: int = 0,
    max_terms: int = 4,
) -> float:
    """Estimate ``sup |beta(p_xi)|`` over the algebraic tensor subspace.

    A uniformly bounded sup across dimensions is the signature of tracial
    boundedness; the estimate is a running max, deterministic per seed and
    exactly non-decreasing in the sample count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if dim is None:
        dim = d.dim
    x = extract_ils(d, dim, allow_dim_two=True)
    sup, _ = _sup_beta_rank_one(x.x_op, dim, samples, seed, max_terms)
    return sup


@dataclass(frozen=True)
class SweepReport:
    """Per-dimension trace norms and beta suprema with a growth verdict."""

    dims: tuple
    trace_norms: tuple
    sup_beta_rank_one: tuple
    elapsed_ms: tuple
    length_counts: tuple
    growth_slope: float
    verdict: str
    seed: int
    samples: int

    def records(self):
        return [
            {
                "dim": self.dims[i],
                "trace_norm": self.trace_norms[i],
                "sup_beta_rank_one": self.sup_beta_rank_one[i],
                "elapsed_ms": self.elapsed_ms[i],
            }
            for i in range(len(self.dims))
        ]


def _sweep_verdict(dims, trace_norms, slope) -> str:
    if len(dims) >= MIN_DIMS_FOR_SLOPE and slope >= SLOPE_THRESHOLD:
        return VERDICT_DIVERGENCE
    if len(dims) >= 3:
        top = np.asarray(trace_norms[-3:])
        mean = float(np.mean(top))
        if mean > 0 and float(np.max(top) - np.min(top)) / mean < SPREAD_THRESHOLD:
            return VERDICT_TENSOR_BOUNDED
    return VERDICT_INCONCLUSIVE


def tensor_bound_probe(
    d_family, dims, samples: int = 1000, seed: int = 0, max_terms: int = 4
) -> SweepReport:
    """Sweep a dimension-indexed family of functionals.

    ``d_family(dim)`` must return the truncation of the functional at that
    dimension.  Per dimension the trace-pairing operator is extracted and
    its trace norm recorded together with the beta supremum over sampled
    tensor-subspace projections (the latter is exactly the value of
    :func:`tracial_bound_probe` at the same dimension and seed, so the
    tracial estimate never exceeds the sweep's by construction).

    Dimension two is admitted in sweeps: trace norms of truncated pairing
    operators are well defined for the intrinsic backends even where the
    representation theorems do not apply.
    """
    dims = [int(x) for x in dims]
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be non-empty and strictly ascending")
    if dims[0] < 2:
        raise ValueError("sweep dimensions must be >= 2")
    trace_norms = []
    sups = []
    elapsed = []
    lengths = []
    for dim in dims:
        t0 = time.perf_counter()
        d = d_family(dim)
        if d.dim != dim:
            raise ValueError(f"family returned dim {d.dim} for requested {dim}")
        x = extract_ils(d, dim, allow_dim_two=True)
        sup, counts = _sup_beta_rank_one(x.x_op, dim, samples, seed, max_terms)
        trace_norms.append(x.trace_norm)
        sups.append(sup)
        lengths.append(tuple(sorted(counts.items())))
        elapsed.append((time.perf_counter() - t0) * 1e3)
    slope = float(np.polyfit(dims, trace_norms, 1)[0]) if len(dims) >= 2 else 0.0
    return SweepReport(
        dims=tuple(dims),
        trace_norms=tuple(trace_norms),
        sup_beta_rank_one=tuple(sups),
        elapsed_ms=tuple(elapsed),
        length_counts=tuple(lengths),
        growth_slope=slope,
        verdict=_sweep_verdict(dims, trace_norms, slope),
        seed=seed,
        samples=samples,
    )
