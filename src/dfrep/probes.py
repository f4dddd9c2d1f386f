"""Boundedness diagnostics across truncation dimensions.

:func:`tensor_bound_probe` sweeps truncation dimensions, seeded and
deterministic.  Per dimension it records the trace norm of the extracted
trace-pairing operator, whose growth or stabilization is the finite-size
evidence for the trace-class dichotomy, and ``sup |beta(p_xi)|`` over
random unit vectors in the algebraic tensor subspace (sums of one to four
elementary tensors).

Verdicts are labelled *evidence*, never proofs: a certified decision is not
possible from finitely many truncations, so the sweep thresholds in
:mod:`dfrep.tolerances` are declared cutoffs and every report embeds its
sample count.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .ils import extract_ils
from .linalg import (
    MAX_DIM,
    MAX_TERMS,
    DimensionLimitError,
    block_draws,
    sample_blocks,
    stack_norms,
)
from .tolerances import MIN_DIMS_FOR_SLOPE, SLOPE_THRESHOLD, SPREAD_THRESHOLD, TENSOR_VECTOR_FLOOR

VERDICT_TENSOR_BOUNDED = "tensor_bounded_evidence"
VERDICT_DIVERGENCE = "divergence_evidence"
VERDICT_INCONCLUSIVE = "inconclusive"


def _sample_tensor_vectors(dim: int, samples: int, rng):
    """Seeded unit vectors in the algebraic tensor subspace, yielded per
    block of ``SAMPLE_BLOCK`` samples as ``(rows, terms)``: the ``(n,
    dim*dim)`` unit vectors and the number of terms of each.

    Each sample is a normalized sum of one to ``MAX_TERMS`` elementary
    tensors ``a (x) g`` of complex Gaussian factors, whose term counts and
    the real and imaginary parts of every ``a`` and ``g`` are drawn by
    :func:`dfrep.linalg.block_draws`.  So the first n samples do not depend
    on the total count, and running suprema are exactly monotone in
    ``samples``.  The sums are one batched matmul over zero-padded term
    stacks.
    """
    for terms, normals in block_draws(rng, samples, 1, MAX_TERMS + 1, (4, dim)):
        n = len(terms)
        # Term k of sample s is z[s, k], and zero for k >= terms[s].
        z = np.zeros((n, MAX_TERMS, 4, dim))
        z[np.arange(MAX_TERMS) < terms[:, None]] = normals
        del normals  # not held while the block is consumed
        a = z[:, :, 0] + 1j * z[:, :, 1]
        g = z[:, :, 2] + 1j * z[:, :, 3]
        rows = (a.transpose(0, 2, 1) @ g).reshape(n, dim * dim)
        nrm = stack_norms(rows)
        # Measure-zero cancellation: fall back to e1 (x) e1.
        small = nrm < TENSOR_VECTOR_FLOOR
        rows[small] = 0.0
        rows[small, 0] = 1.0
        nrm[small] = 1.0
        rows /= nrm[:, None]
        yield rows, terms


def _sup_beta_rank_one(x_op: np.ndarray, dim: int, samples: int, seed: int) -> float:
    """sup |beta(p_xi)| via the pairing identity ``beta(p_xi) = <X xi, xi>``.

    The identity holds exactly for the extracted trace-pairing operator
    (both sides are the same linear functional on the algebraic tensor
    product); the definitional term-pair route is kept as a test oracle in
    ``tests/reference.py``.  The estimate is a running max, deterministic
    per seed and exactly non-decreasing in ``samples``.  Each block of
    samples is evaluated and dropped before the next is drawn.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    sup = 0.0
    for rows, _ in _sample_tensor_vectors(dim, samples, rng):
        vals = np.abs(np.einsum("nd,nd->n", rows.conj(), rows @ x_op.T))
        sup = max(sup, float(np.max(vals)))
    return sup


class SweepReport(NamedTuple):
    """The ``sweep`` summary: one record per dimension (``dim``,
    ``trace_norm``, ``sup_beta_rank_one``, ``elapsed_ms``) and the verdict."""

    records: list
    verdict: str
    growth_slope: float
    samples: int

    @property
    def dims(self) -> tuple:
        return tuple(r["dim"] for r in self.records)


def _sweep_verdict(dims, trace_norms, slope) -> str:
    if len(dims) >= MIN_DIMS_FOR_SLOPE and slope >= SLOPE_THRESHOLD:
        return VERDICT_DIVERGENCE
    if len(dims) >= 3:
        top = np.asarray(trace_norms[-3:])
        mean = float(np.mean(top))
        if mean > 0 and float(np.max(top) - np.min(top)) / mean < SPREAD_THRESHOLD:
            return VERDICT_TENSOR_BOUNDED
    return VERDICT_INCONCLUSIVE


def _extract_member(d_family, dim: int):
    """The trace-pairing operator of ``d_family(dim)``; the functional,
    which may hold a dense operator as large as X, is not kept."""
    d = d_family(dim)
    if d.dim != dim:
        raise ValueError(f"family returned dim {d.dim} for requested {dim}")
    return extract_ils(d, allow_dim_two=True)


def sweep_dims(dims, min_dim: int = 2) -> list:
    """``dims`` as a list of ints, once they are checked: non-empty,
    strictly ascending, at least ``min_dim`` and at most ``MAX_DIM``;
    ``ValueError`` otherwise."""
    dims = [int(x) for x in dims]
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("sweep dimensions must be non-empty and strictly ascending")
    if dims[0] < min_dim:
        raise ValueError(f"sweep dimensions must be >= {min_dim}")
    if dims[-1] > MAX_DIM:
        raise DimensionLimitError(f"dimension {dims[-1]} exceeds the dense limit {MAX_DIM}")
    return dims


def tensor_bound_probe(d_family, dims, samples: int = 1000, seed: int = 0) -> SweepReport:
    """Sweep a dimension-indexed family of functionals.

    ``d_family(dim)`` must return the truncation of the functional at that
    dimension.  Per dimension the trace-pairing operator is extracted and
    its trace norm recorded together with the beta supremum over sampled
    tensor-subspace projections.

    Dimension two is admitted in sweeps: trace norms of truncated pairing
    operators are well defined for the intrinsic backends even where the
    representation theorems do not apply.
    """
    dims = sweep_dims(dims)
    sample_blocks(samples)  # the sample-count rule, before any member is extracted
    records = []
    for dim in dims:
        t0 = time.perf_counter()
        x = _extract_member(d_family, dim)
        records.append(
            {
                "dim": dim,
                "trace_norm": x.trace_norm,
                "sup_beta_rank_one": _sup_beta_rank_one(x.x_op, dim, samples, seed),
                "elapsed_ms": (time.perf_counter() - t0) * 1e3,
            }
        )
    trace_norms = [r["trace_norm"] for r in records]
    slope = float(np.polyfit(dims, trace_norms, 1)[0]) if len(dims) >= 2 else 0.0
    return SweepReport(records, _sweep_verdict(dims, trace_norms, slope), slope, samples)
