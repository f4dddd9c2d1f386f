"""The trace-pairing (Isham-Linden-Schreckenberg) representation.

A bounded decoherence functional on a space of dimension >= 3 extends to a
bilinear form D, and at finite truncation D is realized by a unique
operator X on H (x) H through

    ``d(p, q) = tr((p (x) q) X)``.

The matrix elements of X are values of D on matrix units:

    ``X[(b,d), (a,c)] = D(E_ab, E_cd)``,

and every matrix unit is a fixed complex combination of rank-one
projections onto the six polarization vectors

    ``e_a,  e_b,  (e_a +/- e_b)/sqrt(2),  (e_a +/- i e_b)/sqrt(2)``,

so the whole construction only ever evaluates d on projections.  The
combination coefficients follow from

    ``E_ab + E_ba = p_{u+} - p_{u-}``,
    ``E_ab - E_ba = i (p_{v+} - p_{v-})``,

with ``u+- = (e_a +- e_b)/sqrt(2)`` and ``v+- = (e_a +- i e_b)/sqrt(2)``;
the linear system is solved in closed form, never by least squares.

The axioms of d translate into three operator conditions on X:

    (i)   ``X = W X^dag W``  with W the swap unitary   (Hermiticity),
    (ii)  ``tr((p (x) p) X) >= 0`` for all projections (positivity),
    (iii) ``tr(X) = 1``                                (normalization).

Positivity quantifies over a continuum and is reported as a sampled
minimum with its sample count and seed; no global claim is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import (
    DecoherenceFunctional,
    OperatorBackedFunctional,
    _check_dim,
)
from .linalg import (
    as_matrix,
    kron_trace,
    kron_trace_batch,
    sample_projections,
    trace_norm,
)

_SQ2 = np.sqrt(2.0)


# Left atoms per pair-table call in :func:`bilinear_unit_table`.
ATOM_BLOCK = 256


def polarization_atoms(dim: int):
    """Rank-one projections spanning all matrix units, plus the sparse
    expansion of each unit over them.

    Returns ``(atoms, index, coeffs)``: ``atoms`` is an ``(N, dim, dim)``
    stack of projection matrices with ``N = 2 dim^2 - dim``; ``index`` and
    ``coeffs`` are ``(dim^2, 4)`` arrays with

        ``E_ab = sum_k coeffs[a*dim+b, k] atoms[index[a*dim+b, k]]``.

    Every matrix unit has at most four nonzero coefficients: an off-diagonal
    unit uses the four atoms of its basis pair, a diagonal unit ``E_aa`` is
    atom ``a`` itself (its three spare slots carry coefficient 0).
    """
    atoms = []
    for a in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[a] = 1.0
        atoms.append(np.outer(e, e.conj()))
    pair_base = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            ea = np.zeros(dim, dtype=complex)
            eb = np.zeros(dim, dtype=complex)
            ea[a] = 1.0
            eb[b] = 1.0
            pair_base[(a, b)] = len(atoms)
            for vec in (
                (ea + eb) / _SQ2,
                (ea - eb) / _SQ2,
                (ea + 1j * eb) / _SQ2,
                (ea - 1j * eb) / _SQ2,
            ):
                atoms.append(np.outer(vec, vec.conj()))
    index = np.zeros((dim * dim, 4), dtype=np.intp)
    coeffs = np.zeros((dim * dim, 4), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            row = a * dim + b
            if a == b:
                index[row] = a
                coeffs[row, 0] = 1.0
                continue
            sign = 1.0 if a < b else -1.0
            index[row] = pair_base[(min(a, b), max(a, b))] + np.arange(4)
            coeffs[row] = (0.5, -0.5, sign * 0.5j, -sign * 0.5j)
    return np.stack(atoms), index, coeffs


def bilinear_unit_table(d: DecoherenceFunctional, dim: int) -> np.ndarray:
    """Values of the bilinear extension on all matrix-unit pairs.

    Returns a ``(dim, dim, dim, dim)`` array ``U[a, b, c, e] = D(E_ab, E_ce)``
    obtained purely from d on the polarization projections.

    The atom table ``D(atoms[s], atoms[t])`` is evaluated in blocks of
    ``ATOM_BLOCK`` left atoms against all N right atoms, and each block is
    combined into U at once through the four-slot expansion of
    :func:`polarization_atoms`.  Peak memory is O(block N + N dim^2) for the
    block and the atom stack, instead of O(N^2) for the whole table.
    """
    atoms, index, coeffs = polarization_atoms(dim)
    n_units = dim * dim
    units = np.zeros((n_units, n_units), dtype=complex)
    for start in range(0, len(atoms), ATOM_BLOCK):
        stop = min(start + ATOM_BLOCK, len(atoms))
        rows = d.pair_table(atoms[start:stop], atoms)
        # D(atoms[s], E_ce) for the block's atoms s.
        right = sum(rows[:, index[:, k]] * coeffs[:, k] for k in range(4))
        # Each slot k names at most one atom per unit, so the masked rows
        # below are distinct and the in-place add is exact.
        for k in range(4):
            hit = (index[:, k] >= start) & (index[:, k] < stop)
            units[hit] += coeffs[hit, k, None] * right[index[hit, k] - start]
    return units.reshape(dim, dim, dim, dim)


@dataclass(frozen=True, eq=False)
class ILSOperator:
    """Candidate trace-pairing representative X with eager diagnostics.

    ``swap_adjoint_residual`` is ``||X - W X^dag W||_F``, the operator form
    of the Hermiticity axiom; ``positivity_min_sampled`` is the smallest
    sampled diagonal value ``Re tr((p (x) p) X)`` (sample count and seed
    recorded); the trace norm feeds the tensor-boundedness sweeps.
    """

    x_op: np.ndarray
    trace: complex
    trace_norm: float
    swap_adjoint_residual: float
    positivity_min_sampled: float
    dim: int
    samples: int
    seed: int


@dataclass(frozen=True)
class ConditionsReport:
    """Residuals for the three operator conditions."""

    swap_adjoint_residual: float
    positivity_min: float
    normalization_residual: float
    samples: int
    seed: int
    tol: float

    @property
    def hermiticity_ok(self) -> bool:
        return self.swap_adjoint_residual <= self.tol

    @property
    def positivity_ok(self) -> bool:
        return self.positivity_min >= -self.tol

    @property
    def normalization_ok(self) -> bool:
        return self.normalization_residual <= self.tol

    @property
    def passed(self) -> bool:
        return self.hermiticity_ok and self.positivity_ok and self.normalization_ok

    def verdicts(self) -> dict:
        return {
            "hermiticity": self.hermiticity_ok,
            "positivity": self.positivity_ok,
            "normalization": self.normalization_ok,
        }

    def failed(self) -> tuple:
        return tuple(name for name, ok in self.verdicts().items() if not ok)


class ConditionViolationError(ValueError):
    """An operator failed one or more of the three representation conditions."""

    def __init__(self, report: ConditionsReport):
        self.report = report
        self.failed = report.failed()
        super().__init__(
            "operator violates representation conditions: " + ", ".join(self.failed)
        )


def _sample_positivity_min(x_op: np.ndarray, dim: int, samples: int, seed: int) -> float:
    """Min of Re tr((p (x) p) X) over basis rank-one plus seeded random
    projections across all ranks, evaluated in one batched pairing."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    eye = np.eye(dim, dtype=complex)
    p = np.concatenate(
        [eye[:, :, None] * eye[:, None, :], eye[None], sample_projections(dim, samples, rng, 1)]
    )
    return float(np.min(kron_trace_batch(p, p, x_op).real))


def _swap_adjoint_residual(x: np.ndarray, dim: int) -> float:
    """``||X - W X^dag W||_F`` with W the swap unitary, by index transpose:
    ``(W X^dag W)[(i,j), (k,l)] = conj(X[(l,k), (j,i)])``."""
    x4 = x.reshape(dim, dim, dim, dim)
    return float(np.linalg.norm(x4 - x4.transpose(3, 2, 1, 0).conj()))


def ils_operator_from_matrix(
    x_op, samples: int = 100, seed: int = 0
) -> ILSOperator:
    """Wrap a dense operator on H (x) H with its eager diagnostics."""
    x = as_matrix(x_op, "x_op")
    dim = int(round(np.sqrt(x.shape[0])))
    if dim * dim != x.shape[0]:
        raise ValueError(f"operator side {x.shape[0]} is not a perfect square")
    return ILSOperator(
        x_op=x,
        trace=complex(np.trace(x)),
        trace_norm=trace_norm(x),
        swap_adjoint_residual=_swap_adjoint_residual(x, dim),
        positivity_min_sampled=_sample_positivity_min(x, dim, samples, seed),
        dim=dim,
        samples=samples,
        seed=seed,
    )


def extract_ils(
    d: DecoherenceFunctional,
    dim: int | None = None,
    samples: int = 100,
    seed: int = 0,
    allow_dim_two: bool = False,
) -> ILSOperator:
    """Recover the trace-pairing operator X of a functional at its
    truncation dimension.

    ``allow_dim_two`` bypasses the dimension-three exclusion for sweep
    diagnostics over backends that carry an intrinsic bilinear extension
    (all backends in this package do); the strict default reflects the
    hypotheses of the representation theorems.
    """
    if dim is None:
        dim = d.dim
    if dim != d.dim:
        raise ValueError(f"dimension mismatch: functional has dim {d.dim}, got {dim}")
    _check_dim(dim, "trace-pairing extraction", allow_dim_two=allow_dim_two)
    units = bilinear_unit_table(d, dim)
    # X[(b,e),(a,c)] = D(E_ab, E_ce)
    x = np.transpose(units, (1, 3, 0, 2)).reshape(dim * dim, dim * dim)
    return ils_operator_from_matrix(x, samples=samples, seed=seed)


def evaluate_ils(x: ILSOperator, p, q) -> complex:
    """tr((p (x) q) X) for projections of the truncation dimension."""
    return kron_trace(p, q, x.x_op)


def verify_ils_conditions(
    x: ILSOperator, samples: int = 200, seed: int = 0, tol: float = 1e-8
) -> ConditionsReport:
    """Report the residuals of the three operator conditions on X.

    When ``samples`` and ``seed`` match the holder's, its eager swap
    residual and sampled positivity minimum are the same numbers and are
    reused; otherwise both are computed afresh.
    """
    m = x.x_op
    if (samples, seed) == (x.samples, x.seed):
        swap, positivity = x.swap_adjoint_residual, x.positivity_min_sampled
    else:
        swap = _swap_adjoint_residual(m, x.dim)
        positivity = _sample_positivity_min(m, x.dim, samples, seed)
    return ConditionsReport(
        swap_adjoint_residual=swap,
        positivity_min=positivity,
        normalization_residual=float(abs(np.trace(m) - 1.0)),
        samples=samples,
        seed=seed,
        tol=tol,
    )


def df_from_operator(
    x_op, tol: float = 1e-8, samples: int = 200, seed: int = 0
) -> OperatorBackedFunctional:
    """Validated inverse of the extraction: wrap an operator on H (x) H as
    a decoherence functional after checking the three conditions.

    Raises :class:`ConditionViolationError` naming the failed conditions.
    """
    holder = ils_operator_from_matrix(x_op, samples=samples, seed=seed)
    report = verify_ils_conditions(holder, samples=samples, seed=seed, tol=tol)
    if not report.passed:
        raise ConditionViolationError(report)
    return OperatorBackedFunctional(holder.x_op)


def functional_to_operator(coeffs) -> np.ndarray:
    """Trace-pairing representative of a linear functional on matrices.

    ``coeffs[a, b]`` is the functional's value on the matrix unit
    ``E_ab``; the unique T with ``phi(z) = tr(z T)`` for all z is the
    transpose of that coefficient array, since ``tr(E_ab T) = T[b, a]``.
    """
    c = as_matrix(coeffs, "coeffs")
    return c.T.copy()
