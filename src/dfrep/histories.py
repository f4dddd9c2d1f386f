"""History spaces over a finite Hilbert space.

Histories are projections; the standard quantum-mechanical model realizes
homogeneous histories as time-sequences of single-time events.  A
:class:`ClassOperatorModel` holds an initial density matrix, a Hamiltonian,
a list of times, and one projective decomposition of the identity per time.
The class operator of a homogeneous history is the time-ordered product of
the Heisenberg-picture projectors, latest on the left:

    ``C_h = p_n(t_n) ... p_1(t_1)``,     ``p(t) = U(t)^dag p U(t)``,
    ``U(t) = exp(-i t H)``.

The induced decoherence functional on history pairs is
``d(h, k) = tr(C_h rho C_k^dag)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .functionals import DecoherenceFunctional, _rows, _transposed_rows
from .linalg import Projection, as_matrix, mat, trace_pair

_MODEL_TOL = 1e-9


@dataclass(frozen=True)
class HomogeneousHistory:
    """One projection choice per scheduled time; ``None`` selects the
    identity (no event) at that time, so the all-``None`` history is the
    unit history."""

    choices: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "choices",
            tuple(None if c is None else int(c) for c in self.choices),
        )


@dataclass(frozen=True, eq=False)
class ClassOperatorModel:
    """Initial state, dynamics and projective schedules for standard-QM
    histories.

    Invariants: rho is positive semidefinite with unit trace; the
    Hamiltonian is Hermitian; times are ascending with one schedule each;
    every schedule is a family of pairwise orthogonal projections summing
    to the identity.
    """

    dim: int
    rho: np.ndarray
    hamiltonian: np.ndarray
    times: tuple
    schedules: tuple

    def __post_init__(self):
        rho = as_matrix(self.rho, "rho")
        ham = as_matrix(self.hamiltonian, "hamiltonian")
        if rho.shape[0] != self.dim or ham.shape[0] != self.dim:
            raise ValueError("rho/hamiltonian dimension mismatch with model dim")
        if np.linalg.norm(rho - rho.conj().T) > _MODEL_TOL * max(
            1.0, float(np.linalg.norm(rho))
        ):
            raise ValueError("rho must be Hermitian")
        evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if evals.min() < -_MODEL_TOL:
            raise ValueError(f"rho must be positive semidefinite (min eig {evals.min():.3g})")
        if abs(np.trace(rho) - 1.0) > _MODEL_TOL:
            raise ValueError(f"rho must have unit trace (got {np.trace(rho).real:.6g})")
        if np.linalg.norm(ham - ham.conj().T) > _MODEL_TOL * max(
            1.0, float(np.linalg.norm(ham))
        ):
            raise ValueError("hamiltonian must be Hermitian")
        times = tuple(float(t) for t in self.times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly ascending")
        if len(times) != len(self.schedules):
            raise ValueError("need exactly one schedule per time")
        schedules = []
        for k, sched in enumerate(self.schedules):
            projs = tuple(
                p if isinstance(p, Projection) else Projection.from_matrix(p)
                for p in sched
            )
            if not projs:
                raise ValueError(f"schedule {k} is empty")
            total = sum(p.matrix for p in projs)
            if np.linalg.norm(total - np.eye(self.dim)) > _MODEL_TOL * self.dim:
                raise ValueError(f"schedule {k} does not sum to the identity")
            for i in range(len(projs)):
                for j in range(i + 1, len(projs)):
                    if np.linalg.norm(projs[i].matrix @ projs[j].matrix) > _MODEL_TOL:
                        raise ValueError(f"schedule {k} is not pairwise orthogonal")
            schedules.append(projs)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "schedules", tuple(schedules))
        object.__setattr__(self, "_propagators", {})

    def propagator(self, t: float) -> np.ndarray:
        """U(t) = exp(-i t H), cached per time (Pade scaling-and-squaring)."""
        key = float(t)
        cache = self._propagators
        if key not in cache:
            cache[key] = scipy.linalg.expm(-1j * key * self.hamiltonian)
        return cache[key]

    def heisenberg(self, p, t: float) -> np.ndarray:
        """Heisenberg-picture operator U(t)^dag p U(t)."""
        u = self.propagator(t)
        return u.conj().T @ mat(p) @ u


def class_operator(model: ClassOperatorModel, h: HomogeneousHistory) -> np.ndarray:
    """Time-ordered product of Heisenberg projectors for the history.

    The all-identity history gives the identity matrix exactly (no factors
    are multiplied).
    """
    if len(h.choices) != len(model.times):
        raise ValueError(
            f"history has {len(h.choices)} choices for {len(model.times)} times"
        )
    c = np.eye(model.dim, dtype=complex)
    for k, choice in enumerate(h.choices):
        if choice is None:
            continue
        sched = model.schedules[k]
        if not (0 <= choice < len(sched)):
            raise IndexError(f"choice {choice} out of range at time index {k}")
        c = model.heisenberg(sched[choice], model.times[k]) @ c
    return c


def history_pair_value(
    model: ClassOperatorModel, h: HomogeneousHistory, k: HomogeneousHistory
) -> complex:
    """d(h, k) = tr(C_h rho C_k^dag)."""
    ch = class_operator(model, h)
    ck = class_operator(model, k)
    return complex(np.trace(ch @ model.rho @ ck.conj().T))


def iter_homogeneous_histories(model: ClassOperatorModel):
    """All histories choosing one scheduled projection per time."""
    ranges = [range(len(s)) for s in model.schedules]
    for combo in itertools.product(*ranges):
        yield HomogeneousHistory(tuple(combo))


class ClassOperatorFunctional(DecoherenceFunctional):
    """Projection-level functional of a class-operator model.

    A single projection is read as a one-event history at the model's first
    scheduled time, which makes the functional linear in both slots:
    ``d(p, q) = tr(p~ rho q~)`` with ``p~ = U(t_1)^dag p U(t_1)``.  On the
    scheduled projections of a single-time model this coincides with the
    history-pair values; use :func:`history_pair_value` for multi-time
    histories.
    """

    def __init__(self, model: ClassOperatorModel):
        self.model = model
        self.dim = model.dim
        t = model.times[0] if model.times else 0.0
        u = model.propagator(t)
        self._u = u
        self._rho_rot = u @ model.rho @ u.conj().T  # tr(p~ rho q~) = tr(p rho' q)

    def bilinear(self, x, y) -> complex:
        # tr(x~ rho y~) = tr(x (U rho U^dag) y): rotate the state once
        # instead of both arguments on every call.
        return complex(np.trace(mat(x) @ self._rho_rot @ mat(y)))

    def pair_table(self, left, right) -> np.ndarray:
        # tr(a rho' b) = vec(a rho') . vec(b^T)
        l = np.asarray(left, dtype=complex) @ self._rho_rot
        return _rows(l) @ _transposed_rows(right).T

    def pair_values(self, left, right) -> np.ndarray:
        left, right = self._value_stacks(left, right)
        return np.sum(_rows(left @ self._rho_rot) * _transposed_rows(right), axis=-1)


def standard_df(model: ClassOperatorModel) -> ClassOperatorFunctional:
    """Decoherence functional generated by a class-operator model."""
    return ClassOperatorFunctional(model)


def orthogonal_decompose(p: Projection, max_rank: int):
    """Split a projection into pairwise orthogonal sub-projections of rank
    at most ``max_rank`` that sum to it.  The zero projection gives an
    empty list."""
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    if p.rank == 0:
        return []
    vals, vecs = np.linalg.eigh(p.matrix)
    cols = vecs[:, vals > 0.5]
    out = []
    for start in range(0, cols.shape[1], max_rank):
        block = cols[:, start : start + max_rank]
        out.append(Projection(block @ block.conj().T, block.shape[1]))
    return out


@dataclass(frozen=True)
class ConsistencyReport:
    """Interference diagnostics for a candidate consistent set."""

    off_diagonal_max: float
    diagonals: tuple
    total: float
    consistent: bool
    tolerance: float
    mode: str


def consistency_report(
    d: DecoherenceFunctional,
    projections,
    tolerance: float = 1e-9,
    mode: str = "weak",
) -> ConsistencyReport:
    """Check a family of pairwise orthogonal projections for consistency.

    ``mode="weak"`` flags the set consistent when the largest off-diagonal
    ``|Re d(h_i, h_j)|`` is at most ``tolerance``; ``mode="medium"`` uses
    ``|d(h_i, h_j)|`` instead.  The diagonal values then act as the
    probabilities of the set.
    """
    if mode not in ("weak", "medium"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    projs = [
        p if isinstance(p, Projection) else Projection.from_matrix(p)
        for p in projections
    ]
    if not projs:
        raise ValueError("need at least one projection")
    for i in range(len(projs)):
        if projs[i].dim != d.dim:
            raise ValueError(
                f"dimension mismatch: functional has dim {d.dim}, "
                f"projection {i} has dim {projs[i].dim}"
            )
        for j in range(i + 1, len(projs)):
            if np.linalg.norm(projs[i].matrix @ projs[j].matrix) > 1e-8:
                raise ValueError(f"projections {i} and {j} are not orthogonal")
    stack = np.stack([p.matrix for p in projs])
    table = d.pair_table(stack, stack)
    off_diag = table[~np.eye(len(projs), dtype=bool)]
    off_vals = np.abs(off_diag.real) if mode == "weak" else np.abs(off_diag)
    off = float(np.max(off_vals, initial=0.0))
    diags = tuple(float(v) for v in table.diagonal().real)
    return ConsistencyReport(
        off_diagonal_max=float(off),
        diagonals=diags,
        total=float(sum(diags)),
        consistent=off <= tolerance,
        tolerance=tolerance,
        mode=mode,
    )
