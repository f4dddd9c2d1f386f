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

from typing import NamedTuple

import numpy as np

from .functionals import DecoherenceFunctional, FactoredStateFunctional
from .linalg import Frozen, Projection, as_matrix, hermiticity_residual
from .tolerances import DEFAULT_TOLERANCES, MODEL_TOL, ORTHOGONALITY_TOL


class ClassOperatorModel(Frozen):
    """Initial state, dynamics and projective schedules for standard-QM
    histories.

    Invariants: rho is positive semidefinite with unit trace; the
    Hamiltonian is Hermitian; there is at least one time, and the times
    are non-negative (rho is prepared at t = 0) and strictly ascending,
    with one schedule each; every schedule is a family of pairwise
    orthogonal projections summing to the identity.
    A rejection message starts with the argument it rejects (``rho:``,
    ``times[k]:``, ``schedules[k][j]:`` ...), for callers to prefix a path.

    Construction also diagonalises the Hermitian parts of rho and of the
    Hamiltonian once each, ``(rho + rho^dag)/2 = S diag(rho_eigenvalues)
    S^dag`` with ``S = rho_eigenvectors`` and ``(H + H^dag)/2 = V
    diag(energies) V^dag`` with ``V = eigenbasis``.  All four arrays are
    stored read-only, and nothing is cached on the model afterwards, so it
    can be shared between callers.  Models are immutable and compare by
    identity.
    """

    def __init__(self, dim: int, rho, hamiltonian, times, schedules):
        vars(self).update(dim=dim, rho=rho, hamiltonian=hamiltonian, times=times, schedules=schedules)
        self.__post_init__()

    # The validation is its own method, where per-class wrappers find it.
    def __post_init__(self):
        rho = as_matrix(self.rho, "rho")
        ham = as_matrix(self.hamiltonian, "hamiltonian")
        for name, m in (("rho", rho), ("hamiltonian", ham)):
            if m.shape[0] != self.dim:
                raise ValueError(f"{name}: dimension {m.shape[0]} does not match model dim {self.dim}")
            if hermiticity_residual(m) > MODEL_TOL:
                raise ValueError(f"{name}: must be Hermitian")
        rho_eigenvalues, rho_eigenvectors = np.linalg.eigh((rho + rho.conj().T) / 2)
        if rho_eigenvalues.min() < -MODEL_TOL:
            raise ValueError(f"rho: must be positive semidefinite (min eig {rho_eigenvalues.min():.3g})")
        if abs(np.trace(rho) - 1.0) > MODEL_TOL:
            raise ValueError(f"rho: must have unit trace (got {np.trace(rho).real:.6g})")
        energies, eigenbasis = np.linalg.eigh((ham + ham.conj().T) / 2)
        for a in (rho_eigenvalues, rho_eigenvectors, energies, eigenbasis):
            a.flags.writeable = False
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("times: need at least one time")
        for k, t in enumerate(times):
            if not t >= 0.0:
                raise ValueError(f"times[{k}]: must be non-negative (got {t:g})")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times: must be strictly ascending")
        if len(times) != len(self.schedules):
            raise ValueError(f"schedules: need one per time, got {len(self.schedules)}")
        schedules = []
        for k, sched in enumerate(self.schedules):
            projs = []
            for j, p in enumerate(sched):
                try:
                    projs.append(p if isinstance(p, Projection) else Projection.from_matrix(p))
                except ValueError as exc:
                    raise ValueError(f"schedules[{k}][{j}]: {exc}") from None
            if not projs:
                raise ValueError(f"schedules[{k}]: is empty")
            total = sum(p.matrix for p in projs)
            if np.linalg.norm(total - np.eye(self.dim)) > MODEL_TOL * self.dim:
                raise ValueError(f"schedules[{k}]: projections do not sum to the identity")
            for i in range(len(projs)):
                for j in range(i + 1, len(projs)):
                    if np.linalg.norm(projs[i].matrix @ projs[j].matrix) > MODEL_TOL:
                        raise ValueError(f"schedules[{k}]: projections {i} and {j} are not orthogonal")
            schedules.append(tuple(projs))
        vars(self).update(
            rho=rho,
            hamiltonian=ham,
            times=times,
            schedules=tuple(schedules),
            rho_eigenvalues=rho_eigenvalues,
            rho_eigenvectors=rho_eigenvectors,
            energies=energies,
            eigenbasis=eigenbasis,
        )

    def propagator(self, t: float) -> np.ndarray:
        """U(t) = exp(-i t H) = V diag(exp(-i t lambda)) V^dag from the
        stored eigendecomposition, which is exact for Hermitian H; t = 0
        gives the identity exactly.  A fresh array on every call."""
        t = float(t)
        if t == 0.0:
            return np.eye(self.dim, dtype=complex)
        v = self.eigenbasis
        return (v * np.exp(-1j * t * self.energies)) @ v.conj().T


class ClassOperatorFunctional(FactoredStateFunctional):
    """Projection-level functional of a class-operator model.

    A single projection is read as a one-event history at the model's first
    scheduled time, which makes the functional linear in both slots:
    ``d(p, q) = tr(p~ rho q~) = tr(p rho' q)`` with ``p~ = U^dag p U``,
    ``U = U(t_1)`` and ``rho' = U rho U^dag``.  The state is held as the
    factor ``F = U S sqrt(lambda)`` of ``rho' = F F^dag``, from the model's
    ``rho = S diag(lambda) S^dag`` keeping the eigenvalues ``lambda > 0``.
    On the scheduled projections of a single-time model this coincides with
    the history-pair values; the multi-time values ``tr(C_h rho C_k^dag)``
    are computed term by term in ``tests/reference.py``.
    """

    def __init__(self, model: ClassOperatorModel):
        self.model = model
        lam, v = model.rho_eigenvalues, model.rho_eigenvectors
        keep = lam > 0
        u = model.propagator(model.times[0])
        super().__init__(u @ (v[:, keep] * np.sqrt(lam[keep])))

    # Its own entry in the class dictionary, where per-backend wrappers find it.
    pair_table = FactoredStateFunctional.pair_table


class ConsistencyReport(NamedTuple):
    """Interference diagnostics for a candidate set: the ``consistency`` record."""

    off_diagonal_max: float
    diagonals: tuple
    total: float
    tolerance: float
    mode: str
    set_size: int

    @property
    def consistent(self) -> bool:
        return self.off_diagonal_max <= self.tolerance and min(self.diagonals) >= -self.tolerance


def consistency_report(
    d: DecoherenceFunctional,
    projections,
    tolerance: float = DEFAULT_TOLERANCES["consistency"],
    mode: str = "weak",
) -> ConsistencyReport:
    """Check a family of pairwise orthogonal projections for consistency.

    ``mode="weak"`` flags the set consistent when the largest off-diagonal
    ``|Re d(h_i, h_j)|`` is at most ``tolerance``; ``mode="medium"`` uses
    ``|d(h_i, h_j)|`` instead.  The diagonal values act as the set's
    probabilities, and one below ``-tolerance`` makes it inconsistent too.
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
            if np.linalg.norm(projs[i].matrix @ projs[j].matrix) > ORTHOGONALITY_TOL:
                raise ValueError(f"projections {i} and {j} are not orthogonal")
    stack = np.stack([p.matrix for p in projs])
    table = d.pair_table(stack, stack)
    off_diag = table[~np.eye(len(projs), dtype=bool)]
    off_vals = np.abs(off_diag.real) if mode == "weak" else np.abs(off_diag)
    off = float(np.max(off_vals, initial=0.0))
    diags = tuple(float(v) for v in table.diagonal().real)
    return ConsistencyReport(
        off_diagonal_max=off,
        diagonals=diags,
        total=float(sum(diags)),
        tolerance=tolerance,
        mode=mode,
        set_size=len(projs),
    )
