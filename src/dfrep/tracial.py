"""Bounded (tracial) operator representations of decoherence functionals.

The Hermitian form ``Q(x, y) = D(x, y^dag)`` of a bounded functional has a
Gram matrix G over the Hilbert-Schmidt-orthonormal matrix-unit basis.
Eigendecomposing ``G = sum_i lambda_i g_i g_i^dag`` and setting
``A_i = reshape(g_i)^T`` gives

    ``D(x, y) = sum_i lambda_i tr(x A_i) tr(y A_i^dag)``,

so with ``X_i = sqrt(lambda_i) A_i`` for positive eigenvalues and
``Y_i = sqrt(-lambda_i) A_i`` for negative ones,

    ``beta(S) = sum_i tr(S (X_i (x) X_i^dag - Y_i (x) Y_i^dag))``

for every S in the algebraic tensor product.  Summing the simple tensors
yields the bounded operator

    ``M = sum_i (X_i (x) X_i^dag - Y_i (x) Y_i^dag)``

with ``d(p, q) = tr(M (p (x) q))`` on finite-rank projections; M is unique
among bounded operators with that property (see
:func:`reconstruct_from_product_diagonal`, which recovers the pairing
matrix of any bounded operator from its diagonal on product vectors and in
particular shows that a vanishing product diagonal forces the zero
operator; it reads that diagonal on the polarization atoms and folds it as
the extraction folds d).

M, G and the trace-pairing operator X of :func:`dfrep.ils.extract_ils` are
index transposes of one pairing matrix ``P[(a,b), (c,e)] = D(E_ab, E_ce)``:
G is P with its column pair transposed, ``G = P W``, and the family sum M
is the operator whose pairing matrix is ``G W`` for G made Hermitian, that
is ``M = (X + W X^dag W)/2``.  M is the operator-backed functional holding
that P, as the extracted X is; G is ``swap_right(P)``.

At a fixed finite truncation every functional is tracially bounded, so the
interesting content is the sweep behaviour: for the pure-state functional
the operator norm of M stays at one while the trace norm of the
trace-pairing representative grows linearly with the dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .functionals import DecoherenceFunctional, OperatorBackedFunctional, _check_dim
from .ils import bilinear_unit_table, polarization_unit_table
from .linalg import (
    Frozen,
    Projection,
    hermiticity_residual,
    hermitize_in_place,
    mat,
    pairing_realignment,
    rank_one_product_diagonal,
    rank_one_vectors,
    swap_right,
    unit_vector,
    vector_supports,
)
from .tolerances import EIG_DROP_REL, GRAM_HERMITICITY_REL, SCALE_FLOOR


class GramHermiticityError(ValueError):
    """The assembled Gram matrix is not Hermitian: the source functional
    violates the Hermiticity axiom upstream."""


def gram_matrix(d: DecoherenceFunctional, dim: int | None = None) -> np.ndarray:
    """Gram matrix ``G[(i,j), (k,l)] = Q(E_ij, E_kl)`` of the Hermitian
    form over the matrix-unit basis, assembled from d on the polarization
    projections at ``d.dim`` (``dim``, if given, must equal it)."""
    if dim is not None and dim != d.dim:
        raise ValueError(f"dimension mismatch: functional has dim {d.dim}, got {dim}")
    _check_dim(d.dim, "Gram assembly")
    # Q(E_ij, E_kl) = D(E_ij, (E_kl)^dag) = D(E_ij, E_lk)
    g = swap_right(bilinear_unit_table(d))
    if hermiticity_residual(g) > GRAM_HERMITICITY_REL:
        raise GramHermiticityError("Gram matrix is not Hermitian; the functional violates Hermiticity")
    return hermitize_in_place(g)


class Decomposition(Frozen):
    """Signed families reproducing beta on the algebraic tensor product.

    ``signature`` holds the retained Gram eigenvalues sorted descending and
    ``rows`` the one read-only ``(k, dim^2)`` array of the families: row i
    is ``vec(F_i^T) = sqrt(|lambda_i|) g_i`` for the eigenvector g_i of
    ``lambda_i``.  Each ``F_i = rows[i].reshape(dim, dim).T`` is a view of
    it; those of the positive eigenvalues make up ``x_family`` and the rest
    ``y_family``, in signature order.  k never exceeds dim^2.
    Decompositions are immutable and compare by identity.
    """

    def __init__(self, rows: np.ndarray, signature: tuple, dim: int):
        rows = np.ascontiguousarray(rows, dtype=complex).view()
        rows.flags.writeable = False
        vars(self).update(rows=rows, signature=signature, dim=dim)

    def _views(self, positive: bool) -> tuple:
        d = self.dim
        return tuple(r.reshape(d, d).T for r, lam in zip(self.rows, self.signature) if (lam > 0) == positive)

    x_family = property(lambda self: self._views(True))
    y_family = property(lambda self: self._views(False))

    def beta(self, s) -> complex:
        """beta(S) evaluated through the decomposition families:
        ``sum_m sum_i sign_i tr(a_m F_i) tr(b_m F_i^dag)``."""
        if s.dim != self.dim:
            raise ValueError(f"dimension mismatch: {s.dim} vs {self.dim}")
        a, b = zip(*s.terms)
        return complex(np.sum(self.term_values(np.stack(a), np.stack(b))))

    def term_values(self, a, b) -> np.ndarray:
        """``beta(a_m (x) b_m)`` for each pair of two equal-length
        ``(n, dim, dim)`` stacks, in one contraction with the families:
        ``tr(a F_i) = vec(a) . rows[i]`` and ``tr(b F_i^dag) = vec(b) . conj(vec(F_i))``."""
        k, d = len(self.rows), self.dim
        # Rows conj(vec(F_i)), copied so that b is summed in its own (p, q) order.
        right = np.conjugate(self.rows.reshape(k, d, d).transpose(0, 2, 1), order="C").reshape(k, d * d)
        a = np.asarray(a, dtype=complex).reshape(len(a), -1)
        b = np.asarray(b, dtype=complex).reshape(len(b), -1)
        return ((a @ self.rows.T) * (b @ right.T)) @ np.sign(self.signature)

    def pairing_operator(self) -> np.ndarray:
        """``sum_i X_i (x) X_i^dag - sum_i Y_i (x) Y_i^dag`` on H (x) H, summed literally."""
        n = self.dim * self.dim
        m = np.zeros((n, n), dtype=complex)
        for x in self.x_family:
            m += np.kron(x, x.conj().T)
        for y in self.y_family:
            m -= np.kron(y, y.conj().T)
        return m


def _kept(w: np.ndarray) -> np.ndarray:
    """Mask of the Gram eigenvalues kept under ``EIG_DROP_REL``."""
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    return np.abs(w) >= EIG_DROP_REL * max(scale, SCALE_FLOOR)


def _decompose_gram(g: np.ndarray, dim: int) -> Decomposition:
    """The signed families of a Hermitian Gram matrix (see
    :func:`hermitian_form_decomposition`); G is released once ``eigh``
    returns."""
    w, v = np.linalg.eigh(g)
    del g
    keep = np.flatnonzero(_kept(w))
    idx = keep[np.argsort(-w[keep])]
    w, rows = w[idx], v.T[idx]  # the kept eigenvectors g_i as rows, descending
    del v
    rows *= np.sqrt(np.abs(w))[:, None]
    return Decomposition(rows, signature=tuple(w.tolist()), dim=dim)


def hermitian_form_decomposition(d: DecoherenceFunctional) -> Decomposition:
    """Constructive decomposition of the Hermitian form into signed
    rank-one families.

    Eigenvectors of the Gram matrix, reshaped and transposed, give operators
    ``A_i`` with ``D(x, y) = sum_i lambda_i tr(x A_i) tr(y A_i^dag)``;
    scaling by ``sqrt(|lambda_i|)`` and splitting by sign yields the
    ``{X_i}`` / ``{Y_i}`` families.  An all-zero Gram matrix produces empty
    families.
    """
    return _decompose_gram(gram_matrix(d), d.dim)


def family_sizes(m: OperatorBackedFunctional) -> tuple:
    """``(len(x_family), len(y_family))`` of the signed families whose
    Kronecker sum is M (:func:`hermitian_form_decomposition`), read off
    the inertia of the eigenvalues of ``G = swap_right(m.pairing)`` without
    eigenvectors.  G must be Hermitian, as it is for the M of
    :func:`build_tracial_operator`."""
    w = np.linalg.eigvalsh(swap_right(m.pairing))
    w = w[_kept(w)]
    return int(np.count_nonzero(w > 0)), int(np.count_nonzero(w <= 0))


def build_tracial_operator(d: DecoherenceFunctional) -> OperatorBackedFunctional:
    """Assemble the bounded operator M of d at ``d.dim`` from its Hermitian
    Gram matrix, held as the pairing matrix ``G W``.

    At a fixed truncation every functional yields a finite M; the
    tracial-boundedness evidence across dimensions is the sweep's
    ``sup_beta_rank_one`` column (:func:`dfrep.probes.tensor_bound_probe`).
    """
    return OperatorBackedFunctional.from_pairing(swap_right(gram_matrix(d)))


def pure_state_projector(psi) -> np.ndarray:
    """``P = sum_i |psi (x) psi_i><psi (x) psi_i| = |psi><psi| (x) I`` for
    any orthonormal basis {psi_i} extending psi, such as the Householder
    basis of ``tests/reference.py``."""
    v = unit_vector(psi, "psi")
    return np.kron(np.outer(v, v.conj()), np.eye(v.size))


def pure_state_m(psi) -> np.ndarray:
    """The bounded representative of the pure-state functional, built as
    P U: U swaps the tensor factors and P projects onto
    span{psi (x) psi_i} for an orthonormal basis {psi_i} extending psi.

    ``demo-pure-state`` reports its identities ``(PU)(PU)^dag = P`` and
    ``beta_psi(S) = tr(S P U)`` as residuals.
    """
    return swap_right(pure_state_projector(psi))


def reconstruct_from_product_diagonal(f, dim: int) -> np.ndarray:
    """Recover an operator L on H (x) H from its diagonal on product vectors,
    as the pairing matrix of L (``operator_from_pairing`` of it is L).

    ``f(alpha, beta)`` must return ``<L(alpha (x) beta), alpha (x) beta>``
    for some operator L.  On polarization atoms v, w that is
    ``D(|v><v|, |w><w|)`` for the bilinear D with the pairing matrix of L;
    the atoms span all matrices, so the extraction's fold
    (:func:`dfrep.ils.polarization_unit_table`) recovers that pairing
    matrix, which is returned as the fold yields it.  The oracle is called
    once per atom block: ``alpha`` has shape ``(B, 1, dim)`` for at most
    ``ATOM_BLOCK`` left atoms and ``beta`` has shape ``(1, N, dim)`` for
    all ``N = dim^2`` atoms, and the values must broadcast to
    ``(B, N)`` (a scalar, as from ``lambda a, b: 0.0``, does).  The zero
    oracle reconstructs the zero operator; for inputs that are not genuine
    product diagonals the output is unspecified.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")

    def table_against(right):
        beta = rank_one_vectors(*right, dim)[None]  # densified once

        def rows(left):
            vals = f(rank_one_vectors(*left, dim)[:, None], beta)
            return np.broadcast_to(np.asarray(vals, dtype=complex), (len(left[0]), beta.shape[1]))

        return rows

    return polarization_unit_table(dim, table_against)


def _pairing_of(m) -> np.ndarray:
    """The pairing matrix of M: an operator-backed functional's own, else M realigned."""
    return m.pairing if isinstance(m, OperatorBackedFunctional) else pairing_realignment(m)


def product_diagonal_of(m) -> "callable":
    """Diagonal oracle ``f(alpha, beta) = <M(alpha (x) beta), alpha (x) beta>``
    of a dense ``(d^2, d^2)`` operator or an operator-backed functional,
    for feeding the reconstructor.

    ``alpha`` and ``beta`` have the layout that
    :func:`reconstruct_from_product_diagonal` passes, ``(B, 1, d)`` and
    ``(1, N, d)``, and the result is the ``(B, N)`` table; any other
    layout is a ``ValueError``.  M is realigned once, here (a functional's
    pairing matrix P is read as it is).  Each call reads the table off P on
    the vectors' supports with :func:`dfrep.linalg.rank_one_product_diagonal`,
    the reader of the operator backend's atom table, so a pair of two-point
    vectors costs 16 entries of P.
    """
    pairing = _pairing_of(m)  # ValueError unless m is (d^2, d^2)
    dim = math.isqrt(len(pairing))

    def f(alpha, beta):
        a, b = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
        if a.ndim != 3 or b.ndim != 3 or a.shape[1:] != (1, dim) or (b.shape[0], b.shape[2]) != (1, dim):
            raise ValueError(f"need (B, 1, {dim}) and (1, N, {dim}) vectors, got {a.shape} and {b.shape}")
        return rank_one_product_diagonal(vector_supports(a[:, 0]), vector_supports(b[0]), pairing)

    return f


def _range_columns(p: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors spanning the range of the matrix p, as columns."""
    vals, vecs = np.linalg.eigh(p)
    return vecs[:, vals > 0.5]


def _column_blocks(cols: np.ndarray, max_rank: int) -> list:
    """Consecutive groups of at most ``max_rank`` columns."""
    return [cols[:, start : start + max_rank] for start in range(0, cols.shape[1], max_rank)]


def evaluate_double_sum(m, p: Projection, q: Projection, block_rank: int) -> complex:
    """``sum_i sum_j tr((p_i (x) q_j) M)`` over orthogonal block
    decompositions of p and q with blocks of rank at most ``block_rank``
    (consecutive eigenvectors of each range, as the orthogonal
    decomposition of ``tests/reference.py`` splits them).

    Every term is one entry of a single block pair table (the product of
    the block stacks with the pairing matrix of M, see
    :func:`dfrep.linalg.pairing_realignment`), which is summed.  By trace
    linearity the value equals ``tr(M (p (x) q))`` for every admissible
    block decomposition.
    """
    return double_sum_table(m, [p], [q], [block_rank])[0][0]


def double_sum_table(m, ps, qs, block_ranks) -> list:
    """``out[s][k] = evaluate_double_sum(m, ps[s], qs[s], block_ranks[k])``
    as nested lists, with M realigned once (a functional's pairing matrix
    is read as it is) and every projection eigendecomposed once for
    all block ranks.

    ``ps`` and ``qs`` hold validated projections, as Projection objects or
    as matrices (such as a ``projection_blocks`` block); each range, and
    so each rank, is read off the ``eigh`` that splits it into blocks.
    """
    if any(br < 1 for br in block_ranks):
        raise ValueError("max_rank must be >= 1")
    xr = _pairing_of(m)
    out = []
    for p, q in zip(ps, qs):
        p_cols, q_cols = _range_columns(mat(p)), _range_columns(mat(q))
        if p_cols.shape[1] == 0 or q_cols.shape[1] == 0:
            out.append([0j] * len(block_ranks))
            continue
        row = []
        for br in block_ranks:
            pm = np.stack([b @ b.conj().T for b in _column_blocks(p_cols, br)])
            qm = np.stack([b @ b.conj().T for b in _column_blocks(q_cols, br)])
            row.append(complex(np.sum((pm.reshape(len(pm), -1) @ xr) @ qm.reshape(len(qm), -1).T)))
        out.append(row)
    return out
