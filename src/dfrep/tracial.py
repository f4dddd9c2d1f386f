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
:func:`reconstruct_from_product_diagonal`, which recovers any bounded
operator from its diagonal on product vectors and in particular shows that
a vanishing product diagonal forces the zero operator).

The family sum is the realignment ``M[(p,r),(q,s)] = G[(q,p),(r,s)]`` of
G itself, and equals the swap-symmetrised trace-pairing operator
``(X + W X^dag W)/2`` of :func:`dfrep.ils.extract_ils`, so M is read off G
by one transpose and the families are computed only on demand.

At a fixed finite truncation every functional is tracially bounded, so the
interesting content is the sweep behaviour: for the pure-state functional
the operator norm of M stays at one while the trace norm of the
trace-pairing representative grows linearly with the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .functionals import DecoherenceFunctional, _check_dim
from .histories import _column_blocks, _range_columns
from .ils import bilinear_unit_table
from .linalg import (
    ElementaryTensorSum,
    Projection,
    as_vector,
    kron,
    mat,
    operator_norm,
    pairing_realignment,
    trace_pair,
)


class GramHermiticityError(ValueError):
    """The assembled Gram matrix is not Hermitian: the source functional
    violates the Hermiticity axiom upstream."""


class NotTraciallyBoundedError(RuntimeError):
    """The tracial-boundedness probe exceeded the requested bound."""

    def __init__(self, sup_estimate: float, bound: float, dim: int, samples: int, seed: int):
        self.sup_estimate = sup_estimate
        self.bound = bound
        self.dim = dim
        self.samples = samples
        self.seed = seed
        super().__init__(
            f"sup |beta(p_xi)| estimate {sup_estimate:.6g} exceeds bound "
            f"{bound:.6g} at dim {dim} ({samples} samples, seed {seed})"
        )


# gram_matrix raises GramHermiticityError when ||G - G^dag||_F > this * max(1, ||G||_F).
GRAM_HERMITICITY_REL = 1e-8

# Gram eigenvalues below this fraction of the spectral scale are dropped;
# keeps the families minimal and free of noise operators.
EIG_DROP_REL = 1e-12


def gram_matrix(d: DecoherenceFunctional, dim: int) -> np.ndarray:
    """Gram matrix ``G[(i,j), (k,l)] = Q(E_ij, E_kl)`` of the Hermitian
    form over the matrix-unit basis, assembled from d on the polarization
    projections."""
    _check_dim(dim, "Gram assembly")
    if dim != d.dim:
        raise ValueError(f"dimension mismatch: functional has dim {d.dim}, got {dim}")
    units = bilinear_unit_table(d, dim)
    # Q(E_ij, E_kl) = D(E_ij, (E_kl)^dag) = D(E_ij, E_lk)
    g = np.transpose(units, (0, 1, 3, 2)).reshape(dim * dim, dim * dim)
    if np.linalg.norm(g - g.conj().T) > GRAM_HERMITICITY_REL * max(1.0, float(np.linalg.norm(g))):
        raise GramHermiticityError("Gram matrix is not Hermitian; the functional violates Hermiticity")
    return (g + g.conj().T) / 2


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Signed families reproducing beta on the algebraic tensor product.

    ``signature`` holds the retained Gram eigenvalues sorted descending;
    positive ones correspond (in order) to ``x_family``, negative ones to
    ``y_family``.  Family sizes never exceed dim^2.
    """

    x_family: tuple
    y_family: tuple
    signature: tuple
    dim: int

    @cached_property
    def _flat_families(self):
        """Signs and flattened families for :meth:`beta`: rows of ``left``
        are ``vec(F_i^T)`` and rows of ``right`` are ``conj(vec(F_i))``, so
        ``tr(a F_i) = vec(a) . left[i]`` and ``tr(b F_i^dag) = vec(b) . right[i]``."""
        dim = self.dim
        fam = np.array(self.x_family + self.y_family, dtype=complex)
        fam = fam.reshape(-1, dim, dim)
        signs = np.concatenate(
            [np.ones(len(self.x_family)), -np.ones(len(self.y_family))]
        )
        left = fam.transpose(0, 2, 1).reshape(len(fam), dim * dim)
        right = fam.reshape(len(fam), dim * dim).conj()
        return signs, left, right

    def beta(self, s: ElementaryTensorSum) -> complex:
        """beta(S) evaluated through the decomposition families:
        ``sum_m sum_i sign_i tr(a_m F_i) tr(b_m F_i^dag)``."""
        if s.dim != self.dim:
            raise ValueError(f"dimension mismatch: {s.dim} vs {self.dim}")
        signs, left, right = self._flat_families
        a = np.stack([t[0] for t in s.terms]).reshape(len(s.terms), -1)
        b = np.stack([t[1] for t in s.terms]).reshape(len(s.terms), -1)
        return complex(np.sum(((a @ left.T) * (b @ right.T)) @ signs))

    def pairing_operator(self) -> np.ndarray:
        """``sum_i X_i (x) X_i^dag - sum_i Y_i (x) Y_i^dag`` on H (x) H, summed literally."""
        n = self.dim * self.dim
        m = np.zeros((n, n), dtype=complex)
        for x in self.x_family:
            m += kron(x, x.conj().T)
        for y in self.y_family:
            m -= kron(y, y.conj().T)
        return m


def _decompose_gram(g: np.ndarray, dim: int) -> Decomposition:
    """The signed families of a Hermitian Gram matrix (see
    :func:`hermitian_form_decomposition`)."""
    w, v = np.linalg.eigh(g)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) >= EIG_DROP_REL * max(scale, 1e-300)
    order = np.argsort(-w[keep])
    w, v = w[keep][order], v[:, keep][:, order]
    fam = np.sqrt(np.abs(w))[:, None, None] * v.T.reshape(-1, dim, dim).transpose(0, 2, 1)
    return Decomposition(
        x_family=tuple(fam[w > 0]), y_family=tuple(fam[w <= 0]), signature=tuple(w.tolist()), dim=dim
    )


def hermitian_form_decomposition(d: DecoherenceFunctional, dim: int | None = None) -> Decomposition:
    """Constructive decomposition of the Hermitian form into signed
    rank-one families.

    Eigenvectors of the Gram matrix, reshaped and transposed, give operators
    ``A_i`` with ``D(x, y) = sum_i lambda_i tr(x A_i) tr(y A_i^dag)``;
    scaling by ``sqrt(|lambda_i|)`` and splitting by sign yields the
    ``{X_i}`` / ``{Y_i}`` families.  An all-zero Gram matrix produces empty
    families.
    """
    if dim is None:
        dim = d.dim
    return _decompose_gram(gram_matrix(d, dim), dim)


@dataclass(frozen=True, eq=False)
class TracialOperator:
    """Bounded representative M with ``d(p, q) = tr(M (p (x) q))`` on
    finite-rank projections: M = realign(G) = the swap-symmetrised X, and
    the signed families (:attr:`source`) are computed from G on first read."""

    m_op: np.ndarray
    operator_norm: float
    gram: np.ndarray
    dim: int

    @cached_property
    def source(self) -> Decomposition:
        """The signed families whose Kronecker sum is M."""
        return _decompose_gram(self.gram, self.dim)


def build_tracial_operator(
    d: DecoherenceFunctional,
    dim: int | None = None,
    bound: float | None = None,
    probe_samples: int = 2000,
    seed: int = 0,
) -> TracialOperator:
    """Assemble the bounded operator M by realigning the Gram matrix.

    At a fixed truncation every functional yields a finite M, so the
    tracial-boundedness precondition only bites when a ``bound`` is given:
    the probe then estimates ``sup |beta(p_xi)|`` and a violation raises
    :class:`NotTraciallyBoundedError` carrying the evidence.
    """
    if dim is None:
        dim = d.dim
    if bound is not None:
        from .probes import tracial_bound_probe

        sup = tracial_bound_probe(d, dim, samples=probe_samples, seed=seed)
        if sup > bound:
            raise NotTraciallyBoundedError(sup, bound, dim, probe_samples, seed)
    g = gram_matrix(d, dim)
    m = g.reshape(dim, dim, dim, dim).transpose(1, 2, 0, 3).reshape(dim * dim, dim * dim)
    return TracialOperator(m_op=m, operator_norm=operator_norm(m), gram=g, dim=dim)


def householder_basis(psi) -> np.ndarray:
    """Orthonormal basis (as columns) whose first column is psi, obtained
    from a single complex Householder reflection; deterministic in psi."""
    v = as_vector(psi, "psi")
    dim = v.size
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"psi must be a unit vector, got norm {nrm:.6g}")
    e1 = np.zeros(dim, dtype=complex)
    e1[0] = 1.0
    alpha = v[0]
    phase = alpha / abs(alpha) if abs(alpha) > 0 else 1.0 + 0.0j
    # ||u||^2 = 2 + 2|v_0| >= 2, so the reflector is always well defined.
    u = v + phase * e1
    u = u / np.linalg.norm(u)
    reflector = np.eye(dim, dtype=complex) - 2.0 * np.outer(u, u.conj())
    return -phase * reflector


def pure_state_projector(psi) -> np.ndarray:
    """``P = sum_i |psi (x) psi_i><psi (x) psi_i|`` for the orthonormal basis
    {psi_i} of :func:`householder_basis` extending psi."""
    v = as_vector(psi, "psi")
    dim = v.size
    basis = householder_basis(v)
    p = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        col = np.kron(v, basis[:, i])
        p += np.outer(col, col.conj())
    return p


def pure_state_m(psi, verify: bool = True, seed: int = 0) -> np.ndarray:
    """The bounded representative of the pure-state functional, built as
    P U: U swaps the tensor factors and P projects onto
    span{psi (x) psi_i} for an orthonormal basis {psi_i} extending psi.

    With ``verify`` set, the construction self-checks the defining
    identities: ``(PU)(PU)^dag = P`` and ``beta_psi(S) = tr(S P U)`` on
    seeded elementary tensor sums.
    """
    v = as_vector(psi, "psi")
    dim = v.size
    n = dim * dim
    p = pure_state_projector(v)
    # P U: right multiplication by the swap permutes columns (k,l) -> (l,k).
    m = p.reshape(n, dim, dim).transpose(0, 2, 1).reshape(n, n)
    if verify:
        resid = float(np.linalg.norm(m @ m.conj().T - p))
        if resid > 1e-10:
            raise RuntimeError(f"(PU)(PU)^dag deviates from P by {resid:.3g}")
        rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
        for _ in range(10):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                terms.append((a, b))
            s = ElementaryTensorSum(tuple(terms))
            direct = sum(
                complex(np.vdot(bm.conj().T @ v, am @ v)) for am, bm in s.terms
            )
            paired = trace_pair(s.materialize(), m)
            if abs(direct - paired) > 1e-9 * max(1.0, abs(direct)):
                raise RuntimeError("beta_psi(S) != tr(S P U) on a sampled tensor sum")
    return m


def reconstruct_from_product_diagonal(f, dim: int) -> np.ndarray:
    """Recover an operator on H (x) H from its diagonal on product vectors.

    ``f(alpha, beta)`` must return ``<L(alpha (x) beta), alpha (x) beta>``
    for some operator L; every matrix element is then the 16-term double
    polarization

        ``<L(a (x) b), a' (x) b'> =
          (1/16) sum_{k,l=0..3} i^{k+l} f(a + i^k a', b + i^l b')``,

    iterated over basis vectors.  The oracle is called once per basis pair
    ``(a, a')`` on broadcastable ``(..., dim)`` stacks: ``alpha`` has shape
    ``(4, 1, 1, 1, dim)`` (the four ``a + i^k a'``) and ``beta`` has shape
    ``(1, dim, dim, 4, dim)`` (every ``b + i^l b'``), and it must return
    values that broadcast to ``(4, dim, dim, 4)``; a scalar return, as from
    ``lambda a, b: 0.0``, broadcasts.  The zero oracle reconstructs the zero
    operator; for inputs that are not genuine product diagonals the output
    is unspecified (garbage in, garbage out).
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])
    eye = np.eye(dim, dtype=complex)
    # rights[b, b', l] = e_b + i^l e_b'
    rights = eye[:, None, None, :] + phases[:, None] * eye[None, :, None, :]
    # weights[k, l] = i^(k+l) / 16
    weights = phases[np.add.outer(np.arange(4), np.arange(4)) % 4] / 16.0
    out = np.zeros((dim, dim, dim, dim), dtype=complex)  # [a', b', a, b]
    for a in range(dim):
        for a2 in range(dim):
            lefts = eye[a] + phases[:, None] * eye[a2]
            vals = np.broadcast_to(
                np.asarray(f(lefts[:, None, None, None, :], rights[None]), dtype=complex),
                (4, dim, dim, 4),
            )
            out[a2, :, a, :] = np.einsum("kl,kbcl->cb", weights, vals)
    return out.reshape(dim * dim, dim * dim)


def product_diagonal_of(m) -> "callable":
    """Diagonal oracle ``f(alpha, beta) = <M(alpha (x) beta), alpha (x) beta>``
    of a dense operator, for feeding the reconstructor.

    ``alpha`` and ``beta`` are broadcastable ``(..., d)`` stacks of vectors;
    the result has their broadcast batch shape, and is a complex scalar for
    two single vectors.
    """
    mm = np.asarray(m, dtype=complex)

    def f(alpha, beta):
        a = np.asarray(alpha, dtype=complex)
        b = np.asarray(beta, dtype=complex)
        prod = a[..., :, None] * b[..., None, :]
        vec = prod.reshape(prod.shape[:-2] + (-1,))
        vals = np.sum(vec.conj() * (vec @ mm.T), axis=-1)
        return complex(vals) if vals.ndim == 0 else vals

    return f


def evaluate_double_sum(m, p: Projection, q: Projection, block_rank: int) -> complex:
    """``sum_i sum_j tr((p_i (x) q_j) M)`` over orthogonal block
    decompositions of p and q with blocks of rank at most ``block_rank``
    (those of :func:`dfrep.histories.orthogonal_decompose`).

    Every term is one entry of a single block pair table (the product of
    the block stacks with the realignment of M, as in
    :func:`dfrep.linalg.kron_trace_table`), which is summed.  By trace
    linearity the value equals ``tr(M (p (x) q))`` for every admissible
    block decomposition.
    """
    return double_sum_table(m, [p], [q], [block_rank])[0][0]


def double_sum_table(m, ps, qs, block_ranks) -> list:
    """``out[s][k] = evaluate_double_sum(m, ps[s], qs[s], block_ranks[k])``
    as nested lists, with M realigned once and every projection
    eigendecomposed once for all block ranks."""
    mm = m.m_op if isinstance(m, TracialOperator) else np.asarray(m, dtype=complex)
    if any(br < 1 for br in block_ranks):
        raise ValueError("max_rank must be >= 1")
    realigned = {}
    out = []
    for p, q in zip(ps, qs):
        if not isinstance(p, Projection):
            p = Projection.from_matrix(mat(p))
        if not isinstance(q, Projection):
            q = Projection.from_matrix(mat(q))
        if p.rank == 0 or q.rank == 0:
            out.append([0j] * len(block_ranks))
            continue
        dims = (p.dim, q.dim)
        if dims not in realigned:
            realigned[dims] = pairing_realignment(mm, *dims)
        xr = realigned[dims]
        p_cols, q_cols = _range_columns(p), _range_columns(q)
        row = []
        for br in block_ranks:
            pm = np.stack([b @ b.conj().T for b in _column_blocks(p_cols, br)])
            qm = np.stack([b @ b.conj().T for b in _column_blocks(q_cols, br)])
            row.append(complex(np.sum((pm.reshape(len(pm), -1) @ xr) @ qm.reshape(len(qm), -1).T)))
        out.append(row)
    return out
