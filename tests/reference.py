"""Definitional reference code that the tests check the library against.

Each definition here is the scalar, term-by-term form of an object that
``dfrep`` computes by a batched route: the bounded bilinear extension D
assembled from spectral decompositions (and its randomly refined variant),
the linear functional beta on the algebraic tensor product, the history
class operators ``C_h`` and the history-pair values ``d(h, k)``, the
16-term double-polarization reconstructor, and the matrix helpers they are
written in (spectral projections, Haar unitaries, the identity, zero and
rank-one projections).  No CLI command reaches this module and ``dfrep``
does not import it; the tests import it as ``reference``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from dfrep.functionals import DecoherenceFunctional, OperatorBackedFunctional, _check_dim
from dfrep.histories import ClassOperatorModel
from dfrep.linalg import (
    MAX_DIM_PAIR,
    DimensionLimitError,
    Projection,
    _as_rng,
    as_matrix,
    as_vector,
    check_projection_stack,
    ginibre,
    haar_from_ginibre,
    hermiticity_residual,
    kron_trace,
    mat,
    unit_vector,
)
from dfrep.tolerances import EIG_MERGE_REL, SCALE_FLOOR, TENSOR_NORM2_FLOOR, TOL_PROJ
from dfrep.tracial import _column_blocks, _range_columns

# --- Dense algebra on H (x) H ------------------------------------------------


@dataclass(frozen=True, eq=False)
class ElementaryTensorSum:
    """A finite sum of elementary tensors ``sum_m a_m (x) b_m``.

    All factors must share one dimension; the list must be non-empty.
    This is the dense stand-in for elements of the algebraic tensor
    product of the operator algebra with itself.
    """

    terms: tuple

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("elementary tensor sum must have at least one term")
        norm_terms = []
        dim = None
        for k, (a, b) in enumerate(self.terms):
            am = as_matrix(a, f"terms[{k}].left")
            bm = as_matrix(b, f"terms[{k}].right")
            if dim is None:
                dim = am.shape[0]
            if am.shape[0] != dim or bm.shape[0] != dim:
                raise ValueError("all tensor-sum factors must share one dimension")
            norm_terms.append((am, bm))
        object.__setattr__(self, "terms", tuple(norm_terms))

    @property
    def dim(self) -> int:
        return self.terms[0][0].shape[0]

    def materialize(self) -> np.ndarray:
        """Dense matrix on H (x) H equal to the sum of Kronecker products."""
        out = kron(*self.terms[0])
        for a, b in self.terms[1:]:
            out = out + kron(a, b)
        return out


def projector_tensor_sum(vector_terms, normalize: bool = True) -> ElementaryTensorSum:
    """Rank-one projection onto ``xi = sum_m alpha_m (x) gamma_m``, expanded
    as an elementary tensor sum.

    ``p_xi = sum_{m,m'} |alpha_m><alpha_m'| (x) |gamma_m><gamma_m'|`` (divided
    by ``||xi||^2`` when ``normalize`` is set), which lies in the algebraic
    tensor product whenever xi does.
    """
    pairs = [(as_vector(a, "alpha"), as_vector(g, "gamma")) for a, g in vector_terms]
    if not pairs:
        raise ValueError("need at least one elementary tensor term")
    if normalize:
        nrm2 = 0.0 + 0.0j
        for a1, g1 in pairs:
            for a2, g2 in pairs:
                nrm2 += np.vdot(a2, a1) * np.vdot(g2, g1)
        nrm2 = float(nrm2.real)
        if nrm2 <= TENSOR_NORM2_FLOOR:
            raise ValueError("tensor vector has (numerically) zero norm")
    else:
        nrm2 = 1.0
    terms = []
    for a1, g1 in pairs:
        for a2, g2 in pairs:
            terms.append((np.outer(a1, a2.conj()) / nrm2, np.outer(g1, g2.conj())))
    return ElementaryTensorSum(tuple(terms))


def kron(a, b) -> np.ndarray:
    """Kronecker product, guarded by the dense dimension limit."""
    am = mat(a)
    bm = mat(b)
    if am.shape[0] * bm.shape[0] > MAX_DIM_PAIR:
        raise DimensionLimitError(
            f"kron dimension {am.shape[0] * bm.shape[0]} exceeds limit {MAX_DIM_PAIR}"
        )
    return np.kron(am, bm)


def trace_pair(a, x) -> complex:
    """tr(a x), contracted directly without forming the product matrix."""
    am = mat(a)
    xm = mat(x)
    if am.shape != xm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {xm.shape}")
    return complex(np.einsum("ij,ji->", am, xm))


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre matrix."""
    return haar_from_ginibre(ginibre(dim, dim, _as_rng(seed)))


def spectral_projections(h):
    """Spectral decomposition of a Hermitian matrix (within ``TOL_PROJ``,
    relative) into (eigenvalue, Projection) pairs with ascending eigenvalues.

    Eigenvalues with gaps below ``EIG_MERGE_REL * ||h||`` are merged into a
    single projection, so degenerate eigenspaces come out as one block and
    the output is stable under unitary noise in the eigenvector basis.
    """
    hm = as_matrix(h, "hermitian matrix")
    if hermiticity_residual(hm) > TOL_PROJ:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hm)
    spectral_scale = max(float(np.max(np.abs(w))), SCALE_FLOOR)
    gap = EIG_MERGE_REL * spectral_scale
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            block = v[:, start:i]
            proj = block @ block.conj().T
            out.append((float(np.mean(w[start:i])), Projection(proj, i - start)))
            start = i
    return out


def identity_projection(dim: int) -> Projection:
    return Projection(np.eye(dim, dtype=complex), dim)


def zero_projection(dim: int) -> Projection:
    return Projection(np.zeros((dim, dim), dtype=complex), 0)


def rank_one_proj(xi) -> Projection:
    """Projection onto the span of a unit vector."""
    v = unit_vector(xi, "xi")
    return Projection(np.outer(v, v.conj()), 1)


# --- beta and the bilinear extension -----------------------------------------


def _combine_hermitian_parts(xm, ym, pair) -> complex:
    """Split x and y into Hermitian parts ``xr + i xi`` and combine the four
    ``pair`` values bilinearly, in the order (xr, yr), (xi, yr), (xr, yi), (xi, yi)."""
    xr = (xm + xm.conj().T) / 2
    xi = (xm - xm.conj().T) / 2j
    yr = (ym + ym.conj().T) / 2
    yi = (ym - ym.conj().T) / 2j
    return pair(xr, yr) + 1j * pair(xi, yr) + 1j * pair(xr, yi) - pair(xi, yi)


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """The bounded bilinear extension D of a decoherence functional.

    Values are assembled constructively from d on projections: each argument
    is split into Hermitian parts, each part is spectrally decomposed, and

        ``D(x, y) = sum_{j,k} lambda_j mu_k d(p_j, q_k)``

    combined bilinearly over the four Hermitian-part pairs.  By
    orthoadditivity this is independent of the decomposition chosen (see
    :func:`bilinear_refined`).
    """

    source: DecoherenceFunctional

    def __call__(self, x, y) -> complex:
        xm = as_matrix(mat(x), "x")
        ym = as_matrix(mat(y), "y")
        if xm.shape[0] != self.source.dim or ym.shape[0] != self.source.dim:
            raise ValueError("dimension mismatch with the source functional")
        return _combine_hermitian_parts(xm, ym, self._hermitian_pair)

    def _hermitian_pair(self, a, b) -> complex:
        pa = spectral_projections(a)
        pb = spectral_projections(b)
        lam = np.array([w for w, _ in pa])
        mu = np.array([w for w, _ in pb])
        table = self.source.pair_table(
            np.stack([p.matrix for _, p in pa]), np.stack([q.matrix for _, q in pb])
        )
        return complex(lam @ table @ mu)


def extend_to_bilinear(d: DecoherenceFunctional) -> BilinearForm:
    """Extend d to the bounded bilinear form D (dimension >= 3 only)."""
    _check_dim(d.dim, "bilinear extension")
    return BilinearForm(d)


def bilinear_refined(d: DecoherenceFunctional, x, y, rng) -> complex:
    """D(x, y) through randomly refined spectral decompositions.

    Every spectral projection (including degenerate blocks) is split into a
    random orthonormal family of rank-one projections before the bilinear
    expansion.  Used to verify that the extension does not depend on the
    decomposition of its arguments.
    """
    xm = as_matrix(mat(x), "x")
    ym = as_matrix(mat(y), "y")

    def refine(h):
        """Weights and a validated stack of the rank-one pieces."""
        weights, frames = [], []
        for w, proj in spectral_projections(h):
            vals, vecs = np.linalg.eigh(proj.matrix)
            cols = vecs[:, vals > 0.5]
            frames.append(cols @ haar_unitary(cols.shape[1], rng))
            weights += [w] * cols.shape[1]
        cols = np.concatenate(frames, axis=1).T
        pieces = cols[:, :, None] * cols[:, None, :].conj()
        return np.array(weights), check_projection_stack(pieces, np.ones(len(cols)))

    def pair(a, b) -> complex:
        wa, pa = refine(a)
        out = 0.0 + 0.0j
        for s in range(len(wa)):
            wb, pb = refine(b)  # b is refined afresh for every piece of a
            out += wa[s] * (d.pair_table(pa[s : s + 1], pb)[0] @ wb)
        return out

    return _combine_hermitian_parts(xm, ym, pair)


def sesquilinear_q(bform, x, y) -> complex:
    """Q(x, y) = D(x, y^dag): the Hermitian form associated with D."""
    return bform(x, mat(y).conj().T)


def beta(d: DecoherenceFunctional, s: ElementaryTensorSum) -> complex:
    """The linear functional on the algebraic tensor product:
    ``beta(sum_m a_m (x) b_m) = sum_m D(a_m, b_m)``.

    Well defined because D is bilinear: re-expressing the same tensor sum
    in different terms leaves the value unchanged.
    """
    _check_dim(d.dim, "beta")
    if s.dim != d.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {d.dim}")
    return complex(sum(d.bilinear(a, b) for a, b in s.terms))


def beta_of_product_projection(d: DecoherenceFunctional, vector_terms) -> complex:
    """``beta(p_xi)`` for ``xi = sum_m alpha_m (x) gamma_m`` (normalized).

    Expands the rank-one projection into elementary tensors and applies the
    canonical bilinear extension term by term.
    """
    s = projector_tensor_sum(vector_terms, normalize=True)
    if s.dim != d.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {d.dim}")
    return complex(sum(d.bilinear(a, b) for a, b in s.terms))


# --- The trace-pairing representation ----------------------------------------


def evaluate_ils(x: OperatorBackedFunctional, p, q) -> complex:
    """tr((p (x) q) X) for projections of the truncation dimension."""
    return kron_trace(p, q, x.x_op)


def functional_to_operator(coeffs) -> np.ndarray:
    """Trace-pairing representative of a linear functional on matrices.

    ``coeffs[a, b]`` is the functional's value on the matrix unit
    ``E_ab``; the unique T with ``phi(z) = tr(z T)`` for all z is the
    transpose of that coefficient array, since ``tr(E_ab T) = T[b, a]``.
    """
    c = as_matrix(coeffs, "coeffs")
    return c.T.copy()


# --- Product-diagonal reconstruction ----------------------------------------


def _scalar_reconstruct(f, dim):
    """The operator with product diagonal f, element by element through the
    16-term double polarization
    ``<L(a (x) b), a' (x) b'> = (1/16) sum_{k,l} i^{k+l} f(a + i^k a', b + i^l b')``
    over basis vectors, one scalar oracle call per term."""
    phases = [1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]
    eye = np.eye(dim, dtype=complex)
    n = dim * dim
    out = np.zeros((n, n), dtype=complex)
    for a in range(dim):
        for a2 in range(dim):
            lefts = [eye[a] + phases[k] * eye[a2] for k in range(4)]
            for b in range(dim):
                for b2 in range(dim):
                    rights = [eye[b] + phases[l] * eye[b2] for l in range(4)]
                    acc = 0.0 + 0.0j
                    for k in range(4):
                        for l in range(4):
                            acc += phases[(k + l) % 4] * f(lefts[k], rights[l])
                    out[a2 * dim + b2, a * dim + b] = acc / 16.0
    return out


def _scalar_product_diagonal_of(m):
    """``f(alpha, beta) = <M(alpha (x) beta), alpha (x) beta>`` for single
    vectors, through the Kronecker vector."""
    def f(alpha, beta):
        vec = np.kron(alpha, beta)
        return complex(np.vdot(vec, m @ vec))

    return f


# --- Homogeneous histories ---------------------------------------------------


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


def heisenberg(model: ClassOperatorModel, p, t: float) -> np.ndarray:
    """Heisenberg-picture operator U(t)^dag p U(t)."""
    u = model.propagator(t)
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
        c = heisenberg(model, sched[choice], model.times[k]) @ c
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


def orthogonal_decompose(p: Projection, max_rank: int):
    """Split a projection into pairwise orthogonal sub-projections of rank
    at most ``max_rank`` that sum to it.  The zero projection gives an
    empty list."""
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    if p.rank == 0:
        return []
    return [
        Projection(block @ block.conj().T, block.shape[1])
        for block in _column_blocks(_range_columns(p.matrix), max_rank)
    ]


# --- Pure-state representative -----------------------------------------------


def householder_basis(psi) -> np.ndarray:
    """Orthonormal basis (as columns) whose first column is psi, obtained
    from a single complex Householder reflection; deterministic in psi."""
    v = unit_vector(psi, "psi")
    dim = v.size
    e1 = np.zeros(dim, dtype=complex)
    e1[0] = 1.0
    alpha = v[0]
    phase = alpha / abs(alpha) if abs(alpha) > 0 else 1.0 + 0.0j
    # ||u||^2 = 2 + 2|v_0| >= 2, so the reflector is always well defined.
    u = v + phase * e1
    u = u / np.linalg.norm(u)
    reflector = np.eye(dim, dtype=complex) - 2.0 * np.outer(u, u.conj())
    return -phase * reflector
