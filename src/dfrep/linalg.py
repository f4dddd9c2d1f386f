"""Dense complex linear algebra on a finite Hilbert space H and on H (x) H.

Everything here works on plain ``numpy`` arrays with ``complex`` dtype.
Projections carry their rank and are validated on construction; all other
operators are bare matrices.  Operations are pure; randomness only enters
through explicit seeds or generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Projection invariants are checked to this tolerance, relative to the
# Frobenius scale of the matrix (eigendecomposition noise at double precision).
TOL_PROJ = 1e-8

# Desk-scale dense limits: dim(H) and dim(H (x) H).
MAX_DIM = 64
MAX_DIM_PAIR = 4096

# Degenerate eigenvalues closer than this (relative to the spectral scale)
# are merged into a single spectral projection.
EIG_MERGE_REL = 1e-8


class DimensionLimitError(ValueError):
    """Requested operator exceeds the dense desk-scale dimension limits."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_vector(v, name: str = "vector") -> np.ndarray:
    m = np.asarray(v, dtype=complex).reshape(-1)
    if m.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class Projection:
    """An orthogonal projection together with its integer rank.

    Invariants (checked on construction, relative to the Frobenius scale):
    idempotency ``||P^2 - P||_F <= TOL_PROJ``, Hermiticity
    ``||P - P^dag||_F <= TOL_PROJ`` and ``rank = round(Re tr P)``.
    """

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        m = as_matrix(self.matrix, "projection")
        object.__setattr__(self, "matrix", m)
        check_projection_stack(m[None], (self.rank,))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "Projection":
        m = as_matrix(m, "projection")
        rank = int(round(float(np.trace(m).real)))
        return cls(m, rank)


def stack_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each entry of a complex ``(n, ...)`` stack (the Frobenius
    norm for matrices), without complex temporaries."""
    v = np.ascontiguousarray(a).view(float).reshape(len(a), -1)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _which(stack: np.ndarray, k: int) -> str:
    return "projection" if len(stack) == 1 else f"projection {k}"


def check_projection_stack(mats, ranks) -> np.ndarray:
    """Validate a stack of projection matrices against their declared ranks
    with the :class:`Projection` invariants, vectorised over the stack.

    Returns the stack as a complex array; raises ``ValueError`` naming the
    first failing matrix (by index when the stack has more than one).
    """
    m = np.asarray(mats, dtype=complex)
    r = np.asarray(ranks, dtype=float).reshape(-1)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or len(r) != len(m):
        raise ValueError(
            f"need an (n, d, d) stack with n ranks, got {m.shape} and {len(r)} ranks"
        )
    finite = np.isfinite(m).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"{_which(m, k)} has non-finite entries")
    dim = m.shape[1]
    scale = TOL_PROJ * np.maximum(1.0, stack_norms(m))
    tr = np.einsum("sii->s", m)
    herm = stack_norms(m - m.conj().transpose(0, 2, 1)) > scale
    idem = stack_norms(m @ m - m) > scale
    rank = (r < 0) | (r > dim)
    trace = np.abs(tr - r) > TOL_PROJ * np.maximum(1.0, r)
    bad = herm | idem | rank | trace
    if not bad.any():
        return m
    k = int(np.argmax(bad))
    where = _which(m, k)
    if herm[k]:
        raise ValueError(f"{where} is not Hermitian within tolerance")
    if idem[k]:
        raise ValueError(f"{where} is not idempotent within tolerance")
    if rank[k]:
        raise ValueError(f"{where} rank {r[k]:g} out of range for dim {dim}")
    raise ValueError(f"{where} trace {tr[k]:.3g} inconsistent with declared rank {r[k]:g}")


def identity_projection(dim: int) -> Projection:
    return Projection(np.eye(dim, dtype=complex), dim)


def zero_projection(dim: int) -> Projection:
    return Projection(np.zeros((dim, dim), dtype=complex), 0)


def mat(x) -> np.ndarray:
    """Matrix payload of a Projection, or the array itself."""
    if isinstance(x, Projection):
        return x.matrix
    return np.asarray(x, dtype=complex)


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
        if nrm2 <= 1e-24:
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


def kron_trace(p, q, x) -> complex:
    """tr((p (x) q) x) by four-index contraction, never materializing p (x) q."""
    pm = mat(p)
    qm = mat(q)
    xm = mat(x)
    dp, dq = pm.shape[0], qm.shape[0]
    if xm.shape[0] != dp * dq:
        raise ValueError(
            f"dimension mismatch: x is {xm.shape[0]}, factors give {dp * dq}"
        )
    x4 = xm.reshape(dp, dq, dp, dq)
    # t[k, i] = sum_{l,j} x[k,l,i,j] q[j,l] as one matrix-vector product (a
    # tensordot without its Python overhead), then sum_{i,k} p[i,k] t[k,i].
    t = x4.transpose(0, 2, 1, 3).reshape(dp * dp, dq * dq) @ qm.T.reshape(-1)
    return complex(np.sum(pm.T * t.reshape(dp, dp)))


def pairing_realignment(x, dp: int, dq: int) -> np.ndarray:
    """Realignment ``Xr[(i,k), (j,l)] = X[(k,l), (i,j)]`` of an operator on
    ``C^dp (x) C^dq``, so that ``tr((p (x) q) X) = vec(p) Xr vec(q)^T`` with
    row-major ``vec``.  Pair tables and batched pairings then become plain
    matrix products against ``Xr``."""
    xm = mat(x)
    if xm.shape != (dp * dq, dp * dq):
        raise ValueError(
            f"dimension mismatch: x is {xm.shape[0]}, factors give {dp * dq}"
        )
    x4 = xm.reshape(dp, dq, dp, dq)
    return np.ascontiguousarray(x4.transpose(2, 0, 3, 1)).reshape(dp * dp, dq * dq)


def kron_trace_table(p, q, x) -> np.ndarray:
    """Table ``tr((p_s (x) q_t) x)`` for stacks ``p`` (m, dp, dp) and ``q``
    (n, dq, dq): two matmuls against the realignment of ``x``.  Entry
    (s, t) equals ``kron_trace(p[s], q[t], x)`` up to summation order."""
    pm = np.asarray(p, dtype=complex)
    qm = np.asarray(q, dtype=complex)
    if pm.ndim != 3 or qm.ndim != 3:
        raise ValueError(f"need two matrix stacks, got {pm.shape} and {qm.shape}")
    xr = pairing_realignment(x, pm.shape[1], qm.shape[1])
    return (pm.reshape(len(pm), -1) @ xr) @ qm.reshape(len(qm), -1).T


def kron_trace_batch(p, q, x) -> np.ndarray:
    """``tr((p_s (x) q_s) x)`` for stacks ``p`` (n, dp, dp) and ``q``
    (n, dq, dq): one matmul against the realignment of ``x``, never
    materializing a Kronecker product.  Row s equals ``kron_trace(p[s],
    q[s], x)`` up to summation order."""
    pm = np.asarray(p, dtype=complex)
    qm = np.asarray(q, dtype=complex)
    if pm.ndim != 3 or qm.ndim != 3 or len(pm) != len(qm):
        raise ValueError(
            f"need two equal-length matrix stacks, got {pm.shape} and {qm.shape}"
        )
    dp, dq = pm.shape[1], qm.shape[1]
    xr = pairing_realignment(x, dp, dq)
    n = len(pm)
    return np.einsum("sk,sk->s", pm.reshape(n, -1) @ xr, qm.reshape(n, -1))


def spectral_projections(h, tol: float = TOL_PROJ):
    """Spectral decomposition of a Hermitian matrix into (eigenvalue,
    Projection) pairs with ascending eigenvalues.

    Eigenvalues with gaps below ``EIG_MERGE_REL * ||h||`` are merged into a
    single projection, so degenerate eigenspaces come out as one block and
    the output is stable under unitary noise in the eigenvector basis.
    """
    hm = as_matrix(h, "hermitian matrix")
    scale = max(1.0, float(np.linalg.norm(hm)))
    if np.linalg.norm(hm - hm.conj().T) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(hm)
    spectral_scale = max(float(np.max(np.abs(w))), 1e-300)
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


def trace_norm(a) -> float:
    """Schatten-1 norm: the sum of singular values."""
    am = as_matrix(a, "matrix")
    return float(np.sum(np.linalg.svd(am, compute_uv=False)))


def operator_norm(a) -> float:
    """Spectral norm: the largest singular value."""
    am = as_matrix(a, "matrix")
    return float(np.linalg.norm(am, 2))


def rank_one_proj(xi, tol: float = TOL_PROJ) -> Projection:
    """Projection onto the span of a unit vector."""
    v = as_vector(xi, "xi")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"xi must be a unit vector, got norm {nrm:.6g}")
    return Projection(np.outer(v, v.conj()), 1)


def swap_operator(d: int) -> np.ndarray:
    """The unitary on H (x) H exchanging the tensor factors."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d * d > MAX_DIM_PAIR:
        raise DimensionLimitError(f"swap dimension {d * d} exceeds {MAX_DIM_PAIR}")
    w = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            w[i * d + j, j * d + i] = 1.0
    return w


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed))


def ginibre(rows: int, cols: int, rng) -> np.ndarray:
    """Complex Ginibre matrix: the draw behind :func:`haar_unitary` and
    :func:`random_projection` (real parts first, then imaginary parts)."""
    z = rng.standard_normal((2, rows, cols))  # the same stream as two draws
    return z[0] + 1j * z[1]


def haar_from_ginibre(g) -> np.ndarray:
    """Phase-fixed QR of a complex Ginibre matrix, or of an ``(n, d, d)``
    stack of them in one batched call: Haar-distributed unitaries."""
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph = ph / np.abs(ph)
    return q * ph[..., None, :]


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre matrix."""
    return haar_from_ginibre(ginibre(dim, dim, _as_rng(seed)))


def _draw_projection_factor(dim: int, rank: int, rng):
    """The Gaussian draw behind :func:`random_projection`: a ``(dim, rank)``
    complex Ginibre factor, or ``None`` for rank 0 or ``dim``, which draw
    nothing.  Pass the factors to :func:`_projection_matrices`."""
    if not (0 <= rank <= dim):
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    if rank == 0 or rank == dim:
        return None
    return ginibre(dim, rank, rng)


def _projection_matrices(dim: int, ranks, factors) -> np.ndarray:
    """``(n, dim, dim)`` stack of the projections onto the column spans of
    ``factors`` (from :func:`_draw_projection_factor`), orthonormalised by
    one batched QR per rank.  The matrices are not validated; see
    :func:`check_projection_stack`."""
    ranks = np.asarray(ranks, dtype=int).reshape(-1)
    out = np.zeros((len(ranks), dim, dim), dtype=complex)
    out[ranks == dim] = np.eye(dim)
    for rank in np.unique(ranks[(ranks > 0) & (ranks < dim)]):
        idx = np.flatnonzero(ranks == rank)
        q, _ = np.linalg.qr(np.stack([factors[i] for i in idx]))
        out[idx] = q @ q.conj().transpose(0, 2, 1)
    return out


def sample_projections(dim: int, count: int, rng, min_rank: int = 0) -> np.ndarray:
    """``(count, dim, dim)`` stack of validated random projections, drawing
    from ``rng`` exactly as ``count`` successive calls
    ``random_projection(dim, int(rng.integers(min_rank, dim + 1)), rng)``
    would; the QRs and the validation then run batched."""
    ranks = []
    factors = []
    for _ in range(count):
        ranks.append(int(rng.integers(min_rank, dim + 1)))
        factors.append(_draw_projection_factor(dim, ranks[-1], rng))
    return check_projection_stack(_projection_matrices(dim, ranks, factors), ranks)


def random_projection(dim: int, rank: int, seed) -> Projection:
    """Seeded Haar-like random projection of the given rank.

    Built by orthonormalizing Gaussian columns; deterministic per seed.
    """
    factor = _draw_projection_factor(dim, rank, _as_rng(seed))
    return Projection(_projection_matrices(dim, [rank], [factor])[0], rank)
