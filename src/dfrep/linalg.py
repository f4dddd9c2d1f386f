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
        scale = max(1.0, float(np.linalg.norm(m)))
        if np.linalg.norm(m - m.conj().T) > TOL_PROJ * scale:
            raise ValueError("projection is not Hermitian within tolerance")
        if np.linalg.norm(m @ m - m) > TOL_PROJ * scale:
            raise ValueError("projection is not idempotent within tolerance")
        tr = complex(np.trace(m))
        if not (0 <= self.rank <= m.shape[0]):
            raise ValueError(f"rank {self.rank} out of range for dim {m.shape[0]}")
        if abs(tr - self.rank) > TOL_PROJ * max(1.0, self.rank):
            raise ValueError(
                f"trace {tr:.3g} inconsistent with declared rank {self.rank}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "Projection":
        m = as_matrix(m, "projection")
        rank = int(round(float(np.trace(m).real)))
        return cls(m, rank)


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
    return complex(np.einsum("ik,jl,klij->", pm, qm, x4))


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


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Ginibre matrix."""
    rng = _as_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def random_projection(dim: int, rank: int, seed) -> Projection:
    """Seeded Haar-like random projection of the given rank.

    Built by orthonormalizing Gaussian columns; deterministic per seed.
    """
    if not (0 <= rank <= dim):
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    if rank == 0:
        return zero_projection(dim)
    if rank == dim:
        return identity_projection(dim)
    rng = _as_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return Projection(q @ q.conj().T, rank)
