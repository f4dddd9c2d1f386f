"""Dense complex linear algebra on a finite Hilbert space H and on H (x) H.

Everything here works on plain ``numpy`` arrays with ``complex`` dtype.
Projections carry their rank and are validated on construction; all other
operators are bare matrices.  Operations are pure; randomness only enters
through explicit seeds or generators.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import (
    HERMITIAN_ROUTE_REL,
    TOL_PROJ,
    UNIT_NORM_TOL,
)

# Desk-scale dense limits: dim(H) and dim(H (x) H).
MAX_DIM = 64
MAX_DIM_PAIR = 4096


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


def unit_vector(v, name: str = "vector") -> np.ndarray:
    """:func:`as_vector` for a vector whose norm is 1 within
    :data:`UNIT_NORM_TOL`."""
    m = as_vector(v, name)
    nrm = float(np.linalg.norm(m))
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} must be a unit vector, got norm {nrm:.6g}")
    return m


def hermiticity_residual(a: np.ndarray) -> float:
    """``||a - a^dag||_F / max(1, ||a||_F)``: the relative residual that
    every Hermiticity check compares with its tolerance.  No full-size
    ``a^dag`` or difference is formed (see :func:`_skew_norm2`)."""
    return math.sqrt(_skew_norm2(a)) / max(1.0, float(np.linalg.norm(a)))


class Frozen:
    """Base of the value classes: an instance refuses attribute assignment
    and deletion, as a frozen dataclass does, so the checks made on
    construction keep holding.  Constructors set their fields with
    ``vars(self).update``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class Projection(Frozen):
    """An orthogonal projection together with its integer rank.

    Invariants (checked on construction, relative to the Frobenius scale):
    idempotency ``||P^2 - P||_F <= TOL_PROJ``, Hermiticity
    ``||P - P^dag||_F <= TOL_PROJ`` and ``rank = round(Re tr P)``.
    Projections are immutable and compare by identity.
    """

    def __init__(self, matrix, rank: int):
        vars(self).update(matrix=matrix, rank=rank)
        self.__post_init__()

    # The validation is its own method, where per-class wrappers find it.
    def __post_init__(self):
        vars(self)["matrix"] = as_matrix(self.matrix, "projection")
        check_projection_stack(self.matrix[None], (self.rank,))


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
    # Each residual is formed in one temporary of the stack's size.
    skew = np.conjugate(m.transpose(0, 2, 1), order="C")
    herm = stack_norms(np.subtract(m, skew, out=skew)) > scale
    del skew
    square = m @ m
    square -= m
    idem = stack_norms(square) > scale
    del square
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


def mat(x) -> np.ndarray:
    """Matrix payload of a Projection, or the array itself."""
    if isinstance(x, Projection):
        return x.matrix
    return np.asarray(x, dtype=complex)


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


def _pair_side(m: np.ndarray, name: str) -> int:
    """``d`` for a ``(d^2, d^2)`` operator on H (x) H, else ``ValueError``."""
    dim = math.isqrt(m.shape[0]) if m.ndim == 2 else 0
    if dim < 1 or m.shape != (dim * dim, dim * dim):
        raise ValueError(f"dimension mismatch: {name} must have shape (d^2, d^2), got {m.shape}")
    return dim


def pairing_realignment(x) -> np.ndarray:
    """The pairing matrix ``P[(i,k), (j,l)] = X[(k,l), (i,j)]`` of an
    operator X on H (x) H, so that ``tr((p (x) q) X) = vec(p) P vec(q)^T``
    with row-major ``vec``; for a functional with bilinear extension D it is
    ``P[(a,b), (c,e)] = D(E_ab, E_ce)``.  Pair tables and batched pairings
    are then plain matrix products against P."""
    xm = mat(x)
    dim = _pair_side(xm, "x")
    x4 = xm.reshape(dim, dim, dim, dim)
    return np.ascontiguousarray(x4.transpose(2, 0, 3, 1)).reshape(xm.shape)


def operator_from_pairing(p, swapped: bool = False) -> np.ndarray:
    """The operator ``X[(b,e), (a,c)] = P[(a,b), (c,e)]`` with pairing
    matrix p (the inverse of :func:`pairing_realignment`), or with
    ``swapped`` its product ``(W X)[(e,b), (a,c)]`` with the swap W, in a
    fresh array that may be overwritten without touching p."""
    pm = mat(p)
    dim = _pair_side(pm, "pairing")
    p4 = pm.reshape(dim, dim, dim, dim)
    return p4.transpose((3, 1, 0, 2) if swapped else (1, 3, 0, 2)).copy().reshape(pm.shape)


def swap_right(a) -> np.ndarray:
    """``a W`` for the swap unitary W on H (x) H, as the index transpose
    ``(a W)[:, (k,l)] = a[:, (l,k)]``, in a fresh array.  It maps a pairing
    matrix P to the Gram matrix ``G[(a,b), (c,e)] = P[(a,b), (e,c)]`` of the
    Hermitian form and back."""
    am = mat(a)
    dim = _pair_side(am, "a")
    return am.reshape(-1, dim, dim).transpose(0, 2, 1).copy().reshape(am.shape)


def pairing_values(p, q, pairing) -> np.ndarray:
    """``tr((p_s (x) q_s) X) = vec(p_s) P vec(q_s)^T`` for stacks ``p``
    (n, dp, dp) and ``q`` (n, dq, dq) and the ``(dp^2, dq^2)`` pairing
    matrix P of X: one matmul, never a Kronecker product.  Row s equals
    ``kron_trace(p[s], q[s], x)`` up to summation order."""
    pm = np.asarray(p, dtype=complex)
    qm = np.asarray(q, dtype=complex)
    if pm.ndim != 3 or qm.ndim != 3 or len(pm) != len(qm):
        raise ValueError(
            f"need two equal-length matrix stacks, got {pm.shape} and {qm.shape}"
        )
    left, right, pr = pm.reshape(len(pm), -1), qm.reshape(len(qm), -1), mat(pairing)
    if pr.shape != (left.shape[1], right.shape[1]):
        raise ValueError(f"dimension mismatch: pairing {pr.shape}, stacks {pm.shape}, {qm.shape}")
    return np.einsum("sk,sk->s", left @ pr, right)


def pairing_trace(p) -> complex:
    """``tr X = sum_{a,c} P[(a,a), (c,c)] = D(1, 1)`` of the operator X
    whose pairing matrix is p, summed in the order of ``np.trace(X)``."""
    pm = mat(p)
    dim = _pair_side(pm, "pairing")
    return complex(pm[:: dim + 1, :: dim + 1].ravel().sum())


def swap_adjoint_residual(p) -> float:
    """``||X - W X^dag W||_F`` (W the swap) of the operator with pairing
    matrix p: the residual of ``P[a,b,c,e] = conj P[e,c,b,a]``, by index
    transpose one leading index at a time (temporaries of d^3 entries)."""
    pm = mat(p)
    dim = _pair_side(pm, "pairing")
    p4 = pm.reshape(dim, dim, dim, dim)
    mirror = p4.transpose(3, 2, 1, 0)
    return float(np.sqrt(sum(np.linalg.norm(p4[i] - mirror[i].conj()) ** 2 for i in range(dim))))


def rank_one_vectors(support, coeff, dim: int) -> np.ndarray:
    """Dense ``(n, dim)`` rows ``v_s = sum_k coeff[s, k] e_{support[s, k]}``
    of rank-one operators ``|v_s><v_s|`` given in sparse form: ``support``
    and ``coeff`` are ``(n, k)`` arrays of basis indices and amplitudes."""
    v = np.zeros((len(support), dim), dtype=complex)
    rows = np.arange(len(support))
    for k in range(support.shape[1]):
        v[rows, support[:, k]] += coeff[:, k]  # rows are distinct within one slot
    return v


def rank_one_matrices(support, coeff, dim: int) -> np.ndarray:
    """The ``(n, dim, dim)`` stack ``|v_s><v_s|`` of sparse rank-one
    operators (see :func:`rank_one_vectors`)."""
    v = rank_one_vectors(support, coeff, dim)
    return v[:, :, None] * v[:, None, :].conj()


def rank_one_rows(support, coeff, m) -> np.ndarray:
    """``v_s^T m`` for the sparse vectors ``v_s``: each row is a
    combination of the rows of m picked by ``support``."""
    m = np.asarray(m)
    shape = (len(coeff),) + (1,) * (m.ndim - 1)
    out = np.take(m, support[:, 0], axis=0) * coeff[:, 0].reshape(shape)
    for k in range(1, support.shape[1]):
        out += np.take(m, support[:, k], axis=0) * coeff[:, k].reshape(shape)
    return out


def vector_supports(v: np.ndarray):
    """``(support, coeff)`` of each vector of a dense ``(..., d)`` stack:
    the indices of its nonzero entries and their values, padded with zero
    coefficients to the largest support in the stack (the inverse of
    :func:`rank_one_vectors`)."""
    nonzero = v != 0
    k = max(1, int(nonzero.sum(axis=-1).max(initial=0)))
    support = np.argsort(~nonzero, axis=-1, kind="stable")[..., :k]
    return support, np.take_along_axis(v, support, axis=-1)


def rank_one_product_diagonal(left, right, pairing) -> np.ndarray:
    """The ``(n, m)`` table ``<v (x) w| X |v (x) w> = tr((|v><v| (x) |w><w|) X)``
    for n sparse vectors ``left = (support, coeff)`` of shape ``(n, k)``
    against m sparse vectors ``right`` of shape ``(m, k')`` (see
    :func:`rank_one_vectors`), with X given by its pairing matrix P (see
    :func:`pairing_realignment`).

    Each left vector gathers its whole contiguous rows
    ``Y_v[l, j] = sum_{i,k} conj(v_i) v_k P[(k,i), (l,j)]`` of P, and each
    right vector reads the entries of ``Y_v`` on its own support: 16
    entries of P per pair of two-point vectors.
    """
    (sv, cv), (sw, cw) = left, right
    pm = mat(pairing)
    dim = _pair_side(pm, "pairing")
    p4 = pm.reshape(dim, dim, dim, dim)
    y = np.zeros((len(sv), dim, dim), dtype=complex)
    for a in range(sv.shape[1]):
        for b in range(sv.shape[1]):
            y += (cv[:, a].conj() * cv[:, b])[:, None, None] * p4[sv[:, b], sv[:, a]]
    y = y.reshape(len(sv), dim * dim)
    # The generator sum beats accumulating into a preallocated table here.
    return sum(
        cw[:, a].conj() * cw[:, b] * y[:, sw[:, b] * dim + sw[:, a]]
        for a in range(sw.shape[1])
        for b in range(sw.shape[1])
    )


# Side of the square blocks in which the Hermitian part is split off and
# factored.  Each block pair makes a few complex temporaries of
# 16 _SPLIT_BLOCK^2 bytes, 1 MB at 256 (4 MB at 512), and the smaller
# blocks were also faster on two cores with one BLAS thread: 0.30-0.32 s
# instead of 0.38-0.41 s for a full-rank positive definite trace norm at
# n = 2048.
_SPLIT_BLOCK = 256


def _block_pairs(n: int):
    """Index ranges ``(r, c)`` of the blocks on and above the diagonal."""
    starts = range(0, n, _SPLIT_BLOCK)
    return [
        (slice(r, r + _SPLIT_BLOCK), slice(c, c + _SPLIT_BLOCK))
        for r in starts
        for c in starts
        if c >= r
    ]


def _hermitian_part(a: np.ndarray, overwrite_a: bool):
    """``H = (a + a^dag)/2``, exactly Hermitian, when the skew part ``S =
    a - H`` cannot move a unitarily invariant norm of a by more than
    ``HERMITIAN_ROUTE_REL`` relative; ``None`` otherwise.

    Singular-value perturbation gives ``| ||a||_1 - ||H||_1 | <= ||S||_1 <=
    sqrt(n) ||S||_F`` and ``| ||a||_2 - ||H||_2 | <= ||S||_F``.  The route is
    taken when ``sqrt(n) ||S||_F <= HERMITIAN_ROUTE_REL ||H||_F``; as
    ``||H||_1 >= ||H||_F`` and ``||H||_2 >= ||H||_F / sqrt(n)``, both bounds
    are then at most ``HERMITIAN_ROUTE_REL`` times the norm of H that is
    returned.  ``||S||_F`` is accumulated over block pairs, ``||H||_F^2 =
    ||a||_F^2 - ||S||_F^2``, and H overwrites a only with ``overwrite_a``
    and only once the route is taken.
    """
    n = len(a)
    # H and the skew part are orthogonal in the Frobenius inner product.
    skew2 = _skew_norm2(a) / 4
    herm2 = max(float(np.linalg.norm(a)) ** 2 - skew2, 0.0)
    if np.sqrt(n * skew2) > HERMITIAN_ROUTE_REL * np.sqrt(herm2):
        return None
    return hermitize_in_place(a if overwrite_a else a.copy())


def _skew_norm2(a: np.ndarray) -> float:
    """``||a - a^dag||_F^2`` of the square a, accumulated one block pair of
    :func:`_block_pairs` at a time in one contiguous block temporary."""
    skew2 = 0.0
    for r, c in _block_pairs(len(a)):
        diff = np.conjugate(a[c, r].T, order="C")  # contiguous, so vdot copies nothing
        diff -= a[r, c]
        skew2 += (1.0 if r == c else 2.0) * float(np.vdot(diff, diff).real)
    return skew2


def hermitize_in_place(h: np.ndarray) -> np.ndarray:
    """Overwrite the square h with its Hermitian part ``(h + h^dag)/2``,
    one block pair of :func:`_block_pairs` at a time, and return it.  Each
    entry is the one ``(h + h.conj().T) / 2`` gives, bit for bit."""
    for r, c in _block_pairs(len(h)):
        part = (h[r, c] + h[c, r].conj().T) / 2
        h[r, c] = part
        h[c, r] = part.conj().T
    return h


def _cholesky_certifies(h: np.ndarray) -> bool:
    """Whether a blocked Cholesky factorization of H succeeds, so that H is
    positive definite up to its backward error.  H must be exactly
    Hermitian, as :func:`_hermitian_part` makes it: a failure restores the
    lower triangle from the untouched upper one and the diagonal blocks
    from copies, which leaves H bitwise unchanged.

    Left-looking, in ``_SPLIT_BLOCK`` column blocks: the off-diagonal
    blocks of L overwrite the lower triangle in place, so no second n^2
    array is held.  The diagonal factors are not stored, as no later block
    reads them.
    """
    n = len(h)
    saved = []
    for k in range(0, n, _SPLIT_BLOCK):
        cols, below = slice(k, k + _SPLIT_BLOCK), slice(k + _SPLIT_BLOCK, n)
        saved.append(h[cols, cols].copy())
        if k:
            h[k:, cols] -= h[k:, :k] @ h[cols, :k].conj().T
        try:
            lkk = np.linalg.cholesky(h[cols, cols])
        except np.linalg.LinAlgError:
            for j, block in enumerate(saved):
                done = slice(j * _SPLIT_BLOCK, (j + 1) * _SPLIT_BLOCK)
                h[done, done] = block
                h[done.stop :, done] = h[done, done.stop :].conj().T
            return False
        h[below, cols] = np.linalg.solve(lkk, h[below, cols].conj().T).conj().T
    return True


def _pivoted_trace(h: np.ndarray, tr: float):
    """``||L||_F^2`` of a diagonally pivoted partial Cholesky factor
    ``H ~ L L^dag`` of the Hermitian H, when it certifies ``||H||_1``;
    ``None`` otherwise.  H is only read.

    Pivoting stops once the largest remaining diagonal of the Schur
    complement ``S = H - L L^dag`` is at most ``HERMITIAN_ROUTE_REL tr H /
    n``.  As ``||L L^dag||_1 = ||L||_F^2`` and ``| ||H||_1 - ||L L^dag||_1 |
    <= ||S||_1 <= sqrt(n) ||S||_F``, the result is accepted when
    ``sqrt(n) ||S||_F <= HERMITIAN_ROUTE_REL ||L||_F^2``.  A remaining
    diagonal below ``-HERMITIAN_ROUTE_REL tr H / n``, a sign that H is not
    PSD, or more than ``max(n/8, min(n, 8))`` pivots end the attempt early.
    """
    n = len(h)
    floor = HERMITIAN_ROUTE_REL * tr / n
    # At n/8 pivots the factor holds an eighth of H's memory, and the
    # O(n k^2) loop plus the O(n^2 k) residual cost a few percent of
    # eigvalsh's O(n^3); below n = 64 the floor of 8 pivots costs < 0.3 ms.
    cap = max(n // 8, min(n, 8))
    diag = h.diagonal().real.copy()
    rows = np.zeros((cap, n), dtype=complex)  # row j is column j of L
    k = 0
    while diag.max() > floor:
        if k == cap or diag.min() < -floor:
            return None
        p = int(np.argmax(diag))
        col = h[p].conj() - rows[:k].T @ rows[:k, p].conj()  # column p of S
        rows[k] = col / np.sqrt(diag[p])
        diag -= rows[k].real ** 2 + rows[k].imag ** 2
        k += 1
    lf = rows[:k]
    resid2 = 0.0
    for r, c in _block_pairs(n):
        blk = h[r, c] - lf[:, r].T @ lf[:, c].conj()
        resid2 += (1.0 if r == c else 2.0) * float(np.linalg.norm(blk)) ** 2
    fro2 = float(np.vdot(lf, lf).real)
    if np.sqrt(n * resid2) > HERMITIAN_ROUTE_REL * fro2:
        return None
    return fro2


def trace_norm(a, overwrite_a: bool = False) -> float:
    """Schatten-1 norm: the sum of singular values.

    When the skew part of a is negligible (see :data:`HERMITIAN_ROUTE_REL`)
    it is taken from the Hermitian part H: as ``tr H`` once a blocked
    Cholesky certifies H positive definite, as ``||L||_F^2`` once a
    pivoted partial Cholesky ``H ~ L L^dag`` certifies it positive
    semidefinite of low rank, else as ``sum |eig(H)|``.  Otherwise it comes
    from an SVD.  ``overwrite_a`` lets these routes reuse a's memory for H
    and its factor; a's contents are then unspecified.
    """
    am = as_matrix(a, "matrix")
    h = _hermitian_part(am, overwrite_a)
    if h is None:
        return float(np.sum(np.linalg.svd(am, compute_uv=False)))
    tr = float(np.trace(h).real)  # read before a factor overwrites it
    if tr >= 0:
        if _cholesky_certifies(h):
            return tr
        norm = _pivoted_trace(h, tr)
        if norm is not None:
            return norm
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def operator_norm(a, overwrite_a: bool = False) -> float:
    """Spectral norm: the largest singular value, by the same guarded
    Hermitian route as :func:`trace_norm` (always through eigvalsh)."""
    am = as_matrix(a, "matrix")
    h = _hermitian_part(am, overwrite_a)
    if h is None:
        return float(np.linalg.norm(am, 2))
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


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


def ginibre(rows: int, cols: int, rng, count: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix, or a ``(count, rows, cols)`` stack of them
    from one call (real parts first, then imaginary parts): the draw behind
    the Haar frames of :func:`haar_from_ginibre`, and the layout of each
    random projection's factor."""
    lead = () if count is None else (count,)
    z = rng.standard_normal((2,) + lead + (rows, cols))  # the same stream as two draws
    return z[0] + 1j * z[1]


def haar_from_ginibre(g) -> np.ndarray:
    """Phase-fixed QR of a complex Ginibre matrix, or of an ``(n, d, d)``
    stack of them in one batched call: Haar-distributed unitaries."""
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph = ph / np.abs(ph)
    return q * ph[..., None, :]


# Samples per block of every sampled check.  A block draws the discrete
# choices (ranks, term counts) of all its slots in one generator call and
# the Gaussians of the samples it keeps in one more, then is evaluated as
# one stack; temporaries stay at a few stacks of this many matrices.
SAMPLE_BLOCK = 256

# Sampled tensor sums have one to this many elementary terms.
MAX_TERMS = 4


def sample_blocks(count: int) -> list:
    """Sizes of the consecutive sample blocks covering ``count`` samples,
    and the one sample-count rule: fewer than one raises ``ValueError``."""
    if count < 1:
        raise ValueError("samples must be >= 1")
    return [min(SAMPLE_BLOCK, count - start) for start in range(0, count, SAMPLE_BLOCK)]


def block_draws(rng, count: int, low: int, high: int, unit=(), units=lambda k: k):
    """Yield ``(choices, normals)`` per block of :data:`SAMPLE_BLOCK` of
    ``count`` samples, the draw layout of every sampled check.

    A block draws the integer choices in ``[low, high)`` of all its slots
    in one call and keeps those of its samples, then one ``standard_normal``
    array that holds ``units(choices)[s]`` arrays of shape ``unit`` for
    each kept sample s, in sample order.  So the first n samples do not
    depend on ``count``.
    """
    for n in sample_blocks(count):
        choices = rng.integers(low, high, size=SAMPLE_BLOCK)[:n]
        yield choices, rng.standard_normal((int(np.sum(units(choices))),) + tuple(unit))


def _factor_sizes(dim: int, ranks) -> np.ndarray:
    """Gaussians in the Ginibre factor of a random projection of each rank
    (none for rank 0 and ``dim``)."""
    return np.where((ranks > 0) & (ranks < dim), 2 * dim * ranks, 0)


def _projections(dim: int, ranks, normals) -> np.ndarray:
    """``(n, dim, dim)`` stack of the projections onto the column spans of
    complex Ginibre factors of shape ``(dim, ranks[s])``, which ``normals``
    holds sample after sample, each laid out as :func:`ginibre` draws it.
    One batched QR per rank orthonormalises them; the matrices are not
    validated (see :func:`check_projection_stack`)."""
    sizes = _factor_sizes(dim, ranks)
    offsets = np.cumsum(sizes) - sizes
    out = np.zeros((len(ranks), dim, dim), dtype=complex)
    out[ranks == dim] = np.eye(dim)
    # sorted(set(...)), not np.unique, which imports numpy.ma on first use.
    for rank in sorted(set(ranks[sizes > 0].tolist())):
        idx = np.flatnonzero(ranks == rank)
        z = normals[offsets[idx, None] + np.arange(2 * dim * rank)].reshape(len(idx), 2, dim, rank)
        q, _ = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
        out[idx] = q @ q.conj().transpose(0, 2, 1)
    return out


def projection_blocks(dim: int, count: int, rng, min_rank: int = 0):
    """Yield ``count`` validated random projections as ``(n, dim, dim)``
    blocks of at most :data:`SAMPLE_BLOCK`: the rank is uniform on
    ``[min_rank, dim]`` and the range is the span of ``rank`` complex
    Gaussian columns (Haar-distributed given the rank).

    The ranks and factors are drawn by :func:`block_draws`, so the first n
    projections do not depend on ``count``.  The QRs run batched per rank
    and every block is validated with :func:`check_projection_stack`.  A
    caller that reduces each block to a number (through ``map``, which
    drops a block before it asks for the next) holds one block at a time;
    pairs drawn alternately stay inside a block, as SAMPLE_BLOCK is even.
    It is the one projection sampler: a whole stack is the concatenation
    of its blocks, and up to SAMPLE_BLOCK projections are its first."""
    draws = block_draws(rng, count, min_rank, dim + 1, units=lambda r: _factor_sizes(dim, r))
    for ranks, normals in draws:
        stack = _projections(dim, ranks, normals)
        del normals  # freed before the validation temporaries are allocated
        yield check_projection_stack(stack, ranks)
        del stack  # not held while the next block is drawn


def random_projection(dim: int, rank: int, seed) -> Projection:
    """Seeded Haar-like random projection of the given rank.

    Built by orthonormalizing Gaussian columns; deterministic per seed.
    """
    if not (0 <= rank <= dim):
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    ranks = np.array([rank], dtype=int)
    normals = _as_rng(seed).standard_normal(int(_factor_sizes(dim, ranks).sum()))
    return Projection(_projections(dim, ranks, normals)[0], rank)
