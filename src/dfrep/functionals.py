"""Decoherence functionals: evaluation backends, axiom checks, and the
bounded bilinear extension.

A decoherence functional is a complex-valued map ``d(p, q)`` on ordered
pairs of projections satisfying four axioms:

* Hermiticity:      ``d(p, q) = conj(d(q, p))``
* Positivity:       ``d(p, p) >= 0``
* Normalization:    ``d(1, 1) = 1``
* Orthoadditivity:  ``d(p1 + p2, q) = d(p1, q) + d(p2, q)`` for ``p1 _|_ p2``

Each backend here also carries a canonical *bilinear* extension ``D(x, y)``
defined on all matrices, which restricts to ``d`` on projections.  For
dimension >= 3 (the dimension-two case is excluded by the representation
theory) the extension of a bounded functional is unique, so the canonical
extension and the constructive spectral extension in
:func:`extend_to_bilinear` agree; the test suite verifies this.

The associated objects used by the representation modules:

* sesquilinear form ``Q(x, y) = D(x, y^dag)``;
* linear functional ``beta`` on the algebraic tensor product,
  ``beta(x (x) y) = D(x, y)``, extended additively to finite sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ElementaryTensorSum,
    as_matrix,
    check_projection_stack,
    ginibre,
    haar_from_ginibre,
    haar_unitary,
    kron_trace,
    kron_trace_batch,
    kron_trace_table,
    mat,
    projector_tensor_sum,
    sample_projections,
    spectral_projections,
)


class DimensionExclusionError(ValueError):
    """Raised by extension/representation operations at dimension < 3.

    Evaluation and axiom checking still work in dimension two; only the
    operator-representation machinery requires dimension at least three
    (the theorems require dimension >= 3).
    """

    def __init__(self, dim: int, what: str = "operation"):
        super().__init__(
            f"{what} is undefined in dimension {dim}: "
            "the representation theorems require dimension >= 3"
        )
        self.dim = dim


def _check_dim(dim: int, what: str, allow_dim_two: bool = False):
    minimum = 1 if allow_dim_two else 3
    if dim < minimum:
        raise DimensionExclusionError(dim, what)


def _rows(stack) -> np.ndarray:
    """An ``(n, d, d)`` stack flattened row-major to ``(n, d*d)``."""
    a = np.asarray(stack, dtype=complex)
    return a.reshape(len(a), -1)


def _transposed_rows(stack) -> np.ndarray:
    """Rows ``vec(b^T)`` of an ``(n, d, d)`` stack, so that
    ``vec(a) . vec(b^T) = tr(a b)``."""
    a = np.asarray(stack, dtype=complex)
    return a.transpose(0, 2, 1).reshape(len(a), -1)


class DecoherenceFunctional:
    """Common interface of the four evaluation backends.

    Subclasses implement :meth:`bilinear`, the canonical bilinear extension;
    :meth:`evaluate` is its restriction to projection pairs.
    """

    dim: int

    def evaluate(self, p, q) -> complex:
        """d(p, q) for projections p, q of matching dimension."""
        pm = mat(p)
        qm = mat(q)
        if pm.shape[0] != self.dim or qm.shape[0] != self.dim:
            raise ValueError(
                f"dimension mismatch: functional has dim {self.dim}, "
                f"got {pm.shape[0]} and {qm.shape[0]}"
            )
        return self.bilinear(pm, qm)

    def bilinear(self, x, y) -> complex:
        raise NotImplementedError

    def pair_table(self, left, right) -> np.ndarray:
        """Matrix of values ``D(left[s], right[t])``, shape
        ``(len(left), len(right))``.

        Fallback loops over :meth:`bilinear`, and is the reference the
        backends are tested against.  Every backend overrides it with a
        matmul on flattened operands, since the representation extractors
        evaluate O(dim^4) pairs; they call it on fixed-size blocks of left
        operands against all right operands.
        """
        return np.array(
            [[self.bilinear(a, b) for b in right] for a in left], dtype=complex
        )

    def pair_values(self, left, right) -> np.ndarray:
        """Values ``D(left[s], right[s])`` on two equal-length stacks: the
        diagonal of :meth:`pair_table` without the off-diagonal work.

        Fallback loops over :meth:`bilinear`; every backend overrides it
        with an elementwise product of flattened operands, so the sampled
        checks evaluate all their pairs in one call.
        """
        left, right = self._value_stacks(left, right)
        return np.array([self.bilinear(a, b) for a, b in zip(left, right)], dtype=complex)

    def _value_stacks(self, left, right):
        """Operands of :meth:`pair_values` as complex ``(n, dim, dim)``
        stacks of one length, or ``ValueError``."""
        l = np.asarray(left, dtype=complex)
        r = np.asarray(right, dtype=complex)
        square = (self.dim, self.dim)
        if l.shape[1:] != square or r.shape[1:] != square:
            raise ValueError(
                f"dimension mismatch: functional has dim {self.dim}, "
                f"got stacks of shape {l.shape} and {r.shape}"
            )
        if len(l) != len(r):
            raise ValueError(f"pair_values needs equal-length stacks, got {len(l)} and {len(r)}")
        return l, r


class OperatorBackedFunctional(DecoherenceFunctional):
    """d(p, q) = tr((p (x) q) X) for a fixed operator X on H (x) H.

    The constructor does not check the representation conditions on X; use
    :func:`dfrep.ils.df_from_operator` for the validated route.
    """

    def __init__(self, x_op):
        x = as_matrix(x_op, "x_op")
        dim = int(round(np.sqrt(x.shape[0])))
        if dim * dim != x.shape[0]:
            raise ValueError(f"operator side {x.shape[0]} is not a perfect square")
        self.x_op = x
        self.dim = dim

    def bilinear(self, x, y) -> complex:
        return kron_trace(x, y, self.x_op)

    def pair_table(self, left, right) -> np.ndarray:
        return kron_trace_table(left, right, self.x_op)

    def pair_values(self, left, right) -> np.ndarray:
        left, right = self._value_stacks(left, right)
        return kron_trace_batch(left, right, self.x_op)


class PureStateFunctional(DecoherenceFunctional):
    """d(p, q) = <p psi, q psi> for a unit vector psi.

    Restriction to projections of the form ``B(x, y) = <x psi, y^dag psi>``,
    which is bounded and countably additive but, in the infinite-dimensional
    limit, not representable by a trace-class operator.  Its finite
    truncations are the standard divergence fixture for the tensor-bound
    sweep.
    """

    def __init__(self, psi, tol: float = 1e-8):
        v = np.asarray(psi, dtype=complex).reshape(-1)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > tol:
            raise ValueError(f"psi must be a unit vector, got norm {nrm:.6g}")
        self.psi = v
        self.dim = v.size

    def bilinear(self, x, y) -> complex:
        xv = mat(x) @ self.psi
        yv = mat(y).conj().T @ self.psi
        return complex(np.vdot(yv, xv))

    def _sides(self, left, right):
        # D(a, b) = (b^dag psi)^dag (a psi), and conj(b^dag psi) = b^T conj(psi).
        l = np.asarray(left, dtype=complex) @ self.psi
        r_conj = np.asarray(right, dtype=complex).transpose(0, 2, 1) @ self.psi.conj()
        return l, r_conj

    def pair_table(self, left, right) -> np.ndarray:
        l, r_conj = self._sides(left, right)
        return l @ r_conj.T

    def pair_values(self, left, right) -> np.ndarray:
        left, right = self._value_stacks(left, right)
        l, r_conj = self._sides(left, right)
        return np.sum(l * r_conj, axis=-1)


class FormBackedFunctional(DecoherenceFunctional):
    """Functional given by the Gram matrix of its Hermitian form Q.

    The Gram matrix is taken over the matrix-unit basis ``E_ij``
    (orthonormal under ``<a, b> = tr(b^dag a)``), flattened row-major, so
    ``G[(i,j), (k,l)] = Q(E_ij, E_kl)`` and

        ``Q(x, y) = vec(x)^T G conj(vec(y))``,   ``vec(x)[i*d+j] = x_ij``.

    Evaluation uses ``d(p, q) = Q(p, q)`` (projections are self-adjoint);
    the bilinear extension is ``D(x, y) = Q(x, y^dag)``.
    """

    def __init__(self, gram, tol: float = 1e-8):
        g = as_matrix(gram, "gram")
        dim = int(round(np.sqrt(g.shape[0])))
        if dim * dim != g.shape[0]:
            raise ValueError(f"gram side {g.shape[0]} is not a perfect square")
        scale = max(1.0, float(np.linalg.norm(g)))
        if np.linalg.norm(g - g.conj().T) > tol * scale:
            raise ValueError("gram matrix must be Hermitian")
        self.gram = g
        self.dim = dim

    def bilinear(self, x, y) -> complex:
        xf = mat(x).reshape(-1)
        yf = mat(y).T.reshape(-1)  # conj(vec(y^dag)) = vec(y^T)
        return complex(xf @ self.gram @ yf)

    def pair_table(self, left, right) -> np.ndarray:
        return _rows(left) @ self.gram @ _transposed_rows(right).T

    def pair_values(self, left, right) -> np.ndarray:
        left, right = self._value_stacks(left, right)
        return np.sum((_rows(left) @ self.gram) * _transposed_rows(right), axis=-1)


@dataclass(frozen=True)
class AxiomReport:
    """Sampled residuals for the four decoherence-functional axioms."""

    hermiticity_residual: float
    positivity_min: float
    positivity_imag_max: float
    normalization_residual: float
    orthoadditivity_residual: float
    samples: int
    seed: int
    tol: float

    @property
    def hermiticity_ok(self) -> bool:
        return self.hermiticity_residual <= self.tol

    @property
    def positivity_ok(self) -> bool:
        # Diagonal values with tiny imaginary parts are treated as real;
        # larger imaginary parts count as violations in their own right.
        return self.positivity_min >= -self.tol and self.positivity_imag_max <= self.tol

    @property
    def normalization_ok(self) -> bool:
        return self.normalization_residual <= self.tol

    @property
    def orthoadditivity_ok(self) -> bool:
        return self.orthoadditivity_residual <= self.tol

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_ok
            and self.positivity_ok
            and self.normalization_ok
            and self.orthoadditivity_ok
        )

    def verdicts(self) -> dict:
        return {
            "hermiticity": self.hermiticity_ok,
            "positivity": self.positivity_ok,
            "normalization": self.normalization_ok,
            "orthoadditivity": self.orthoadditivity_ok,
        }


# Sampled pairs per batched evaluation in :func:`check_axioms`, which keeps
# its temporaries to a few stacks of this many matrices.
SAMPLE_BLOCK = 256


def _blocks(samples: int):
    """Sizes of the consecutive sample blocks covering ``samples``."""
    return [min(SAMPLE_BLOCK, samples - start) for start in range(0, samples, SAMPLE_BLOCK)]


def _hermiticity_residual(d, pool, samples: int, rng) -> float:
    """``max |d(p, q) - conj d(q, p)|`` over ``samples`` pool pairs."""
    pick = np.array([[rng.integers(len(pool)), rng.integers(len(pool))] for _ in range(samples)])
    p, q = pool[pick[:, 0]], pool[pick[:, 1]]
    return float(np.max(np.abs(d.pair_values(p, q) - np.conj(d.pair_values(q, p)))))


def _orthogonal_splits(dim: int, samples: int, pool_size: int, rng):
    """Orthogonal pairs ``p1 _|_ p2`` spanned by the first ``r1`` and the
    next ``r2`` columns of Haar unitaries, with a pool index per pair;
    drawn in the order of a per-sample loop, then built as stacks."""
    g = np.empty((samples, dim, dim), dtype=complex)
    cuts = np.empty((samples, 3), dtype=int)
    for s in range(samples):
        g[s] = ginibre(dim, dim, rng)
        r1 = int(rng.integers(1, dim))
        cuts[s] = r1, rng.integers(1, dim - r1 + 1), rng.integers(pool_size)
    u = haar_from_ginibre(g)
    r1, r2, qi = cuts.T
    cols = np.arange(dim)
    u_dag = u.conj().transpose(0, 2, 1)
    p1 = (u * (cols < r1[:, None])[:, None, :]) @ u_dag
    p2 = (u * ((cols >= r1[:, None]) & (cols < (r1 + r2)[:, None]))[:, None, :]) @ u_dag
    return p1, p2, r1, r2, qi


def _orthoadditivity_residual(d, pool, samples: int, rng) -> float:
    """``max |d(p1 + p2, q) - d(p1, q) - d(p2, q)|`` over ``samples``
    orthogonal pairs and pool projections q."""
    p1, p2, r1, r2, qi = _orthogonal_splits(d.dim, samples, len(pool), rng)
    p12 = p1 + p2
    for m, r in ((p1, r1), (p2, r2), (p12, r1 + r2)):
        check_projection_stack(m, r)
    q = pool[qi]
    return float(np.max(np.abs(d.pair_values(p12, q) - d.pair_values(p1, q) - d.pair_values(p2, q))))


def check_axioms(
    d: DecoherenceFunctional, samples: int = 200, seed: int = 0, tol: float = 1e-8
) -> AxiomReport:
    """Sampled verification of the four axioms.

    Positivity is checked over random projections of every rank plus all
    basis rank-one projections (it quantifies over a continuum, so this is
    evidence, not proof).  Orthoadditivity draws random orthogonal pairs
    from Haar frames.  Deterministic per seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dim = d.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    # The generator is consumed sample by sample in the order of the scalar
    # loops this replaces, so a seed still names the same projections; the
    # QRs, validations and evaluations run on whole stacks.
    eye = np.eye(dim, dtype=complex)
    pool = np.concatenate(
        [eye[None], eye[:, :, None] * eye[:, None, :], sample_projections(dim, samples, rng)]
    )
    herm = max(_hermiticity_residual(d, pool, n, rng) for n in _blocks(samples))
    v = d.pair_values(pool, pool)
    pos_min = np.min(v.real)
    pos_imag = np.max(np.abs(v.imag))
    norm_res = abs(d.evaluate(eye, eye) - 1.0)
    ortho = 0.0
    if dim >= 2:
        ortho = max(_orthoadditivity_residual(d, pool, n, rng) for n in _blocks(samples))

    return AxiomReport(
        hermiticity_residual=float(herm),
        positivity_min=float(pos_min),
        positivity_imag_max=float(pos_imag),
        normalization_residual=float(norm_res),
        orthoadditivity_residual=float(ortho),
        samples=samples,
        seed=seed,
        tol=tol,
    )


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
    :func:`bilinear_refined` for the randomized re-decomposition check).
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
