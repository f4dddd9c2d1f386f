"""Decoherence functionals: evaluation backends and the axiom checks.

A decoherence functional is a complex-valued map ``d(p, q)`` on ordered
pairs of projections satisfying four axioms:

* Hermiticity:      ``d(p, q) = conj(d(q, p))``
* Positivity:       ``d(p, p) >= 0``
* Normalization:    ``d(1, 1) = 1``
* Orthoadditivity:  ``d(p1 + p2, q) = d(p1, q) + d(p2, q)`` for ``p1 _|_ p2``

Each backend here also carries a canonical *bilinear* extension ``D(x, y)``
defined on all matrices, which restricts to ``d`` on projections.  For
dimension >= 3 (the dimension-two case is excluded by the representation
theory) the extension of a bounded functional is unique.  The library
constructs D from d one way: :mod:`dfrep.ils` folds the values of d on the
d^2 polarization atoms into D's values on matrix units.  The constructive
spectral extension, which assembles D from d on spectral projections, is
the test oracle in ``tests/reference.py`` that every backend's ``bilinear``
is checked against.

The associated objects used by the representation modules:

* sesquilinear form ``Q(x, y) = D(x, y^dag)``;
* linear functional ``beta`` on the algebraic tensor product,
  ``beta(x (x) y) = D(x, y)``, extended additively to finite sums.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    _pair_side,
    as_matrix,
    check_projection_stack,
    ginibre,
    haar_from_ginibre,
    hermiticity_residual,
    mat,
    operator_from_pairing,
    operator_norm,
    pairing_realignment,
    pairing_values,
    projection_blocks,
    rank_one_matrices,
    rank_one_product_diagonal,
    rank_one_rows,
    rank_one_vectors,
    sample_blocks,
    swap_right,
    trace_norm,
    unit_vector,
)
from .tolerances import DEFAULT_TOLERANCES, GRAM_HERMITICITY_REL


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


def _zero_padded(a: np.ndarray, shape) -> np.ndarray:
    """``a`` zero-padded at the end of every axis to ``shape``."""
    out = np.zeros(shape, dtype=complex)
    out[tuple(map(slice, a.shape))] = a
    return out


def _rows(stack) -> np.ndarray:
    """An ``(n, d, d)`` stack flattened row-major to ``(n, d*d)``."""
    a = np.asarray(stack, dtype=complex)
    return a.reshape(len(a), -1)


class DecoherenceFunctional:
    """Common interface of the three evaluation backends: operator-backed,
    form-backed and the factored state (built by the pure-state and
    class-operator constructors).

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
        matmul on flattened operands.
        """
        return np.array(
            [[self.bilinear(a, b) for b in right] for a in left], dtype=complex
        )

    def rank_one_table_against(self, right):
        """The function ``left -> [D(|v_s><v_s|, |w_t><w_t|)]`` for one set
        of rank-one right operands ``w_t``, which the extraction holds fixed
        while it calls the function once per block of left atoms.  Operands
        are in the sparse ``(support, coeff)`` form of
        :func:`dfrep.linalg.rank_one_vectors`.

        The default materialises the projections and calls
        :meth:`pair_table`; every backend overrides it with a closed form
        that reads only the entries on the supports and forms the table's
        right-hand factor once, which is what lets the representation
        extractors work on the d^2 atoms of :func:`dfrep.ils.polarization_atoms`
        without a dense atom stack.
        """
        r = rank_one_matrices(*right, self.dim)
        return lambda left: self.pair_table(rank_one_matrices(*left, self.dim), r)

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

    X is realigned once, here, into its pairing matrix
    ``P[(a,b), (c,e)] = D(E_ab, E_ce)`` (see
    :func:`dfrep.linalg.pairing_realignment`), and every evaluation is a
    product with P: ``D(x, y) = vec(x) P vec(y)^T``.  It is the one holder
    of a P (the extracted X, the bounded M, the pure state's P U); X and
    the norms of ``W X`` are read off P, the norms on first read.  The
    constructor does not check the representation conditions on X; a
    caller reads them from :func:`dfrep.ils.verify_ils_conditions`.
    """

    def __init__(self, x_op):
        self.pairing = as_matrix(pairing_realignment(x_op), "x_op")  # ValueError unless (d^2, d^2), finite
        self.dim = math.isqrt(len(self.pairing))

    @classmethod
    def from_pairing(cls, pairing):
        """The functional with pairing matrix ``pairing``, held as it is."""
        self = cls.__new__(cls)
        self.dim = _pair_side(pairing, "pairing")
        self.pairing = pairing
        return self

    def embedded(self, dim: int) -> OperatorBackedFunctional:
        """The functional at truncation ``dim >= self.dim``, of the same
        class: P zero-padded as a ``(d, d, d, d)`` array, which is X (or G)
        zero-padded, as the realignment only permutes entries."""
        p4 = _zero_padded(self.pairing.reshape((self.dim,) * 4), (dim,) * 4)
        return self.from_pairing(p4.reshape(dim * dim, dim * dim))

    @property
    def x_op(self) -> np.ndarray:
        """X itself, rebuilt from P on each read."""
        return operator_from_pairing(self.pairing)

    @cached_property
    def trace_norm(self) -> float:
        """``||X||_1 = ||W X||_1`` (W is unitary).  W X is Hermitian exactly
        when the swap residual vanishes, so its guarded Hermitian route
        replaces the SVD of X whenever the residual is at round-off; when
        W X is also positive semidefinite, a Cholesky certificate gives
        ``tr(W X)`` without eigvalsh.  W X is a fresh array, never P."""
        return trace_norm(operator_from_pairing(self.pairing, swapped=True), overwrite_a=True)

    @cached_property
    def operator_norm(self) -> float:
        """``||X|| = ||W X||``, from a fresh W X (exactly Hermitian for M)."""
        return operator_norm(operator_from_pairing(self.pairing, swapped=True), overwrite_a=True)

    def bilinear(self, x, y) -> complex:
        return complex(pairing_values(mat(x)[None], mat(y)[None], self.pairing)[0])

    def pair_table(self, left, right) -> np.ndarray:
        return (_rows(left) @ self.pairing) @ _rows(right).T

    def rank_one_table_against(self, right):
        return lambda left: rank_one_product_diagonal(left, right, self.pairing)

    def pair_values(self, left, right) -> np.ndarray:
        left, right = self._value_stacks(left, right)
        return pairing_values(left, right, self.pairing)


class FactoredStateFunctional(DecoherenceFunctional):
    """d(p, q) = tr(p rho' q) for a positive operator ``rho' = F F^dag``
    held as its ``(d, r)`` factor F.

    This is the standard functional ``tr(C_h rho C_k^dag)`` of one-event
    histories.  Every evaluation contracts each operand with F once,

        ``tr(a F F^dag b) = sum_ik (a F)_ik (b^T conj F)_ik``,

    and a rank-one pair costs ``(v^dag F)(F^dag w)(w^dag v)``, so the work
    scales with the rank r: a pure state is the case r = 1.
    """

    def __init__(self, factor):
        self.factor = np.asarray(factor, dtype=complex)
        self.dim = len(self.factor)

    def embedded(self, dim: int) -> FactoredStateFunctional:
        """The factored state at truncation ``dim >= self.dim``: F
        zero-padded to ``(dim, r)``.  A class operator embeds as this plain
        factored state, with no model."""
        return FactoredStateFunctional(_zero_padded(self.factor, (dim, self.factor.shape[1])))

    def _sides(self, left, right):
        # Rows vec(a F) and vec(b^T conj F), whose dot product is tr(a F F^dag b).
        l = np.asarray(left, dtype=complex) @ self.factor
        r = np.asarray(right, dtype=complex).transpose(0, 2, 1) @ self.factor.conj()
        return l.reshape(len(l), -1), r.reshape(len(r), -1)

    def bilinear(self, x, y) -> complex:
        l, r = self._sides(mat(x)[None], mat(y)[None])
        return complex(np.sum(l * r))

    def pair_table(self, left, right) -> np.ndarray:
        l, r = self._sides(left, right)
        return l @ r.T

    def rank_one_table_against(self, right):
        # D(|v><v|, |w><w|) = (v^dag F)(F^dag w)(w^dag v); the columns w^dag
        # and F^dag w of the right-hand atoms are formed once.
        w = rank_one_vectors(*right, self.dim)
        w_dag = np.ascontiguousarray(w.T).conj()
        f_dag_w = (w @ self.factor.conj()).T
        del w

        def table(left):
            sv, cv = left
            out = rank_one_rows(sv, cv, w_dag)
            out *= rank_one_rows(sv, cv.conj(), self.factor) @ f_dag_w
            return out

        return table

    def pair_values(self, left, right) -> np.ndarray:
        left, right = self._value_stacks(left, right)
        l, r = self._sides(left, right)
        return np.sum(l * r, axis=-1)


class PureStateFunctional(FactoredStateFunctional):
    """d(p, q) = <p psi, q psi> for a unit vector psi: the factored state
    with ``F = psi``.

    Restriction to projections of the form ``B(x, y) = <x psi, y^dag psi>``,
    which is bounded and countably additive but, in the infinite-dimensional
    limit, not representable by a trace-class operator.  Its finite
    truncations are the standard divergence fixture for the tensor-bound
    sweep.
    """

    def __init__(self, psi):
        self.psi = unit_vector(psi, "psi")
        super().__init__(self.psi[:, None])

    def embedded(self, dim: int) -> PureStateFunctional:
        """The pure state at truncation ``dim >= self.dim``: psi zero-padded."""
        return PureStateFunctional(_zero_padded(self.psi, (dim,)))

    # Its own entry in the class dictionary, where per-backend wrappers find it.
    pair_table = FactoredStateFunctional.pair_table


class FormBackedFunctional(OperatorBackedFunctional):
    """Functional given by the Gram matrix of its Hermitian form Q.

    The Gram matrix is taken over the matrix-unit basis ``E_ij``
    (orthonormal under ``<a, b> = tr(b^dag a)``), flattened row-major, so
    ``G[(i,j), (k,l)] = Q(E_ij, E_kl)`` and

        ``Q(x, y) = vec(x)^T G conj(vec(y))``,   ``vec(x)[i*d+j] = x_ij``.

    The bilinear extension is ``D(x, y) = Q(x, y^dag)``, so the pairing
    matrix is G with its column pair transposed,
    ``P[(i,j), (k,l)] = G[(i,j), (l,k)]`` (:func:`dfrep.linalg.swap_right`),
    and every evaluation is inherited from the operator backend.
    """

    def __init__(self, gram):
        g = as_matrix(gram, "gram")
        self.pairing = swap_right(g)  # ValueError unless G is (d^2, d^2)
        if hermiticity_residual(g) > GRAM_HERMITICITY_REL:
            raise ValueError("gram matrix must be Hermitian")
        self.dim = math.isqrt(len(g))

    # Its own entry in the class dictionary, where per-backend wrappers find it.
    pair_table = OperatorBackedFunctional.pair_table


class AxiomReport(NamedTuple):
    """Sampled residuals and a verdict per axiom: the ``check-axioms`` record."""

    hermiticity_residual: float
    positivity_min: float
    positivity_imag_max: float
    normalization_residual: float
    orthoadditivity_residual: float
    samples: int
    tolerance: float
    hermiticity_ok: bool
    positivity_ok: bool
    normalization_ok: bool
    orthoadditivity_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_ok
            and self.positivity_ok
            and self.normalization_ok
            and self.orthoadditivity_ok
        )


def _hermiticity_residual(d, pool, samples: int, rng) -> float:
    """``max |d(p, q) - conj d(q, p)|`` over ``samples`` pool pairs."""
    pick = rng.integers(len(pool), size=(samples, 2))
    p, q = pool[pick[:, 0]], pool[pick[:, 1]]
    return float(np.max(np.abs(d.pair_values(p, q) - np.conj(d.pair_values(q, p)))))


def _orthogonal_splits(dim: int, samples: int, pool_size: int, rng):
    """Orthogonal pairs ``p1 _|_ p2`` spanned by the first ``r1`` and the
    next ``r2`` columns of Haar unitaries, with a pool index per pair: one
    Ginibre stack, then r1, r2 and the pool indices as arrays."""
    u = haar_from_ginibre(ginibre(dim, dim, rng, samples))
    r1 = rng.integers(1, dim, size=samples)
    r2 = rng.integers(1, dim - r1 + 1)
    qi = rng.integers(pool_size, size=samples)
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
    d: DecoherenceFunctional,
    samples: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOLERANCES["axioms"],
) -> AxiomReport:
    """Sampled verification of the four axioms.

    Positivity is checked over random projections of every rank plus all
    basis rank-one projections (it quantifies over a continuum, so this is
    evidence, not proof).  Orthoadditivity draws random orthogonal pairs
    from Haar frames.  Deterministic per seed.
    """
    dim = d.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    # Each family (pool projections, Hermiticity pairs, orthogonal splits)
    # is drawn and evaluated per block of SAMPLE_BLOCK samples, with a few
    # vectorised generator calls per block; see projection_blocks.
    eye = np.eye(dim, dtype=complex)
    pool = np.concatenate(
        [eye[None], eye[:, :, None] * eye[:, None, :], *projection_blocks(dim, samples, rng)]
    )
    herm = max(_hermiticity_residual(d, pool, n, rng) for n in sample_blocks(samples))
    v = d.pair_values(pool, pool)
    pos_min = float(np.min(v.real))
    pos_imag = float(np.max(np.abs(v.imag)))
    norm_res = float(abs(d.evaluate(eye, eye) - 1.0))
    ortho = 0.0
    if dim >= 2:
        ortho = max(_orthoadditivity_residual(d, pool, n, rng) for n in sample_blocks(samples))

    return AxiomReport(
        hermiticity_residual=herm,
        positivity_min=pos_min,
        positivity_imag_max=pos_imag,
        normalization_residual=norm_res,
        orthoadditivity_residual=ortho,
        samples=samples,
        tolerance=tol,
        hermiticity_ok=herm <= tol,
        # Diagonal values with tiny imaginary parts are treated as real;
        # larger imaginary parts count as violations in their own right.
        positivity_ok=pos_min >= -tol and pos_imag <= tol,
        normalization_ok=norm_res <= tol,
        orthoadditivity_ok=ortho <= tol,
    )
