"""The trace-pairing (Isham-Linden-Schreckenberg) representation.

A bounded decoherence functional on a space of dimension >= 3 extends to a
bilinear form D, and at finite truncation D is realized by a unique
operator X on H (x) H through

    ``d(p, q) = tr((p (x) q) X)``.

X is returned as the operator-backed functional
(:class:`~dfrep.functionals.OperatorBackedFunctional`) that holds its
pairing matrix, the values of D on matrix units,

    ``P[(a,b), (c,e)] = D(E_ab, E_ce) = X[(b,e), (a,c)]``,

so ``d(p, q) = vec(p) P vec(q)^T`` (see :mod:`dfrep.linalg`, which alone
knows the index layout); every matrix unit is a fixed complex combination of rank-one
projections onto the d^2 polarization vectors

    ``e_a``,  ``u = (e_a + e_b)/sqrt(2)``  and  ``v = (e_a + i e_b)/sqrt(2)``  (a < b),

so the whole construction only ever evaluates d on projections.  The
combination coefficients follow from ``p_u + p_{u'} = E_aa + E_bb`` for
``u' = (e_a - e_b)/sqrt(2)``, and likewise for v:

    ``E_ab + E_ba = 2 p_u - E_aa - E_bb``,
    ``E_ab - E_ba = i (2 p_v - E_aa - E_bb)``;

the linear system is solved in closed form, never by least squares.

Every atom ``|v><v|`` has v supported on at most two basis vectors, so the
atoms are passed in the sparse form ``(support, coeff)`` of
:func:`polarization_atoms` and no ``(N, dim, dim)`` stack is built.  Each
backend evaluates d on such pairs in closed form
(:meth:`~dfrep.functionals.DecoherenceFunctional.rank_one_table_against`):
``<v (x) w|X|v (x) w>`` from 16 entries of P for the operator and form
backends (:func:`dfrep.linalg.rank_one_product_diagonal`, which also reads
the reconstructor's product diagonal), and ``(v^dag F)(F^dag w)(w^dag v)``
for the factored state ``rho' = F F^dag`` of a pure state or class
operator.  The base-class default materialises the projections, so X still
comes from d on projections alone.  Each block of the atom table is folded
into ``(E_ab, E_ba)`` on both sides by the same closed form
(:func:`polarization_unit_table`, which also serves the product-diagonal
reconstructor of :mod:`dfrep.tracial`).

The axioms of d translate into three operator conditions on X, all read
off P (for (i), ``P[a,b,c,e] = conj P[e,c,b,a]``):

    (i)   ``X = W X^dag W``  with W the swap unitary   (Hermiticity),
    (ii)  ``tr((p (x) p) X) >= 0`` for all projections (positivity),
    (iii) ``tr(X) = 1``                                (normalization).

Positivity quantifies over a continuum and is reported as a sampled
minimum with its sample count and seed; no global claim is made.  By (i),
``W X`` is Hermitian, so the trace norm ``||X||_1 = ||W X||_1`` is taken
from its Hermitian part H whenever the swap residual provably cannot move
it by more than ``HERMITIAN_ROUTE_REL`` relative (else from the SVD; see
:func:`dfrep.linalg.trace_norm`).  For the valid functionals W X is
usually positive semidefinite (``I (x) |psi><psi|`` for a pure state,
``I (x) rho'`` for a single-time class operator), and then
``||X||_1 = tr H``, certified by a blocked Cholesky (full rank) or a
pivoted partial Cholesky (low rank); only an indefinite H pays for
``eigvalsh``.  It is computed on first read only, from a fresh W X.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .functionals import (
    DecoherenceFunctional,
    OperatorBackedFunctional,
    _check_dim,
)
from .linalg import (
    pairing_trace,
    pairing_values,
    projection_blocks,
    swap_adjoint_residual,
)
from .tolerances import DEFAULT_TOLERANCES

_SQ2 = np.sqrt(2.0)


# Left atoms per rank-one pair-table call in :func:`polarization_unit_table`;
# past the basis atoms, every block boundary falls between two pairs.  A
# block's (ATOM_BLOCK, N) complex table is 16 ATOM_BLOCK N bytes, 4.2 MB at
# d = 64 (N = 4096), and the backend and the fold hold a few of them at
# once.  The right-hand factors of the table are formed once, not per block,
# so the smaller block costs no time.
ATOM_BLOCK = 64


def polarization_atoms(dim: int):
    """The rank-one polarization projections ``|v><v|`` in sparse form.

    Returns ``(support, coeff)``, two ``(N, 2)`` arrays with ``N = dim^2``
    and ``v_s = sum_k coeff[s, k] e_{support[s, k]}`` (see
    :func:`dfrep.linalg.rank_one_vectors`).  The first ``dim`` atoms are the
    basis projections ``e_a`` (support ``(a, a)``, coefficients ``(1, 0)``);
    then each pair ``a < b``, in row-major order, contributes
    ``u = (e_a + e_b)/sqrt(2)`` and ``v = (e_a + i e_b)/sqrt(2)``, whose
    projections expand ``E_ab`` and ``E_ba`` with ``E_aa`` and ``E_bb``
    (:func:`_pair_units`).  The atoms are a basis of all matrices.
    """
    ia, ib = np.triu_indices(dim, 1)
    support = np.empty((dim + 2 * len(ia), 2), dtype=np.intp)
    coeff = np.zeros(support.shape, dtype=complex)
    support[:dim] = np.arange(dim)[:, None]
    coeff[:dim, 0] = 1.0
    support[dim:] = np.repeat(np.stack([ia, ib], axis=1), 2, axis=0)
    coeff[dim:, 0] = 1.0 / _SQ2
    coeff[dim:, 1] = np.tile(np.array([1.0, 1.0j]) / _SQ2, len(ia))
    return support, coeff


def _pair_units(u, v, e_aa, e_bb):
    """``(E_ab, E_ba) = (s + i t, s - i t)`` from the values ``u`` on
    ``p_u``, ``v`` on ``p_v`` and ``e_aa``, ``e_bb`` on ``E_aa``, ``E_bb``,
    with ``s = u - m`` and ``t = v - m`` for ``m = (e_aa + e_bb)/2``, term
    by term, so on either side of a bilinear table.  ``e_aa`` and ``e_bb``
    must be fresh arrays: they are overwritten, which spares two
    block-sized temporaries."""
    m = np.add(e_aa, e_bb, out=e_aa)
    m *= 0.5
    s = np.subtract(u, m, out=e_bb)
    t = np.subtract(v, m, out=m)
    t *= 1j
    e_ab = s + t
    s -= t
    return e_ab, s


def bilinear_unit_table(d: DecoherenceFunctional) -> np.ndarray:
    """The pairing matrix ``P[(a,b), (c,e)] = D(E_ab, E_ce)`` of d at
    ``d.dim``, from the backend's closed-form
    :meth:`~dfrep.functionals.DecoherenceFunctional.rank_one_table_against`
    on the polarization atoms (see :func:`polarization_unit_table`)."""
    return polarization_unit_table(d.dim, d.rank_one_table_against)


def polarization_unit_table(dim: int, table_against) -> np.ndarray:
    """The pairing matrix ``P[(a,b), (c,e)] = D(E_ab, E_ce)`` of a bilinear
    D on ``dim x dim`` matrices, from its values on the polarization atoms.

    ``table_against(right)`` is called once, with all N atoms as the right
    set, and returns a function ``rows(left)`` whose value is
    ``D(|v_s><v_s|, |w_t><w_t|)`` as a ``(len(left), N)`` array, for the
    sparse atom sets ``(support, coeff)`` of :func:`polarization_atoms`.
    ``rows`` is called once per block of at most ``ATOM_BLOCK`` left atoms
    (the basis atoms and then whole pairs), so what depends on the right set
    alone is formed once.  Each block is folded into matrix units by
    :func:`_pair_units`, first its columns, from the basis columns of the
    block itself, then its rows, from the rows of ``E_aa`` that the basis
    atoms have already written into P.  The atoms span all matrices, so any
    bilinear D is recovered.  Peak memory is the ``dim^4`` complex output
    plus a few ``(ATOM_BLOCK, N)`` complex tables of ``16 ATOM_BLOCK N``
    bytes each (the backend's table and its fold); no ``(N, dim, dim)`` atom
    stack and no N x N table is built.
    """
    support, coeff = polarization_atoms(dim)
    n_atoms = len(support)
    ia, ib = np.triu_indices(dim, 1)
    aa, ab, ba = np.arange(dim) * (dim + 1), ia * dim + ib, ib * dim + ia
    units = np.empty((dim * dim, dim * dim), dtype=complex)
    first = dim + 2 * ((ATOM_BLOCK - dim) // 2)
    bounds = [0, *range(first, n_atoms, ATOM_BLOCK), n_atoms]
    rows_of = table_against((support, coeff))
    for start, stop in zip(bounds, bounds[1:]):
        table = rows_of((support[start:stop], coeff[start:stop]))
        cols = np.empty_like(table)
        cols[:, aa] = table[:, :dim]
        cols[:, ab], cols[:, ba] = _pair_units(
            table[:, dim::2], table[:, dim + 1 :: 2], table[:, ia], table[:, ib]
        )
        del table  # freed before the row fold
        head = max(0, min(stop, dim) - start)  # basis atoms in the block
        units[aa[start : start + head]] = cols[:head]
        pairs = slice((start + head - dim) // 2, (stop - dim) // 2)
        units[ab[pairs]], units[ba[pairs]] = _pair_units(
            cols[head::2], cols[head + 1 :: 2], units[aa[ia[pairs]]], units[aa[ib[pairs]]]
        )
        del cols  # freed before the next block's table is formed
    return units


class ConditionsReport(NamedTuple):
    """Residuals and a verdict per operator condition: the ``verify-conditions`` record."""

    swap_adjoint_residual: float
    positivity_min: float
    normalization_residual: float
    samples: int
    tolerance: float
    hermiticity_ok: bool
    positivity_ok: bool
    normalization_ok: bool

    @property
    def passed(self) -> bool:
        return self.hermiticity_ok and self.positivity_ok and self.normalization_ok


def _sample_positivity_min(pairing: np.ndarray, dim: int, samples: int, seed: int) -> float:
    """Min of Re tr((p (x) p) X) over basis rank-one plus seeded random
    projections across all ranks, one batched pairing with P per block of
    :func:`dfrep.linalg.projection_blocks`, so no ``(samples, dim, dim)``
    stack is held."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    eye = np.eye(dim, dtype=complex)
    basis = np.concatenate([eye[:, :, None] * eye[:, None, :], eye[None]])
    blocks = itertools.chain([basis], projection_blocks(dim, samples, rng, 1))
    return float(min(map(lambda p: np.min(pairing_values(p, p, pairing).real), blocks)))


def ils_operator_from_matrix(x_op) -> OperatorBackedFunctional:
    """Wrap a dense operator on H (x) H, realigned once into P."""
    return OperatorBackedFunctional(x_op)


def extract_ils(d: DecoherenceFunctional, *, allow_dim_two: bool = False) -> OperatorBackedFunctional:
    """Recover the trace-pairing operator X of a functional at its
    truncation dimension ``d.dim``, as the functional holding its pairing
    matrix.

    ``allow_dim_two`` bypasses the dimension-three exclusion for sweep
    diagnostics over backends that carry an intrinsic bilinear extension
    (all backends in this package do); the strict default reflects the
    hypotheses of the representation theorems.
    """
    _check_dim(d.dim, "trace-pairing extraction", allow_dim_two=allow_dim_two)
    return OperatorBackedFunctional.from_pairing(bilinear_unit_table(d))


def verify_ils_conditions(
    x: OperatorBackedFunctional,
    samples: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOLERANCES["conditions"],
) -> ConditionsReport:
    """Report the residuals of the three operator conditions, read off P:
    the swap residual, the positivity minimum over ``samples`` seeded
    projections (see :func:`_sample_positivity_min`) and ``|tr X - 1|``."""
    p = x.pairing
    swap = swap_adjoint_residual(p)
    pos_min = _sample_positivity_min(p, x.dim, samples, seed)
    norm_res = float(abs(pairing_trace(p) - 1.0))
    return ConditionsReport(
        swap_adjoint_residual=swap,
        positivity_min=pos_min,
        normalization_residual=norm_res,
        samples=samples,
        tolerance=tol,
        hermiticity_ok=swap <= tol,
        positivity_ok=pos_min >= -tol,
        normalization_ok=norm_res <= tol,
    )
