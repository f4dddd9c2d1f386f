from __future__ import annotations

import numpy as np
import pytest

from dfrep import (
    ClassOperatorFunctional,
    ClassOperatorModel,
    FormBackedFunctional,
    OperatorBackedFunctional,
    Projection,
    PureStateFunctional,
    gram_matrix,
)
from dfrep.linalg import SAMPLE_BLOCK
from reference import haar_unitary


def rho_half_half(dim: int) -> np.ndarray:
    """diag(1/2, 1/2, 0, ..., 0) as a density matrix."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    return rho


def basis_proj(dim: int, i: int) -> Projection:
    return Projection(np.diag((np.arange(dim) == i).astype(complex)), 1)


def random_density(dim: int, rng) -> np.ndarray:
    evs = rng.uniform(0.0, 1.0, dim)
    evs = evs / evs.sum()
    u = haar_unitary(dim, rng)
    return u @ np.diag(evs) @ u.conj().T


def product_state_operator(rho: np.ndarray) -> np.ndarray:
    """X = rho (x) rho, the simplest valid pairing operator."""
    return np.kron(rho, rho)


def single_time_operator(rho: np.ndarray) -> np.ndarray:
    """Pairing operator of the single-time functional d(p, q) = tr(p rho q):
    X[(b,d),(a,c)] = rho[b,c] delta[a,d]."""
    dim = rho.shape[0]
    x = np.zeros((dim * dim, dim * dim), dtype=complex)
    for b in range(dim):
        for c in range(dim):
            for a in range(dim):
                x[b * dim + a, a * dim + c] = rho[b, c]
    return x


def random_valid_pairing_operator(dim: int, rng) -> np.ndarray:
    """Random convex mixture of valid pairing operators (all three
    representation conditions hold by construction)."""
    w = float(rng.uniform(0.2, 0.8))
    x1 = product_state_operator(random_density(dim, rng))
    x2 = single_time_operator(random_density(dim, rng))
    return w * x1 + (1 - w) * x2


def trivial_model(dim: int = 3, rho=None) -> ClassOperatorModel:
    """Single-time model with zero Hamiltonian and the basis schedule."""
    if rho is None:
        rho = np.diag(np.arange(dim, 0, -1.0) / (dim * (dim + 1) / 2)).astype(complex)
    sched = tuple(basis_proj(dim, i) for i in range(dim))
    return ClassOperatorModel(
        dim=dim,
        rho=rho,
        hamiltonian=np.zeros((dim, dim), dtype=complex),
        times=(0.0,),
        schedules=(sched,),
    )


def backend_fixtures(dim: int):
    """One functional per backend, all valid, at the given dimension."""
    rho = rho_half_half(dim)
    operator = OperatorBackedFunctional(product_state_operator(rho))
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    pure = PureStateFunctional(psi)
    form = FormBackedFunctional(gram_matrix(operator))
    class_op = ClassOperatorFunctional(trivial_model(dim, rho=np.diag([0.5, 0.3] + [0.2 / (dim - 2)] * (dim - 2)).astype(complex)))
    return {
        "operator": operator,
        "pure_state": pure,
        "form": form,
        "class_operator": class_op,
    }


def _node(arr) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def pure_state_scenario_text(dim: int = 3, seed: int = 11, index: int = 0) -> str:
    import json

    psi = np.zeros(dim)
    psi[index] = 1.0
    return json.dumps(
        {
            "dimension": dim,
            "seed": seed,
            "functional": {"type": "pure_state", "amplitudes": _node(psi)},
        }
    )


def operator_scenario_text(x, seed: int = 5) -> str:
    import json

    x = np.asarray(x, dtype=complex)
    dim = int(round(np.sqrt(x.shape[0])))
    return json.dumps(
        {
            "dimension": dim,
            "seed": seed,
            "functional": {"type": "operator", "matrix": _node(x)},
        }
    )


def form_scenario_text(gram, seed: int = 7) -> str:
    import json

    gram = np.asarray(gram, dtype=complex)
    dim = int(round(np.sqrt(gram.shape[0])))
    return json.dumps(
        {
            "dimension": dim,
            "seed": seed,
            "functional": {"type": "form", "gram": _node(gram)},
        }
    )


def class_operator_scenario_text(
    dim: int = 3,
    seed: int = 9,
    hamiltonian=None,
    rho=None,
    trace_value: float | None = None,
    times=(0.0,),
) -> str:
    import json

    if rho is None:
        rho = np.diag(np.arange(dim, 0, -1.0) / (dim * (dim + 1) / 2))
    if trace_value is not None:
        rho = rho * (trace_value / np.trace(rho).real)
    if hamiltonian is None:
        hamiltonian = np.zeros((dim, dim))
    sched = [_node(np.diag((np.arange(dim) == i).astype(float))) for i in range(dim)]
    return json.dumps(
        {
            "dimension": dim,
            "seed": seed,
            "functional": {
                "type": "class_operator",
                "rho": _node(rho),
                "hamiltonian": _node(hamiltonian),
                "times": list(times),
                "schedules": [sched for _ in times],
            },
        }
    )


def skew_corrupted_operator(dim: int = 3, scale: float = 0.05) -> np.ndarray:
    """Valid operator plus a zero-trace skew-Hermitian term: violates only
    Hermiticity/swap-adjointness."""
    x0 = product_state_operator(rho_half_half(dim)).astype(complex)
    n = dim * dim
    u = np.zeros(n)
    v = np.zeros(n)
    u[1], v[2] = 1.0, 1.0
    return x0 + scale * (np.outer(u, v) - np.outer(v, u))


# ---------------------------------------------------------------------------
# Reference draws in the block layout of the sampled checks, sliced one
# sample at a time, for the per-sample references the batched kernels are
# checked against.


def block_layout_draws(rng, count, low, high, unit, units=lambda k: k):
    """Yield ``(k, normals)`` per sample: each block of ``SAMPLE_BLOCK``
    samples draws the integer choices ``k`` in ``[low, high)`` of all its
    slots in one call, then one ``standard_normal`` array that holds
    ``units(k)`` arrays of shape ``unit`` per kept sample, in sample order."""
    for start in range(0, count, SAMPLE_BLOCK):
        kept = min(SAMPLE_BLOCK, count - start)
        ks = [int(k) for k in rng.integers(low, high, size=SAMPLE_BLOCK)[:kept]]
        z = rng.standard_normal((sum(units(k) for k in ks),) + tuple(unit))
        offset = 0
        for k in ks:
            yield k, z[offset : offset + units(k)]
            offset += units(k)


def block_projections(dim, count, rng, min_rank=0) -> list:
    """``count`` projections drawn as ``projection_blocks`` draws them,
    each built on its own from the QR of its Gaussian columns."""
    out = []
    draws = block_layout_draws(
        rng, count, min_rank, dim + 1, (), lambda r: 2 * dim * r if r < dim else 0
    )
    for rank, z in draws:
        if rank == 0:
            out.append(Projection(np.zeros((dim, dim), dtype=complex), 0))
        elif rank == dim:
            out.append(Projection(np.eye(dim, dtype=complex), dim))
        else:
            g = z.reshape(2, dim, rank)  # real parts, then imaginary parts
            q, _ = np.linalg.qr(g[0] + 1j * g[1])
            out.append(Projection(q @ q.conj().T, rank))
    return out


def block_tensor_terms(shape, count, rng, max_terms=4) -> list:
    """``count`` tensor sums of one to ``max_terms`` terms drawn in the
    block layout, as lists of ``(a, g)`` factor pairs of the given shape
    (real and imaginary parts of a, then of g, term by term)."""
    draws = block_layout_draws(rng, count, 1, max_terms + 1, (4,) + tuple(shape))
    return [[(t[0] + 1j * t[1], t[2] + 1j * t[3]) for t in z] for _, z in draws]


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
