"""Seeded scenario generator for the benchmark.

Writes valid, random, non-basis-aligned scenario files for all four
functional backends at a requested dimension, using numpy only, so the
program under test receives nothing but the generated files:

* ``pure_state``      a Haar-random unit vector psi;
* ``operator``        ``w rho (x) rho + (1 - w) S(sigma)`` with ``S(sigma)``
                      the pairing operator of the single-time functional
                      ``d(p, q) = tr(p sigma q)``; both tensor factors of the
                      product term are the same rho, so the swap condition
                      holds exactly;
* ``form``            the Gram matrix of that operator over the matrix-unit
                      basis (an index realignment of X);
* ``class_operator``  random rho, random Hermitian H, two times, and one
                      Haar-rotated projective schedule per time.

Each returned :class:`Fixture` keeps the arrays it was made from, so the
correctness checks compute their references without the program.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Fixture:
    path: Path
    kind: str
    dim: int
    arrays: dict = field(default_factory=dict)


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Independent generator per (workload seed, fixture tag) pair."""
    words = [int(seed)] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(words))


def haar_unitary(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def random_density(dim: int, rng) -> np.ndarray:
    evs = rng.uniform(0.05, 1.0, dim)
    u = haar_unitary(dim, rng)
    rho = (u * (evs / evs.sum())) @ u.conj().T
    return (rho + rho.conj().T) / 2


def random_hermitian(dim: int, rng) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def single_time_operator(rho: np.ndarray) -> np.ndarray:
    """Pairing operator of ``d(p, q) = tr(p rho q)``:
    ``X[(b,a),(a,c)] = rho[b,c]`` and zero elsewhere."""
    dim = rho.shape[0]
    x4 = np.zeros((dim, dim, dim, dim), dtype=complex)
    idx = np.arange(dim)
    # x4[b, a, a, c] = rho[b, c]
    x4[:, idx, idx, :] = rho[:, None, :]
    return x4.reshape(dim * dim, dim * dim)


def realign_to_gram(x: np.ndarray) -> np.ndarray:
    """Gram matrix ``G[(a,b),(e,c)] = X[(b,e),(a,c)]`` of the Hermitian form
    of the functional with pairing operator X."""
    dim = int(round(np.sqrt(x.shape[0])))
    g = x.reshape(dim, dim, dim, dim).transpose(2, 0, 1, 3).reshape(dim * dim, dim * dim)
    return (g + g.conj().T) / 2


def mixture_operator(dim: int, rng):
    w = float(rng.uniform(0.2, 0.8))
    rho = random_density(dim, rng)
    sigma = random_density(dim, rng)
    x = w * np.kron(rho, rho) + (1 - w) * single_time_operator(sigma)
    return x, {"w": w, "rho": rho, "sigma": sigma}


def random_schedule(dim: int, rng) -> list:
    """Projections onto blocks of a Haar basis that sum to the identity."""
    u = haar_unitary(dim, rng)
    cuts = sorted(rng.choice(np.arange(1, dim), size=min(2, dim - 1), replace=False).tolist())
    bounds = [0] + cuts + [dim]
    projs = []
    for lo, hi in zip(bounds, bounds[1:]):
        b = u[:, lo:hi]
        p = b @ b.conj().T
        projs.append((p + p.conj().T) / 2)
    return projs


def _node(arr) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def scenario_doc(kind: str, dim: int, seed: int, arrays: dict) -> dict:
    if kind == "pure_state":
        fn = {"type": kind, "amplitudes": _node(arrays["psi"])}
    elif kind == "operator":
        fn = {"type": kind, "matrix": _node(arrays["x"])}
    elif kind == "form":
        fn = {"type": kind, "gram": _node(arrays["gram"])}
    elif kind == "class_operator":
        fn = {
            "type": kind,
            "rho": _node(arrays["rho"]),
            "hamiltonian": _node(arrays["hamiltonian"]),
            "times": list(arrays["times"]),
            "schedules": [[_node(p) for p in s] for s in arrays["schedules"]],
        }
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {"dimension": dim, "seed": seed, "functional": fn}


def _array(node) -> np.ndarray:
    re = np.asarray(node["re"], dtype=float)
    return re + 1j * np.asarray(node.get("im", np.zeros_like(re)), dtype=float)


def load_fixture(path: Path) -> Fixture:
    """Arrays of an existing scenario file, named as :func:`make_arrays`
    names them."""
    doc = json.loads(Path(path).read_text())
    fn = doc["functional"]
    kind = fn["type"]
    if kind == "pure_state":
        arrays = {"psi": _array(fn["amplitudes"])}
    elif kind == "operator":
        arrays = {"x": _array(fn["matrix"])}
    elif kind == "form":
        arrays = {"gram": _array(fn["gram"])}
    else:
        arrays = {
            "rho": _array(fn["rho"]),
            "hamiltonian": _array(fn["hamiltonian"]),
            "times": [float(t) for t in fn["times"]],
            "schedules": [[_array(p) for p in s] for s in fn["schedules"]],
        }
    return Fixture(path=Path(path), kind=kind, dim=int(doc["dimension"]), arrays=arrays)


def make_arrays(kind: str, dim: int, rng) -> dict:
    if kind == "pure_state":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return {"psi": v / np.linalg.norm(v)}
    if kind == "operator":
        x, parts = mixture_operator(dim, rng)
        return {"x": x, **parts}
    if kind == "form":
        x, parts = mixture_operator(dim, rng)
        return {"gram": realign_to_gram(x), "x": x, **parts}
    if kind == "class_operator":
        t1 = float(rng.uniform(0.1, 1.0))
        times = [t1, t1 + float(rng.uniform(0.1, 1.0))]
        return {
            "rho": random_density(dim, rng),
            "hamiltonian": random_hermitian(dim, rng),
            "times": times,
            "schedules": [random_schedule(dim, rng) for _ in times],
        }
    raise ValueError(f"unknown kind {kind!r}")


def write_fixture(out_dir: Path, kind: str, dim: int, seed: int, tag: str = "") -> Fixture:
    """Generate and write one scenario; same (seed, kind, dim, tag) gives the
    same file."""
    rng = rng_for(seed, kind, dim, tag)
    arrays = make_arrays(kind, dim, rng)
    scenario_seed = int(rng.integers(0, 2**31 - 1))
    path = Path(out_dir) / f"{kind}_d{dim}{'_' + tag if tag else ''}.json"
    doc = scenario_doc(kind, dim, scenario_seed, arrays)
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return Fixture(path=path, kind=kind, dim=dim, arrays=arrays)


def write_skew_violation(out_dir: Path, seed: int) -> Fixture:
    """d = 3 product-state operator plus a zero-trace real antisymmetric term
    that the swap does not map to its negative: only the swap-adjointness
    (Hermiticity) condition fails."""
    dim = 3
    rng = rng_for(seed, "skew", dim)
    rho = random_density(dim, rng)
    n = dim * dim
    swap = np.array([(i % dim) * dim + i // dim for i in range(n)])
    while True:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        if swap[i] != j:
            break
    scale = float(rng.uniform(0.03, 0.08))
    x = np.kron(rho, rho).astype(complex)
    x[i, j] += scale
    x[j, i] -= scale
    path = Path(out_dir) / "operator_skew_d3.json"
    path.write_text(json.dumps(scenario_doc("operator", dim, seed, {"x": x}), separators=(",", ":")))
    return Fixture(path=path, kind="operator", dim=dim, arrays={"x": x})


def write_malformed(out_dir: Path, seed: int) -> tuple[Fixture, str]:
    """A d = 3 scenario with one seeded defect; returns the fixture and the
    field path the error message must name."""
    dim = 3
    rng = rng_for(seed, "malformed", dim)
    case = int(rng.integers(0, 4))
    if case == 0:
        arrays = make_arrays("pure_state", dim, rng)
        arrays["psi"] = arrays["psi"] * 1.5
        doc, expect = scenario_doc("pure_state", dim, seed, arrays), "functional.amplitudes"
    elif case == 1:
        arrays = make_arrays("class_operator", dim, rng)
        arrays["rho"] = arrays["rho"] * 0.9
        doc, expect = scenario_doc("class_operator", dim, seed, arrays), "functional.rho"
    elif case == 2:
        arrays = make_arrays("operator", dim, rng)
        arrays["x"] = arrays["x"][:-1, :-1]
        doc, expect = scenario_doc("operator", dim, seed, arrays), "functional.matrix"
    else:
        arrays = make_arrays("class_operator", dim, rng)
        arrays["schedules"][0] = arrays["schedules"][0][:-1]
        doc, expect = scenario_doc("class_operator", dim, seed, arrays), "functional.schedules[0]"
    path = Path(out_dir) / "malformed_d3.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return Fixture(path=path, kind=doc["functional"]["type"], dim=dim), expect
