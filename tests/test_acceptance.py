"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the time limits are asserted.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np
import pytest

from dfrep import (
    ClassOperatorFunctional,
    OperatorBackedFunctional,
    PureStateFunctional,
    build_tracial_operator,
    check_axioms,
    consistency_report,
    evaluate_double_sum,
    extract_ils,
    hermitian_form_decomposition,
    kron_trace,
    pure_state_m,
    random_projection,
    reconstruct_from_product_diagonal,
    tensor_bound_probe,
    verify_ils_conditions,
)
from dfrep.cli import json_text, main
from dfrep.ils import ils_operator_from_matrix
from dfrep.linalg import operator_from_pairing
from dfrep.tracial import product_diagonal_of
from reference import ElementaryTensorSum, bilinear_refined, householder_basis, trace_pair
from conftest import (
    backend_fixtures,
    basis_proj,
    class_operator_scenario_text,
    operator_scenario_text,
    product_state_operator,
    pure_state_scenario_text,
    random_valid_pairing_operator,
    rho_half_half,
    skew_corrupted_operator,
    trivial_model,
)


def _e(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


@contextlib.contextmanager
def criterion(num: int, desc: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({desc}): FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(f"[acceptance] criterion {num:2d} ({desc}): "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / limit {limit_s:.0f}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeds the {limit_s:.0f}s limit"


def test_criterion_01_ils_round_trip():
    with criterion(1, "ILS round trip", 10.0):
        for dim in (3, 4, 5):
            for k in range(20):
                rng = np.random.default_rng(1000 + 7 * k + dim)
                x0 = random_valid_pairing_operator(dim, rng)
                d = OperatorBackedFunctional(x0)
                assert verify_ils_conditions(d, samples=50, seed=k).passed, (dim, k)
                x = extract_ils(d)
                assert np.abs(x.x_op - x0).max() <= 1e-9, (dim, k)


def test_criterion_02_axioms_iff_conditions():
    with criterion(2, "axiom <-> operator conditions", 10.0):
        fixtures = list(backend_fixtures(3).values()) + list(
            backend_fixtures(4).values()
        )
        rng = np.random.default_rng(2)
        fixtures += [
            OperatorBackedFunctional(random_valid_pairing_operator(4, rng))
            for _ in range(2)
        ]
        for d in fixtures:
            assert check_axioms(d, samples=100, seed=3).passed
            x = extract_ils(d)
            rep = verify_ils_conditions(x, samples=100, seed=3, tol=1e-8)
            assert rep.swap_adjoint_residual <= 1e-8
            assert rep.normalization_residual <= 1e-8
            assert rep.positivity_min >= -1e-8
        # single-condition corruptions fail exactly the matching check
        dim = 3
        x0 = product_state_operator(rho_half_half(dim))
        cases = {
            (True, True, False): 2.0 * x0,
            (False, True, True): skew_corrupted_operator(dim),
            (True, False, True): 1.2 * x0 - 0.2 * np.kron(
                basis_proj(dim, 2).matrix, basis_proj(dim, 2).matrix
            ),
        }
        for expected, bad in cases.items():
            rep = verify_ils_conditions(
                ils_operator_from_matrix(bad), samples=100, seed=4, tol=1e-8
            )
            got = (rep.hermiticity_ok, rep.positivity_ok, rep.normalization_ok)
            assert got == expected, (expected, got)


def test_criterion_03_pure_state_dichotomy():
    with criterion(3, "pure-state trace-norm growth vs bounded sup", 30.0):
        for dim in range(2, 9):
            d = PureStateFunctional(_e(dim, 0))
            x = extract_ils(d, allow_dim_two=True)
            assert abs(x.trace_norm - dim) <= 1e-8, dim
            sup = tensor_bound_probe(lambda n: d, [dim], samples=10**4, seed=dim).records[0]["sup_beta_rank_one"]
            assert sup <= 1 + 1e-9, (dim, sup)


def test_criterion_04_pu_identities():
    with criterion(4, "P U identities", 10.0):
        rng = np.random.default_rng(4)
        for dim, psi in ((3, _e(3, 0)), (6, None)):
            if psi is None:
                psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                psi = psi / np.linalg.norm(psi)
            m = pure_state_m(psi)
            basis = householder_basis(psi)
            proj = np.zeros((dim * dim, dim * dim), dtype=complex)
            for i in range(dim):
                col = np.kron(psi, basis[:, i])
                proj += np.outer(col, col.conj())
            assert np.linalg.norm(m @ m.conj().T - proj) <= 1e-10
            assert abs(np.trace(m) - 1.0) <= 1e-10
            d = PureStateFunctional(psi)
            for _ in range(100):
                terms = tuple(
                    (
                        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
                        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
                    )
                    for _ in range(int(rng.integers(1, 5)))
                )
                s = ElementaryTensorSum(terms)
                direct = sum(d.bilinear(a, b) for a, b in s.terms)
                assert abs(trace_pair(s.materialize(), m) - direct) <= 1e-9 * max(
                    1.0, abs(direct)
                )


def test_criterion_05_decomposition_fidelity():
    with criterion(5, "signed-family decomposition fidelity", 20.0):
        rng = np.random.default_rng(5)
        for dim in (3, 4, 5):
            for kind, d in backend_fixtures(dim).items():
                dec = hermitian_form_decomposition(d)
                assert len(dec.x_family) + len(dec.y_family) <= dim * dim, kind
                for _ in range(100):
                    terms = tuple(
                        (
                            rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)),
                            rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)),
                        )
                        for _ in range(int(rng.integers(1, 5)))
                    )
                    s = ElementaryTensorSum(terms)
                    direct = sum(d.bilinear(a, b) for a, b in s.terms)
                    assert abs(dec.beta(s) - direct) <= 1e-9 * max(1.0, abs(direct)), kind


def test_criterion_06_tracial_pairing_and_double_sum():
    with criterion(6, "tracial pairing and double-sum identity", 20.0):
        rng = np.random.default_rng(6)
        for dim, kind in ((3, "operator"), (5, "pure_state")):
            d = backend_fixtures(dim)[kind]
            top = build_tracial_operator(d)
            for _ in range(200):
                p = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
                q = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
                direct = d.evaluate(p, q)
                assert abs(kron_trace(p, q, top.x_op) - direct) <= 1e-9
            for _ in range(10):
                p = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
                q = random_projection(dim, int(rng.integers(1, dim + 1)), rng)
                direct = kron_trace(p, q, top.x_op)
                for block_rank in (1, 2, dim):
                    val = evaluate_double_sum(top, p, q, block_rank)
                    assert abs(val - direct) <= 1e-10


def test_criterion_07_polarization_reconstructor():
    with criterion(7, "product-diagonal reconstructor", 10.0):
        for dim in (2, 3, 4):
            zero = reconstruct_from_product_diagonal(lambda a, b: 0.0, dim)
            assert np.linalg.norm(zero) <= 1e-12
        rng = np.random.default_rng(7)
        dims = [2, 3, 4, 2, 3, 4, 2]
        count = 0
        while count < 20:
            dim = dims[count % len(dims)]
            n = dim * dim
            m0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            out = operator_from_pairing(reconstruct_from_product_diagonal(product_diagonal_of(m0), dim))
            assert np.linalg.norm(out - m0) <= 1e-9 * max(1.0, np.linalg.norm(m0))
            count += 1


def test_criterion_08_extension_well_definedness():
    with criterion(8, "extension decomposition independence", 10.0):
        rng = np.random.default_rng(8)
        dim = 4
        x = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        y = np.diag([2.0, 2.0, 2.0, -1.0]).astype(complex)
        for kind in ("operator", "pure_state", "form"):
            d = backend_fixtures(dim)[kind]
            base = d.bilinear(x, y)
            for _ in range(50):
                assert abs(bilinear_refined(d, x, y, rng) - base) <= 1e-8, kind


def test_criterion_09_standard_qm_consistency():
    with criterion(9, "trivial-dynamics consistency", 5.0):
        model = trivial_model(3)
        d = ClassOperatorFunctional(model)
        report = consistency_report(d, list(model.schedules[0]), tolerance=1e-12)
        assert report.off_diagonal_max <= 1e-12
        assert abs(report.total - 1.0) <= 1e-12
        assert report.consistent


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timings(v)
            for k, v in obj.items()
            if k not in ("timings_ms", "elapsed_ms")
        }
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _stable(text: str) -> str:
    return json_text(_strip_timings(json.loads(text))) if text else ""


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    with criterion(10, "CLI determinism and exit codes", 10.0):
        valid_op = product_state_operator(rho_half_half(3))
        paths = {}
        fixtures = {
            "ps3": pure_state_scenario_text(dim=3),
            "ps2": pure_state_scenario_text(dim=2),
            "op3": operator_scenario_text(valid_op),
            "op3_scaled": operator_scenario_text(2.0 * valid_op),
            "op3_skew": operator_scenario_text(skew_corrupted_operator(3)),
            "co3": class_operator_scenario_text(dim=3),
            "bad": "{malformed",
        }
        for name, text in fixtures.items():
            p = tmp_path / f"{name}.json"
            p.write_text(text)
            paths[name] = str(p)

        matrix = {
            "check-axioms": [("ps3", 0), ("op3_scaled", 1), ("bad", 2)],
            "extract-ils": [("op3", 0), ("op3_scaled", 1), ("ps2", 2), ("bad", 2)],
            "verify-conditions": [("op3", 0), ("op3_skew", 1), ("bad", 2)],
            "decompose": [("ps3", 0), ("op3_skew", 1), ("bad", 2)],
            "tracial": [("op3", 0), ("op3_skew", 1), ("bad", 2)],
            "sweep": [("ps3", 0), ("op3", 0), ("bad", 2)],
            "demo-pure-state": [("ps3", 0), ("op3", 2), ("bad", 2)],
            "consistency": [("co3", 0), ("op3", 1), ("bad", 2)],
            "reconstruct": [("op3", 0), ("ps2", 2), ("bad", 2)],
        }
        for command, cases in matrix.items():
            for key, expected in cases:
                argv = [command, "--scenario", paths[key]]
                if command == "sweep":
                    argv += ["--dims", "3,4", "--samples", "30"]
                first = _run_cli(argv)
                second = _run_cli(argv)
                assert first[0] == expected, (command, key, first[0])
                assert second[0] == expected
                # byte-identical numeric output (timing fields exempt)
                if expected != 2:
                    assert _stable(first[1]) == _stable(second[1]), (command, key)
                else:
                    assert first[1] == second[1] == ""


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
