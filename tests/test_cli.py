from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dfrep import cli
from dfrep.cli import SWEEP_CSV_HEADER, json_text, main
from conftest import (
    backend_fixtures,
    class_operator_scenario_text,
    form_scenario_text,
    operator_scenario_text,
    product_state_operator,
    pure_state_scenario_text,
    random_valid_pairing_operator,
    rho_half_half,
    skew_corrupted_operator,
)
from dfrep import (
    AxiomReport,
    ClassOperatorModel,
    ConditionsReport,
    ConsistencyReport,
    OperatorBackedFunctional,
    check_axioms,
    consistency_report,
    gram_matrix,
    tensor_bound_probe,
    verify_ils_conditions,
)
from dfrep.scenarios import parse_scenario

MALFORMED = "{this is not json"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def stable_stdout(out: str) -> str:
    return json_text(_strip_timings(json.loads(out)))


def stable_csv(text: str) -> str:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    keep = [i for i, h in enumerate(header) if h != "elapsed_ms"]
    return "\n".join(
        ",".join(line.split(",")[i] for i in keep) for line in lines
    )


@pytest.fixture
def paths(tmp_path):
    valid_op = product_state_operator(rho_half_half(3))
    return {
        "ps3": _write(tmp_path, "ps3.json", pure_state_scenario_text(dim=3)),
        "ps2": _write(tmp_path, "ps2.json", pure_state_scenario_text(dim=2)),
        "op3": _write(tmp_path, "op3.json", operator_scenario_text(valid_op)),
        "op3_scaled": _write(
            tmp_path, "op3s.json", operator_scenario_text(2.0 * valid_op)
        ),
        "op3_skew": _write(
            tmp_path, "op3k.json", operator_scenario_text(skew_corrupted_operator(3))
        ),
        "form3": _write(
            tmp_path,
            "form3.json",
            form_scenario_text(gram_matrix(backend_fixtures(3)["operator"])),
        ),
        "co3": _write(tmp_path, "co3.json", class_operator_scenario_text(dim=3)),
        # Hermitian, unit trace and interference-free on the basis, but d(e1, e1) = -0.5.
        "op3_negative": _write(
            tmp_path, "op3n.json", operator_scenario_text(np.diag([1.5, 0, 0, 0, -0.5, 0, 0, 0, 0]))
        ),
        "bad": _write(tmp_path, "bad.json", MALFORMED),
        "tmp": tmp_path,
    }


class TestBasicRuns:
    def test_check_axioms_valid(self, capsys, paths):
        code, out, _ = run_cli(capsys, "check-axioms", "--scenario", paths["ps3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "check-axioms"
        assert doc["verdict"] == "pass"
        assert set(doc) >= {"command", "verdict", "seed", "records"}
        rec = doc["records"][0]
        assert rec["hermiticity_residual"] <= 1e-9
        assert rec["normalization_residual"] <= 1e-9
        assert rec["orthoadditivity_residual"] <= 1e-9

    def test_seed_echoed_and_overridable(self, capsys, paths):
        code, out, _ = run_cli(capsys, "check-axioms", "--scenario", paths["ps3"])
        assert json.loads(out)["seed"] == 11  # scenario seed
        code, out, _ = run_cli(
            capsys, "check-axioms", "--scenario", paths["ps3"], "--seed", "99"
        )
        assert json.loads(out)["seed"] == 99

    @pytest.mark.parametrize("command", ["check-axioms", "consistency"])
    def test_class_operator_model_built_once(self, command, capsys, paths, monkeypatch):
        """parse_scenario builds the functional to validate it, and the
        command runs on that same build."""
        built = []
        post_init = ClassOperatorModel.__post_init__

        def counting(model):
            built.append(model)
            post_init(model)

        monkeypatch.setattr(ClassOperatorModel, "__post_init__", counting)
        code, _, _ = run_cli(capsys, command, "--scenario", paths["co3"])
        assert code == 0
        assert len(built) == 1

    def test_sweep_reuses_the_scenario_dimension_build(self, capsys, monkeypatch):
        """A sweep over dims 3 and 4 of a dimension-3 scenario builds one
        model, the parsed one: at dimension 3 it runs on the parsed
        functional, and at dimension 4 on its factor zero-padded."""
        built = []
        post_init = ClassOperatorModel.__post_init__

        def counting(model):
            built.append(model.dim)
            post_init(model)

        monkeypatch.setattr(ClassOperatorModel, "__post_init__", counting)
        scenario = str(SCENARIOS / "class_operator_trivial_dim3.json")
        code, _, _ = run_cli(capsys, "sweep", "--scenario", scenario, "--dims", "3,4", "--samples", "20")
        assert code == 0
        assert built == [3]

    def test_verify_conditions_reads_a_form_scenarios_held_pairing(self, capsys, tmp_path, monkeypatch):
        """A form scenario's functional holds P, so verify-conditions checks
        it as it is, without re-extracting it through the atom table."""
        x = random_valid_pairing_operator(5, np.random.default_rng(5))  # Haar-rotated densities
        gram = gram_matrix(OperatorBackedFunctional(x))
        path = _write(tmp_path, "form5.json", form_scenario_text(gram))

        def forbidden(d):
            raise AssertionError("verify-conditions re-extracted a held pairing matrix")

        monkeypatch.setattr(cli, "extract_ils", forbidden)
        code, out, _ = run_cli(capsys, "verify-conditions", "--scenario", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_extract_ils_dim_two_exit_code(self, capsys, paths):
        code, out, err = run_cli(capsys, "extract-ils", "--scenario", paths["ps2"])
        assert code == 2
        assert "dimension >= 3" in err
        assert out == ""

    def test_extract_ils_valid(self, capsys, paths):
        code, out, _ = run_cli(capsys, "extract-ils", "--scenario", paths["op3"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert abs(rec["trace"]["re"] - 1.0) <= 1e-9
        assert rec["pairing_residual"] <= 1e-9

    def test_sweep_trace_norm_column(self, capsys, paths, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--scenario",
            paths["ps2"],
            "--dims",
            "2,3,4,5,6,7,8",
            "--samples",
            "200",
            "--out",
            str(out_file),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "divergence_evidence"
        text = out_file.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        for line, dim in zip(lines[1:], range(2, 9)):
            cols = line.split(",")
            assert int(cols[0]) == dim
            assert abs(float(cols[1]) - dim) <= 1e-8

    def test_demo_pure_state(self, capsys, paths):
        code, out, _ = run_cli(capsys, "demo-pure-state", "--scenario", paths["ps3"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert abs(rec["trace"]["re"] - 1.0) <= 1e-10
        assert rec["pu_adjoint_residual"] <= 1e-10
        assert rec["beta_series_residual"] <= 1e-9
        assert abs(rec["trace_norm"] - 3.0) <= 1e-8

    def test_consistency_trivial_model(self, capsys, paths):
        code, out, _ = run_cli(capsys, "consistency", "--scenario", paths["co3"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["off_diagonal_max"] <= 1e-12
        assert abs(rec["total"] - 1.0) <= 1e-12

    def test_consistency_interference_violation(self, capsys, paths):
        # product functional: Re d(E11, E22) = tr(E11 rho) tr(E22 rho) = 1/4
        code, out, _ = run_cli(capsys, "consistency", "--scenario", paths["op3"])
        assert code == 1
        rec = json.loads(out)["records"][0]
        assert rec["off_diagonal_max"] == pytest.approx(0.25, abs=1e-12)

    def test_reconstruct(self, capsys, paths):
        code, out, _ = run_cli(capsys, "reconstruct", "--scenario", paths["op3"])
        assert code == 0
        assert json.loads(out)["records"][0]["reconstruction_residual"] <= 1e-8

    def test_decompose_and_tracial(self, capsys, paths):
        for cmd in ("decompose", "tracial"):
            code, out, _ = run_cli(capsys, cmd, "--scenario", paths["form3"])
            assert code == 0, cmd
            assert json.loads(out)["verdict"] == "pass"

    def test_unknown_command_exit_two(self, capsys, paths):
        assert run_cli(capsys, "frobnicate", "--scenario", paths["ps3"])[0] == 2

    def test_bad_flag_values_exit_two(self, capsys, paths):
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", paths["ps3"], "--dims", "4,3"
        )
        assert code == 2 and "ascending" in err
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", paths["ps3"], "--dims", "4,nope"
        )
        assert code == 2 and "--dims" in err
        # every dimension is checked before any is extracted, naming the flag
        for dims in ("3,65", "5,4", "3,3", "", ",", "2,3"):
            code, out, err = run_cli(capsys, "sweep", "--scenario", paths["ps3"], "--dims", dims)
            assert (code, out) == (2, ""), dims
            assert err.startswith("error: --dims: "), (dims, err)
        for command, key in SAMPLING_COMMANDS.items():
            for samples in ("0", "-3"):
                code, out, err = run_cli(
                    capsys, command, "--scenario", paths[key], "--samples", samples
                )
                assert (code, out) == (2, ""), (command, samples)
                assert "--samples" in err, (command, samples)
        # out-of-range values, and flags the command does not read
        for command, key, flag, value in (
            ("tracial", "op3", "--tolerance", "nan"),
            ("tracial", "op3", "--tolerance", "inf"),
            ("extract-ils", "op3", "--tolerance", "-1e-9"),
            ("consistency", "co3", "--tolerance", "1e400"),
            ("tracial", "op3", "--seed", "-1"),
            ("check-axioms", "ps3", "--seed", "1.5"),
            ("tracial", "op3", "--block-rank", "0"),
            ("check-axioms", "ps3", "--block-rank", "5"),
            ("consistency", "co3", "--samples", "5"),
            ("reconstruct", "op3", "--samples", "5"),
            ("sweep", "ps3", "--tolerance", "1e-3"),
        ):
            code, out, err = run_cli(capsys, command, "--scenario", paths[key], flag, value)
            assert (code, out) == (2, ""), (command, flag, value)
            assert flag in err, (command, flag, value)

    def test_boolean_scenario_field_exit_two(self, capsys, tmp_path):
        doc = json.loads(pure_state_scenario_text(dim=3))
        doc["dimension"] = True
        path = _write(tmp_path, "bool.json", json.dumps(doc))
        code, out, err = run_cli(capsys, "check-axioms", "--scenario", path)
        assert (code, out) == (2, "")
        assert "dimension" in err

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_empty_times_exit_two(self, command, capsys, tmp_path):
        """A class-operator scenario with no times is an input error on
        every command, named by its field."""
        doc = json.loads((SCENARIOS / "class_operator_trivial_dim3.json").read_text())
        doc["functional"].update(times=[], schedules=[])
        path = _write(tmp_path, "no_times.json", json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--scenario", path)
        assert (code, out) == (2, "")
        assert err == "error: functional.times: need at least one time\n"

    def test_missing_file_exit_two(self, capsys):
        assert run_cli(capsys, "check-axioms", "--scenario", "/nonexistent.json")[0] == 2

    def test_non_utf8_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "check-axioms", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read scenario:") and "Traceback" not in err

    def test_crlf_file_hash_is_the_sha256_of_its_bytes(self, capsys, tmp_path):
        """The file is read without newline translation, so a CRLF copy of a
        shipped scenario reports the SHA-256 of its own bytes."""
        raw = (SCENARIOS / "pure_state_dim3.json").read_bytes()
        assert b"\r" not in raw
        path = tmp_path / "crlf.json"
        path.write_bytes(raw.replace(b"\n", b"\r\n"))
        for source in (SCENARIOS / "pure_state_dim3.json", path):
            code, out, _ = run_cli(capsys, "check-axioms", "--scenario", str(source))
            assert code == 0
            assert json.loads(out)["scenario_sha256"] == hashlib.sha256(source.read_bytes()).hexdigest()

    def test_out_json_format(self, capsys, paths, tmp_path):
        out_file = tmp_path / "res.json"
        code, out, _ = run_cli(
            capsys,
            "check-axioms",
            "--scenario",
            paths["ps3"],
            "--out",
            str(out_file),
            "--format",
            "json",
        )
        assert code == 0
        assert out_file.read_text() == out

    def test_out_csv_generic(self, capsys, paths, tmp_path):
        out_file = tmp_path / "res.csv"
        code, _, _ = run_cli(
            capsys,
            "check-axioms",
            "--scenario",
            paths["ps3"],
            "--out",
            str(out_file),
            "--format",
            "csv",
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "hermiticity_residual" in lines[0]

    def test_failed_out_write_prints_no_result(self, capsys, paths, tmp_path):
        """An ``--out`` that cannot be written exits 2 with stdout empty."""
        code, out, err = run_cli(capsys, "check-axioms", "--scenario", paths["ps3"], "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "cannot write output" in err

    @pytest.mark.parametrize(
        "command,scenario,list_key",
        [
            ("tracial", "pure_state_dim3.json", "block_ranks"),
            ("consistency", "class_operator_trivial_dim3.json", "diagonals"),
        ],
    )
    def test_out_csv_list_cell_is_one_quoted_json_cell(self, command, scenario, list_key, capsys, tmp_path):
        """A list in a record is one CSV cell, its JSON text quoted, so every
        row has one cell per header key."""
        out_file = tmp_path / "res.csv"
        argv = [command, "--scenario", str(SCENARIOS / scenario), "--out", str(out_file), "--format", "csv"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        with out_file.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(len(row) == len(header) for row in rows)
        cell = rows[0][header.index(list_key)]
        assert cell == json_text(json.loads(out)["records"][0][list_key])
        assert isinstance(json.loads(cell), list)

    def test_block_rank_flag(self, capsys, paths):
        code, out, _ = run_cli(
            capsys, "tracial", "--scenario", paths["op3"], "--block-rank", "3"
        )
        assert code == 0
        assert 3 in json.loads(out)["records"][0]["block_ranks"]

    def test_block_rank_flag_between_two_and_dim_is_listed_in_order(self, capsys, tmp_path):
        path = _write(tmp_path, "ps8.json", pure_state_scenario_text(8))
        code, out, _ = run_cli(capsys, "tracial", "--scenario", path, "--block-rank", "4", "--samples", "5")
        assert code == 0
        assert json.loads(out)["records"][0]["block_ranks"] == [1, 2, 4, 8]

    def test_block_rank_above_the_dimension_exit_two(self, capsys):
        path = str(SCENARIOS / "pure_state_dim3.json")
        for rank in ("4", "99"):
            code, out, err = run_cli(capsys, "tracial", "--scenario", path, "--block-rank", rank)
            assert (code, out) == (2, "")
            assert err == f"error: --block-rank: rank {rank} exceeds the dimension 3\n"
        code, out, _ = run_cli(capsys, "tracial", "--scenario", path, "--block-rank", "3", "--samples", "5")
        assert code == 0 and json.loads(out)["records"][0]["block_ranks"] == [1, 2, 3]

    def test_tolerance_flag_tightens_verdict(self, capsys, paths, tmp_path):
        # an absurdly tight threshold flips the pairing check to violation
        # (needs irrational entries; the rho (x) rho residual is exactly 0)
        from conftest import random_valid_pairing_operator

        x0 = random_valid_pairing_operator(3, np.random.default_rng(77))
        path = _write(tmp_path, "irr.json", operator_scenario_text(x0))
        code, out, _ = run_cli(
            capsys, "extract-ils", "--scenario", path, "--tolerance", "1e-30"
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "violation"


# every command that reads --samples -> a scenario it accepts
SAMPLING_COMMANDS = {
    "check-axioms": "ps3",
    "extract-ils": "op3",
    "verify-conditions": "op3",
    "decompose": "ps3",
    "tracial": "op3",
    "sweep": "ps3",
    "demo-pure-state": "ps3",
}

# command -> (fixture key, expected exit code) for each scenario class
EXIT_MATRIX = {
    "check-axioms": [("ps3", 0), ("op3_scaled", 1), ("op3_negative", 1), ("bad", 2)],
    "extract-ils": [("op3", 0), ("op3_scaled", 1), ("bad", 2), ("ps2", 2)],
    "verify-conditions": [("op3", 0), ("op3_skew", 1), ("op3_negative", 1), ("bad", 2)],
    "decompose": [("ps3", 0), ("op3_skew", 1), ("bad", 2)],
    "tracial": [("op3", 0), ("op3_skew", 1), ("bad", 2)],
    "sweep": [("ps3", 0), ("op3", 0), ("bad", 2)],
    "demo-pure-state": [("ps3", 0), ("op3", 2), ("bad", 2)],
    "consistency": [("co3", 0), ("op3", 1), ("op3_negative", 1), ("bad", 2)],
    "reconstruct": [("op3", 0), ("op3_skew", 1), ("ps2", 2), ("bad", 2)],
}


class TestExitCodeMatrix:
    @pytest.mark.parametrize("command", sorted(EXIT_MATRIX))
    def test_exit_codes(self, command, capsys, paths):
        for key, expected in EXIT_MATRIX[command]:
            argv = [command, "--scenario", paths[key]]
            if command == "sweep":
                argv += ["--dims", "3,4", "--samples", "30"]
            code, _, _ = run_cli(capsys, *argv)
            assert code == expected, (command, key, code)


class TestViolationRecords:
    @pytest.mark.parametrize("command", ["decompose", "tracial", "reconstruct"])
    def test_non_hermitian_gram_is_a_violation_record(self, command, capsys, paths):
        """A skew-corrupted operator's Gram matrix is not Hermitian: the
        command exits 1 with one record that holds only the error."""
        code, out, err = run_cli(capsys, command, "--scenario", paths["op3_skew"])
        doc = json.loads(out)
        assert (code, err) == (1, "")
        assert (doc["command"], doc["verdict"]) == (command, "violation")
        assert doc["records"] == [{"error": doc["records"][0]["error"]}]
        assert "not Hermitian" in doc["records"][0]["error"]

    def test_non_finite_result_is_an_input_error(self, capsys, tmp_path):
        """Finite entries of X whose residual overflows: exit 2 with an error
        line naming the command and the overflow, and nothing on stdout."""
        code, out, err = run_cli(capsys, "reconstruct", "--scenario", _huge_scenario(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: reconstruct: overflow encountered")

    @pytest.mark.parametrize(
        "command,expected",
        [
            ("sweep", 2),
            ("extract-ils", 2),
            ("tracial", 2),
            ("decompose", 2),
            ("check-axioms", 1),
            ("verify-conditions", 1),
            ("consistency", 1),
        ],
    )
    def test_intermediate_overflow_is_an_input_error(self, command, expected, capsys, tmp_path):
        """An overflow inside a command fails it instead of printing a numpy
        warning; the commands whose arithmetic stays finite keep their verdicts."""
        code, out, err = run_cli(capsys, command, "--scenario", _huge_scenario(tmp_path))
        assert code == expected
        if expected == 2:
            assert out == ""
            assert err.startswith(f"error: {command}: overflow encountered")
        else:
            assert err == ""

    def test_non_finite_field_is_named(self):
        with pytest.raises(cli.NonFiniteOutputError) as exc:
            json_text({"records": [{"tolerance": 1.0, "residual": float("nan")}]})
        assert exc.value.args[0] == ".records[0].residual"


def _huge_scenario(tmp_path) -> str:
    """An operator scenario whose entries are finite but whose products
    overflow (|X| entries of 1e200)."""
    x = np.zeros((9, 9))
    x[0, 0], x[4, 4], x[1, 3], x[8, 8] = 1e200, -1e200, 1e200, 1.0
    return _write(tmp_path, "huge.json", operator_scenario_text(x))


# command -> (scenario, report type, the library check with the flags below)
REPORT_CHECKS = {
    "check-axioms": (
        "operator_product_state_dim3.json",
        AxiomReport,
        lambda d: check_axioms(d, samples=40, seed=3, tol=1e-7),
    ),
    "verify-conditions": (
        "operator_product_state_dim3.json",
        ConditionsReport,
        lambda d: verify_ils_conditions(d, samples=40, seed=3, tol=1e-7),
    ),
    "consistency": (
        "class_operator_trivial_dim3.json",
        ConsistencyReport,
        lambda d: consistency_report(d, d.model.schedules[0], tolerance=1e-7),
    ),
}


class TestReportRecords:
    @pytest.mark.parametrize("command", sorted(REPORT_CHECKS))
    def test_record_is_the_library_report(self, command, capsys):
        """The command prints its check's report as it is: the same keys and
        the same values as the library call with the same seed, samples and
        tolerance."""
        name, report_type, check = REPORT_CHECKS[command]
        path = SCENARIOS / name
        argv = [command, "--scenario", str(path), "--seed", "3", "--tolerance", "1e-7"]
        if command != "consistency":
            argv += ["--samples", "40"]
        code, out, _ = run_cli(capsys, *argv)
        (rec,) = json.loads(out)["records"]
        assert code == 0
        assert set(rec) == set(report_type._fields)
        report = check(parse_scenario(path.read_text()).functional)
        assert rec == json.loads(json_text(report._asdict()))

    def test_sweep_summary_is_the_library_report(self, capsys):
        """sweep prints tensor_bound_probe's report as it is: with the keys
        every command adds dropped and elapsed_ms masked, the summary is the
        report's ``_asdict()`` for the same family, dims, samples and seed."""
        path = SCENARIOS / "pure_state_dim3.json"
        argv = ["sweep", "--scenario", str(path), "--dims", "3,4,5", "--samples", "40", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        for key in ("command", "seed", "scenario_sha256", "timings_ms"):
            del doc[key]
        scenario = parse_scenario(path.read_text())
        report = tensor_bound_probe(scenario.functional_at, [3, 4, 5], samples=40, seed=3)
        assert _strip_timings(doc) == _strip_timings(json.loads(json_text(report._asdict())))


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(EXIT_MATRIX))
    def test_byte_identical_numeric_output(self, command, capsys, paths, tmp_path):
        key = EXIT_MATRIX[command][0][0]
        argv = [command, "--scenario", paths[key]]
        if command == "sweep":
            argv += ["--dims", "3,4,5", "--samples", "50"]
        out_file = tmp_path / f"{command}.out"
        argv += ["--out", str(out_file)]
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            file_text = out_file.read_text()
            runs.append((code, out, file_text))
        assert runs[0][0] == runs[1][0]
        assert stable_stdout(runs[0][1]) == stable_stdout(runs[1][1])
        if command == "sweep":
            assert stable_csv(runs[0][2]) == stable_csv(runs[1][2])
        else:
            assert stable_stdout(runs[0][2]) == stable_stdout(runs[1][2])

    def test_seventeen_digit_float_format(self):
        text = json_text({"x": 1.0 / 3.0})
        assert text == '{"x":0.33333333333333331}'

    def test_complex_encoding(self):
        assert json_text(1 - 2j) == '{"im":-2,"re":1}'


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
