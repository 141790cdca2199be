"""Command-line interface: configs, outputs, exit codes, verify checks."""
import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sympberry import (
    OscParams,
    SympMatrix,
    SympPath,
    cli,
    gaussian_states,
    geometric_phase,
    integrate_phase,
    polygon_phase,
    sp4_closed_form,
    squeeze_circle_path,
    squeeze_paths,
)
from sympberry._quadrature import QuadratureBudgetExceeded
from sympberry.cli import CHECK_NAMES, EXIT_CONFIG, ConfigError, _load_samples, main

REFERENCE_R1 = -4.3388468454428593
REFERENCE_R05 = -0.85306906632122558


def _json_out(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def test_phase_json_stdout(capsys):
    code = main(["phase", "--kind", "squeeze1", "--R", "1", "--format", "json"])
    record, err = _json_out(capsys)
    assert code == 0
    assert err == ""
    assert record["kind"] == "squeeze1"
    assert record["modes"] == 1
    assert record["rng"] == "PCG64"
    assert record["gamma"] == pytest.approx(REFERENCE_R1, rel=1e-8)
    assert record["reference_phase"] == pytest.approx(REFERENCE_R1, rel=1e-15)
    assert record["abs_deviation"] <= 1e-8


def test_phase_two_modes(capsys):
    code = main(["phase", "--kind", "squeeze2", "--R", "0.5", "--format", "json"])
    record, _ = _json_out(capsys)
    assert code == 0
    assert record["modes"] == 2
    assert len(record["lengths"]) == 2
    assert record["gamma"] == pytest.approx(2.0 * REFERENCE_R05, rel=1e-8)


def test_phase_csv_roundtrip(tmp_path):
    common = ["phase", "--kind", "squeeze1", "--R", "0.5", "--seed", "7"]
    csv_file = tmp_path / "phase.csv"
    json_file = tmp_path / "phase.json"
    assert main(common + ["--format", "csv", "--out", str(csv_file)]) == 0
    assert main(common + ["--format", "json", "--out", str(json_file)]) == 0
    header, row = csv_file.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    record = json.loads(json_file.read_text())
    # %.17g serialization reproduces the binary double exactly
    assert float(cols["gamma"]) == record["gamma"]
    assert cols["kind"] == "squeeze1"
    assert cols["seed"] == "7"
    assert cols["lengths"] == "1"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[path]\nkind = squeeze1\nR = 0.5\n")
    code = main(["phase", "--config", str(cfg), "--R", "1", "--format", "json"])
    record, _ = _json_out(capsys)
    assert code == 0
    assert record["R"] == 1.0
    assert record["gamma"] == pytest.approx(REFERENCE_R1, rel=1e-8)


def test_config_negative_tol_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[path]\nkind = squeeze1\nR = 1\n[quadrature]\ntol = -1e-10\n")
    assert main(["phase", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: tolerance must be positive, got -1e-10\n")


@pytest.mark.parametrize(
    "value, message",
    [("inf", "tolerance must be finite, got inf"), ("nan", "tolerance must be positive, got nan")],
)
def test_non_finite_tol_flag_exits_2(capsys, value, message):
    code = main(["phase", "--kind", "squeeze1", "--R", "1", "--tol", value, "--format", "json"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_config_unknown_key_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[path]\nkind = squeeze1\n[sweep]\nbogus = 1\n")
    code = main(["sweep", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown key 'bogus'" in captured.err
    assert f"{cfg}:4" in captured.err  # points at the offending line


def test_config_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[mystery]\nx = 1\n")
    code = main(["phase", "--config", str(cfg), "--R", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown section [mystery]" in captured.err


_NUMERIC_PARSERS = (cli._int, cli._float, cli._floats)


@pytest.mark.parametrize(
    "section,key",
    [where for where, (_, parse, _) in cli._SETTINGS.items() if parse in _NUMERIC_PARSERS],
)
def test_config_malformed_number_names_key(tmp_path, capsys, section, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = two\n")
    code = main(["phase", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: [{section}] {key}: expected" in captured.err
    assert "'two'" in captured.err


def test_quadrature_budget_exit_3(tmp_path, capsys):
    cfg = tmp_path / "tight.ini"
    cfg.write_text(
        "[path]\nkind = squeeze1\nR = 1\n[quadrature]\ntol = 1e-16\nmax_evals = 45\n"
    )
    code = main(["phase", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget" in captured.err


def test_sweep_csv_grid(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[path]\nkind = squeeze1\nhbar = 2.0\nlengths = 1.5\n[sweep]\nR = 0.5, 1.0\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,hbar,l1,gamma_quadrature,gamma_reference,deviation,status,seed"
    assert len(lines) == 1 + 2  # one row per R value
    for R, line in zip(("0.5", "1"), lines[1:]):
        cells = line.split(",")
        assert cells[:3] == [R, "2", "1.5"]
        assert cells[-2:] == ["ok", "3"]
        assert float(cells[5]) <= 1e-8  # deviation column


def test_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[path]\nkind = squeeze2\n[sweep]\nR = 0.25, 0.75\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_empty_grid(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[path]\nkind = squeeze1\n[sweep]\nR =\n")
    out = tmp_path / "empty.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only


def test_sweep_row_error_marks_status(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[path]\nkind = squeeze1\n[sweep]\nR = 1.0\n"
        "[quadrature]\ntol = 1e-16\nmax_evals = 45\n"
    )
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert "error:QuadratureBudgetExceeded" in lines[1]


@pytest.mark.parametrize("kind", ["squeeze1", "squeeze2"])
def test_phase_circle_failing_its_check_is_config_error(capsys, kind):
    # from about R = 7 the circle's samples fail the symplectic check in floating point
    code = main(["phase", "--kind", kind, "--R", "8"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("config error: sample at t=")
    assert "fails the symplectic condition" in captured.err


def test_phase_overflowing_magnitude_is_one_config_error_line(capsys):
    code = main(["phase", "--R", "800"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == "config error: squeeze matrices overflow at R=800.0: M Omega M^T leaves the float range\n"


def test_sweep_overflowing_magnitude_row_is_an_error(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", "squeeze2", "--R", "800", "--out", str(out)]) == 1
    assert out.read_text().splitlines()[1] == "800,1,1,1,,,,error:ValueError,0"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_keeps_each_mode_length(tmp_path, fmt):
    out = tmp_path / f"sweep.{fmt}"
    flags = ["--kind", "squeeze2", "--R", "0.5", "--length", "1", "--length", "2", "--format", fmt]
    assert main(["sweep", *flags, "--out", str(out)]) == 0
    if fmt == "csv":
        header, line = out.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        row["gamma_quadrature"] = float(row["gamma_quadrature"])
        assert (row["l1"], row["l2"]) == ("1", "2")
    else:
        (row,) = json.loads(out.read_text())["rows"]
        assert (row["l1"], row["l2"]) == (1.0, 2.0)
    p = OscParams(1.0, (1.0, 2.0))
    assert row["gamma_quadrature"] == integrate_phase(squeeze_circle_path(2, 0.5, p), p).value


def test_sweep_reference_overflow_row_is_valid_json(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--kind", "squeeze1", "--R", "400", "--format", "json", "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert "Infinity" not in text and "NaN" not in text
    (row,) = json.loads(text)["rows"]
    assert row["status"] == "error:ValueError"
    assert row["gamma_reference"] is None and row["gamma_quadrature"] is None


def test_sweep_R_flag_overrides_config_grid(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[path]\nkind = squeeze1\n[sweep]\nR = 0.5, 1.0\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--R", "2", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2"]


@pytest.mark.parametrize("key,value", [("hbar", "nan"), ("hbar", "inf"), ("lengths", "inf")])
def test_sweep_nonfinite_grid_value_is_config_error(tmp_path, capsys, key, value):
    # OscParams decides the range of the [path] hbar and lengths that every row is built at
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(f"[path]\nkind = squeeze1\n{key} = {value}\n[sweep]\nR = 0.5, 1.0\n")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    rejected = f"{key} must be positive and finite, got {value}"
    assert capsys.readouterr() == ("", f"config error: {rejected}\n")


def test_bad_sweep_grid_value_runs_no_row_and_writes_no_file(tmp_path, monkeypatch, capsys):
    # the last R is rejected before the first row integrates
    calls = []
    monkeypatch.setattr(cli, "integrate_phase", lambda *args: calls.append(args))
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[path]\nkind = squeeze1\n[sweep]\nR = 0.5, 1.0, nan\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: magnitude must be finite and >= 0, got nan\n")
    assert calls == [] and os.listdir(tmp_path) == ["sweep.ini"]


@pytest.mark.parametrize("value", [",", ", ;"])
@pytest.mark.parametrize(
    "section,key", [("sweep", "R"), ("path", "lengths")]
)
def test_separators_only_number_list_is_config_error(tmp_path, capsys, section, key, value):
    sections = {"path": {"kind": "squeeze1"}, "sweep": {"R": "1.0"}}
    sections[section][key] = value
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "".join(
            f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
            for sec, kv in sections.items()
        )
    )
    code = main(["sweep", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert f"config error: [{section}] {key}: expected comma-separated numbers" in captured.err
    assert captured.out == ""


def test_sweep_rows_echo_path_hbar_and_lengths(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[path]\nkind = squeeze2\nhbar = 2\nlengths = 3, 0.5\n[sweep]\nR = 1.0, 0.5\n")
    csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(cfg), "--out", str(csv_out)]) == 0
    assert main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(json_out)]) == 0
    header, *lines = csv_out.read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    cells = [(r["R"], r["hbar"], r["l1"], r["l2"], r["status"]) for r in rows]
    assert cells == [("1", "2", "3", "0.5", "ok"), ("0.5", "2", "3", "0.5", "ok")]
    rows = json.loads(json_out.read_text())["rows"]
    cells = [(r["R"], r["hbar"], r["l1"], r["l2"], r["status"]) for r in rows]
    assert cells == [(1.0, 2.0, 3.0, 0.5, "ok"), (0.5, 2.0, 3.0, 0.5, "ok")]


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMPBERRY_OUT_DIR", str(tmp_path))
    code = main(
        ["phase", "--kind", "squeeze1", "--R", "0.5", "--format", "json", "--out", "sub/r.json"]
    )
    assert code == 0
    record = json.loads((tmp_path / "sub" / "r.json").read_text())
    assert record["gamma"] == pytest.approx(REFERENCE_R05, rel=1e-8)
    # absolute paths ignore the env variable
    target = tmp_path / "abs.json"
    assert main(["phase", "--kind", "squeeze1", "--R", "0.5", "--out", str(target)]) == 0
    assert target.exists()


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "x.json"
    for _ in range(3):
        assert main(
            ["phase", "--kind", "squeeze1", "--R", "0.5", "--format", "json", "--out", str(out)]
        ) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".sympberry-")]
    assert leftovers == []


@pytest.mark.parametrize(
    "argv",
    [["phase"], ["sweep", "--R", "0.5"], ["verify", "--seed", "0"], ["expm"]],
    ids=["phase", "sweep", "verify", "expm"],
)
def test_out_naming_a_directory_is_one_config_error_line(tmp_path, capsys, argv):
    if argv[0] == "verify":
        cfg = tmp_path / "run.ini"
        cfg.write_text(_ONE_CHECK)
        argv = argv + ["--config", str(cfg)]
    target = tmp_path / "taken"
    target.mkdir()
    assert main([*argv, "--out", str(target)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: cannot write {target}: Is a directory\n")
    assert [p for p in os.listdir(tmp_path) if p.startswith(".sympberry-")] == []


def test_out_dir_env_naming_a_file_is_one_config_error_line(tmp_path, monkeypatch, capsys):
    base = tmp_path / "base"
    base.write_text("")
    monkeypatch.setenv("SYMPBERRY_OUT_DIR", str(base))
    assert main(["phase", "--out", "r.json"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: cannot write {base / 'r.json'}: ")
    assert err.count("\n") == 1 and base.read_text() == ""


def _verify_config(tmp_path, count=25, extra=""):
    cfg = tmp_path / "verify.ini"
    cfg.write_text(f"[verify]\ncount = {count}\n{extra}")
    return cfg


def test_verify_all_checks_pass(tmp_path, capsys):
    cfg = _verify_config(tmp_path)
    code = main(["verify", "--config", str(cfg), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    for name in CHECK_NAMES:
        assert f"[PASS] {name}:" in captured.out
    assert "all checks passed" in captured.out


def test_verify_subset_of_checks(tmp_path, capsys):
    cfg = _verify_config(tmp_path, extra="checks = closed_form, coefficients\n")
    code = main(["verify", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS] closed_form:" in captured.out
    assert "[PASS] coefficients:" in captured.out
    assert "symplectic" not in captured.out


def test_verify_unknown_check_name(tmp_path, capsys):
    cfg = _verify_config(tmp_path, extra="checks = warp_drive\n")
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("checks", ["", ", ,"])
def test_verify_empty_check_selection_rejected(tmp_path, capsys, checks):
    cfg = _verify_config(tmp_path, extra=f"checks = {checks}\n")
    code = main(["verify", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: [verify] checks" in captured.err
    assert "all checks passed" not in captured.out


@pytest.mark.parametrize("target", CHECK_NAMES)
def test_verify_inject_fault_fails(tmp_path, capsys, target):
    cfg = _verify_config(tmp_path)
    code = main(["verify", "--config", str(cfg), "--inject-fault", target])
    captured = capsys.readouterr()
    assert code == 1
    assert f"[FAIL] {target}:" in captured.out
    # the fault reaches its own check only
    for name in CHECK_NAMES:
        if name != target:
            assert f"[PASS] {name}:" in captured.out
    assert "verify: FAILED" in captured.out


# the code under test of each check, as the check calls it
_CODE_UNDER_TEST = {
    "closed_form": (sp4_closed_form, "closed_form_exp"),
    "coefficients": (sp4_closed_form, "coeff_closed"),
    "symplectic": (squeeze_paths, "_squeeze_stack"),
    "two_form": (geometric_phase, "integrate_phase_boundary_form"),
    "invariance": (geometric_phase, "check_canonical_invariance"),
    "b_zero": (geometric_phase, "phase_b_zero"),
    "overlap": (gaussian_states, "numeric_overlap_n1"),
}


@pytest.mark.parametrize("target", CHECK_NAMES)
def test_verify_check_whose_code_raises_is_one_fail_line(tmp_path, monkeypatch, capsys, target):
    def refuse(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(*_CODE_UNDER_TEST[target], refuse)
    code = main(["verify", "--config", str(_verify_config(tmp_path))])
    lines = capsys.readouterr().out.splitlines()
    # overlap draws its squeezes with squeeze_matrix_n1, a stack of one of symplectic's builder
    failing = {target, "overlap"} if target == "symplectic" else {target}
    assert code == 1
    assert [line.split(":")[0] for line in lines[1:-1]] == [
        f"[{'FAIL' if name in failing else 'PASS'}] {name}" for name in CHECK_NAMES
    ]
    assert f"[FAIL] {target}: raised ValueError: injected" in lines
    assert lines[-1] == "verify: FAILED"


def test_verify_budget_exhaustion_still_exits_3(tmp_path, monkeypatch, capsys):
    def exhaust(*args, **kwargs):
        raise QuadratureBudgetExceeded(45, 1e-10, 1.0)

    monkeypatch.setattr(geometric_phase, "integrate_phase_boundary_form", exhaust)
    assert main(["verify", "--config", str(_verify_config(tmp_path, extra="checks = two_form\n"))]) == 3
    assert capsys.readouterr().err.startswith("quadrature budget exhausted: ")


def test_expm_defaults_to_identity(capsys):
    code = main(["expm", "--format", "json"])
    record, _ = _json_out(capsys)
    assert code == 0
    assert record["branch"] == "degenerate-fallback"
    assert record["max_deviation"] == 0.0
    np.testing.assert_array_equal(np.array(record["closed_form"]), np.eye(4))


def test_expm_random_symmetric_blocks(capsys):
    code = main(
        [
            "expm",
            "--block-a=0.3,-0.1,-0.1,0.5",
            "--block-b=0.2,0.7,-0.4,0.1",
            "--block-c=-0.2,0.05,0.05,0.6",
            "--format", "json",
        ]
    )
    record, _ = _json_out(capsys)
    assert code == 0
    assert record["branch"] == "non-degenerate"
    assert record["max_deviation"] <= 1e-9


def test_expm_asymmetric_block_rejected(capsys):
    code = main(["expm", "--block-a", "0,1,0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "symmetric" in captured.err


def _write_circle_samples(path, R=0.5, knots=41, times=None, modes=1, lengths=(1.0,)):
    """Squeeze-circle knots at angles 2 pi t, t uniform unless times is given."""
    ts = np.linspace(0.0, 1.0, knots) if times is None else np.asarray(times, dtype=float)
    Ms = squeeze_circle_path(modes, R, OscParams(1.0, lengths)).eval_batch(ts)
    path.write_text(json.dumps({"n": modes, "t": ts.tolist(), "M": Ms.tolist()}))


def _irregular_times(knots, seed):
    interior = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, knots - 2))
    return np.concatenate([[0.0], interior, [1.0]])


def _custom_record(capsys, samples, *flags):
    args = ["phase", "--kind", "custom-samples", "--samples", str(samples), "--format", "json"]
    code = main(args + list(flags))
    record, err = _json_out(capsys)
    assert (code, err) == (0, "")
    return record


def _geodesic_reference(samples, p):
    """Segment by segment, integrate_phase of M_i expm(s X_i) with its analytic tangent."""
    doc = json.loads(samples.read_text())
    n, Ms = doc["n"], np.array(doc["M"])
    total = 0.0
    for A, B in zip(Ms, Ms[1:]):
        X = np.real(scipy.linalg.logm(np.linalg.solve(A, B)))
        segment = SympPath(
            n=n,
            eval=lambda s, A=A, X=X: SympMatrix(n, A @ scipy.linalg.expm(s * X)),
            tangent=lambda s, A=A, X=X: A @ scipy.linalg.expm(s * X) @ X,
        )
        total += integrate_phase(segment, p).value
    return total


def test_custom_samples_path(tmp_path, capsys):
    samples = tmp_path / "circle.json"
    _write_circle_samples(samples)
    code = main(
        ["phase", "--kind", "custom-samples", "--samples", str(samples), "--format", "json"]
    )
    record, _ = _json_out(capsys)
    assert code == 0
    assert record["kind"] == "custom-samples"
    assert record["R"] is None
    assert record["reference_phase"] is None
    # the geodesic polygon through 41 knots: percent-level accuracy
    assert abs(record["gamma"] - REFERENCE_R05) < 0.02


def test_custom_samples_bad_parameterization(tmp_path, capsys):
    samples = tmp_path / "bad.json"
    samples.write_text(
        json.dumps({"n": 1, "t": [0.0, 0.7, 0.4, 1.0], "M": [np.eye(2).tolist()] * 4})
    )
    code = main(["phase", "--kind", "custom-samples", "--samples", str(samples)])
    assert code == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_custom_samples_missing_file(capsys):
    code = main(["phase", "--kind", "custom-samples", "--samples", "/nonexistent.json"])
    assert code == 2


@pytest.mark.parametrize(
    "R,knots,modes,lengths",
    [(1.0, 33, 1, (1.0,)), (0.7, 32, 1, (1.0,)), (0.8, 65, 2, (0.7, 1.3))],
    ids=["1.0-33-1-lengths0", "0.7-32-1-lengths1", "0.8-65-2-lengths2"],
)
def test_custom_samples_is_exact_geodesic_polygon(tmp_path, capsys, R, knots, modes, lengths):
    samples = tmp_path / "knots.json"
    times = _irregular_times(knots, seed=1) if knots == 32 else None
    _write_circle_samples(samples, R, knots, times, modes, lengths)
    record = _custom_record(capsys, samples, *[f"--length={l}" for l in lengths])
    deviation = abs(record["gamma"] - _geodesic_reference(samples, OscParams(1.0, lengths)))
    assert deviation <= 1e-13
    # the reported bound covers the observed deviation, and is not a bare 0
    assert record["error_estimate"] >= deviation
    assert 0.0 < record["error_estimate"] <= 1e-12
    assert record["evaluations"] == knots - 1


@pytest.mark.parametrize(
    "flags,lengths",
    [
        ([], [1.0, 1.0]),
        (["--length=0.7"], [0.7, 0.7]),
        (["--length=0.7", "--length=1.3"], [0.7, 1.3]),
        (["--length=1.3", "--length=0.7"], [1.3, 0.7]),
    ],
    ids=["default-length", "one-length-every-mode", "one-length-per-mode", "lengths-in-flag-order"],
)
def test_custom_samples_file_fixes_the_mode_count(tmp_path, capsys, flags, lengths):
    samples = tmp_path / "knots.json"
    _write_circle_samples(samples, R=0.8, knots=33, modes=2, lengths=(0.7, 1.3))
    record = _custom_record(capsys, samples, *flags)
    # the record names the modes and lengths the phase was computed with
    assert (record["modes"], record["lengths"]) == (2, lengths)
    knots = [SympMatrix(2, M) for M in json.loads(samples.read_text())["M"]]
    assert record["gamma"] == polygon_phase(knots, OscParams(1.0, lengths)).value


def test_custom_samples_mode_count_disagreement_is_config_error(tmp_path, capsys):
    samples = tmp_path / "knots.json"
    _write_circle_samples(samples, R=0.8, knots=33, modes=2, lengths=(0.7, 1.3))
    lengths = ["--length=0.7", "--length=1.3", "--length=1.1"]
    code = main(["phase", "--kind", "custom-samples", "--samples", str(samples)] + lengths)
    assert code == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: got 3 lengths for 2 mode(s)\n")


def test_custom_samples_knot_times_only_order_the_knots(tmp_path, capsys):
    samples = tmp_path / "knots.json"
    _write_circle_samples(samples, R=0.7, knots=32, times=_irregular_times(32, seed=1))
    irregular = _custom_record(capsys, samples)["gamma"]
    doc = json.loads(samples.read_text())
    doc["t"] = np.linspace(0.0, 1.0, 32).tolist()
    samples.write_text(json.dumps(doc))
    assert abs(_custom_record(capsys, samples)["gamma"] - irregular) <= 1e-13


def test_custom_samples_reversed_knots_flip_the_sign(tmp_path, capsys):
    samples = tmp_path / "knots.json"
    _write_circle_samples(samples, R=1.0, knots=33)
    forward = _custom_record(capsys, samples)["gamma"]
    doc = json.loads(samples.read_text())
    doc["M"] = doc["M"][::-1]
    samples.write_text(json.dumps(doc))
    assert abs(_custom_record(capsys, samples)["gamma"] + forward) <= 1e-13


def _spoil_nan_time(doc):
    doc["t"][3] = float("nan")


def _spoil_nan_first_time(doc):
    doc["t"][0] = float("nan")


def _spoil_nan_last_time(doc):
    doc["t"][-1] = float("nan")


def _spoil_nan_entry(doc):
    doc["M"][2][0][1] = float("nan")


def _spoil_inf_entry(doc):
    doc["M"][2][1][1] = float("inf")


def _spoil_doubled_knot(doc):
    doc["M"][3] = (2.0 * np.eye(2)).tolist()


def _spoil_scaled_knot(doc):
    doc["M"][5] = (1.0001 * np.array(doc["M"][5])).tolist()


_NOT_SYMPLECTIC = "samples do not form a valid symplectic path"


_SPOILS = [
    (_spoil_nan_time, "sample parameters must be strictly increasing"),
    (_spoil_nan_first_time, "sample parameters must start at 0 and end at 1"),
    (_spoil_nan_last_time, "sample parameters must start at 0 and end at 1"),
    (_spoil_nan_entry, _NOT_SYMPLECTIC),
    (_spoil_inf_entry, _NOT_SYMPLECTIC),
    (_spoil_doubled_knot, _NOT_SYMPLECTIC),
    (_spoil_scaled_knot, _NOT_SYMPLECTIC),
]


@pytest.mark.parametrize(
    "spoil,message", _SPOILS, ids=[spoil.__name__[len("_spoil_"):] for spoil, _ in _SPOILS]
)
def test_custom_samples_malformed_file_is_config_error(tmp_path, capsys, spoil, message):
    samples = tmp_path / "bad.json"
    _write_circle_samples(samples, knots=9)
    doc = json.loads(samples.read_text())
    spoil(doc)
    samples.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
    code = main(["phase", "--kind", "custom-samples", "--samples", str(samples)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith(f"config error: {message}")
    assert captured.out == ""


@pytest.mark.parametrize("n", [1.5, True, "2", 0, -1, None])
def test_custom_samples_mode_count_must_be_positive_integer(tmp_path, capsys, n):
    samples = tmp_path / "bad.json"
    samples.write_text(json.dumps({"n": n, "t": [0.0, 1.0], "M": [np.eye(2).tolist()] * 2}))
    code = main(["phase", "--kind", "custom-samples", "--samples", str(samples)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert f"config error: samples file {samples}: n must be a positive integer" in captured.err
    assert captured.out == ""


def test_custom_samples_nonreal_logarithm_is_config_error(tmp_path, capsys):
    samples = tmp_path / "far.json"
    samples.write_text(
        json.dumps({"n": 1, "t": [0.0, 1.0], "M": [np.eye(2).tolist(), (-np.eye(2)).tolist()]})
    )
    code = main(["phase", "--kind", "custom-samples", "--samples", str(samples)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("config error: segment 0: matrix logarithm is not real")


_MODULE = [sys.executable, "-m", "sympberry"]


def _run(command, env):
    return subprocess.run(command, capture_output=True, text=True, timeout=60, env=env)


def test_console_script_smoke(child_env):
    # the installed script when present, else `python -m sympberry`, which runs
    # the same callable: the suite itself needs no install
    exe = shutil.which("sympberry")
    proc = _run(
        ([exe] if exe else _MODULE)
        + ["phase", "--kind", "squeeze1", "--R", "0.5", "--format", "json"],
        child_env,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["gamma"] == pytest.approx(REFERENCE_R05, rel=1e-8)


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["sympberry"] == "sympberry.cli:main"


_GOLDEN = Path(__file__).resolve().parent / "golden"
_RANDOM_BLOCKS = ["--block-a=0.3,-0.2,-0.2,0.5", "--block-b=0.1,0.7,-0.4,0.2", "--block-c=-0.6,0.25,0.25,0.1"]


@pytest.mark.parametrize(
    "args, golden",
    [
        (["verify", "--seed", "0"], "verify_seed0.txt"),
        (["expm", "--format", "csv"], "expm_default.csv"),
        (["expm", "--format", "json"], "expm_default.json"),
        (["expm", "--format", "csv", "--seed", "4"] + _RANDOM_BLOCKS, "expm_random.csv"),
        (["expm", "--format", "json", "--seed", "4"] + _RANDOM_BLOCKS, "expm_random.json"),
        (["phase", "--kind", "squeeze2", "--R", "2", "--hbar", "0.7", "--length", "0.5", "--length", "1.5",
          "--format", "json"], "phase_squeeze2.json"),
        (["phase", "--kind", "squeeze1", "--R", "1", "--format", "csv"], "phase_squeeze1.csv"),
        (["sweep", "--config", str(_GOLDEN / "sweep_grid.ini"), "--format", "csv"], "sweep_grid.csv"),
        (["sweep", "--config", str(_GOLDEN / "sweep_error.ini"), "--format", "json"], "sweep_error.json"),
        (["verify", "--seed", "0", "--inject-fault", "symplectic"], "verify_fault_symplectic.txt"),
        (["verify", "--config", str(_GOLDEN / "verify_bench.ini")], "verify_bench.txt"),
    ],
    ids=[
        "args0-verify_seed0.txt",
        "args1-expm_default.csv",
        "args2-expm_default.json",
        "args3-expm_random.csv",
        "args4-expm_random.json",
        "args5-phase_squeeze2.json",
        "args6-phase_squeeze1.csv",
        "args7-sweep_grid.csv",
        "args8-sweep_error.json",
        "args9-verify_fault_symplectic.txt",
        "args10-verify_bench.txt",
    ],
)
def test_cli_output_matches_its_golden_file(child_env, args, golden):
    # the output pinned line for line: a change to a check's arithmetic must not move a digit;
    # the sweep with an R = 400 row reports that row's error and exits 1, as does the injected fault
    proc = _run(_MODULE + args, child_env)
    failing = golden in ("sweep_error.json", "verify_fault_symplectic.txt")
    assert (proc.returncode, proc.stderr) == (1 if failing else 0, "")
    assert proc.stdout.splitlines() == (_GOLDEN / golden).read_text().splitlines()


def test_module_run_passes_exit_code(tmp_path, child_env):
    missing = tmp_path / "missing.ini"
    proc = _run(_MODULE + ["phase", "--kind", "squeeze1", "--config", str(missing)], child_env)
    assert proc.returncode == EXIT_CONFIG
    assert "config error" in proc.stderr


@pytest.mark.parametrize(
    "command, code, err",
    [
        ("verify", 0, ""),
        ("expm", 0, ""),
        ("phase", 2, "config error: custom-samples paths need a samples file ([path] samples or --samples)\n"),
        ("sweep", 2, "config error: sweep supports the squeeze-circle kinds only\n"),
    ],
)
def test_custom_samples_file_needed_by_phase_only(tmp_path, capsys, command, code, err):
    cfg = tmp_path / "custom.ini"
    cfg.write_text("[path]\nkind = custom-samples\n[verify]\nchecks = symplectic\ncount = 5\n")
    assert main([command, "--config", str(cfg)]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == 0:
        assert captured.out


def test_repeated_main_calls_match_fresh_interpreters(tmp_path, capsys, child_env):
    cfg = _verify_config(tmp_path)
    runs = [
        ["verify", "--config", str(cfg), "--seed", "3"],
        ["phase", "--kind", "no-such-kind"],  # argparse rejects it
        ["phase", "--kind", "squeeze2", "--R", "0.4", "--format", "json"],
        ["verify", "--config", str(cfg), "--seed", "3"],
    ]
    in_process = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [0, 2, 0, 0]
    assert in_process[3] == in_process[0]
    for argv, (code, out) in zip(runs[:3], in_process):
        proc = _run(_MODULE + argv, child_env)
        assert (proc.returncode, proc.stdout) == (code, out)


def test_load_samples_reads_the_mode_count_by_the_shared_integer_rule(tmp_path):
    samples = tmp_path / "knots.json"
    for n, accepted in ((True, False), (1, True)):
        samples.write_text(json.dumps({"n": n, "t": [0.0, 1.0], "M": [np.eye(2).tolist()] * 2}))
        if accepted:
            assert [M.n for M in _load_samples(str(samples))] == [1, 1]
        else:
            with pytest.raises(ConfigError, match="n must be a positive integer, got True"):
                _load_samples(str(samples))


_KNOWN = "known: closed_form, coefficients, symplectic, two_form, invariance, b_zero, overlap"


@pytest.mark.parametrize(
    "argv, ini, message",
    [
        pytest.param(  # a removed key: the kind, or the samples file, fixes the mode count
            ["phase"], "[path]\nmodes = 2\n", "<ini>:2: unknown key 'modes' in [path]", id="path-modes",
        ),
        pytest.param(["phase"], "[path]\nkind = spiral\n", "unknown path kind 'spiral'", id="path-kind"),
        pytest.param(  # a removed key, also for a command that reads no [quadrature]
            ["expm"], "[quadrature]\nkind = adaptive\n", "<ini>:2: unknown key 'kind' in [quadrature]",
            id="quadrature-kind",
        ),
        pytest.param(
            ["phase"], "[output]\nformat = xml\n", "format must be csv or json, got 'xml'",
            id="output-format",
        ),
        pytest.param(["phase", "--R=-1"], None, "magnitude must be finite and >= 0, got -1.0", id="R-flag"),
        pytest.param(
            ["phase"], "[path]\nR = nan\n", "magnitude must be finite and >= 0, got nan",
            id="path-R",
        ),
        pytest.param(
            ["sweep"], "[sweep]\nR = 0.5, -1\n", "magnitude must be finite and >= 0, got -1.0",
            id="sweep-R",
        ),
        pytest.param(
            ["phase", "--hbar", "0"], None, "hbar must be positive and finite, got 0.0",
            id="hbar-flag",
        ),
        pytest.param(
            ["phase", "--length=-1"], None, "lengths must be positive and finite, got -1.0",
            id="length-flag",
        ),
        pytest.param(
            ["phase", "--kind", "squeeze2"], "[path]\nlengths = 1, 2, 3\n", "got 3 lengths for 2 mode(s)",
            id="lengths-per-mode",
        ),
        pytest.param(
            ["phase"], "[quadrature]\nmax_evals = 14\n", "budget must be an integer >= 15 (one panel), got 14",
            id="quadrature-max-evals",
        ),
        pytest.param(  # a removed key
            ["phase"], "[quadrature]\npanels = 64\n", "<ini>:2: unknown key 'panels' in [quadrature]",
            id="quadrature-panels",
        ),
        pytest.param(
            ["sweep", "--R", "1"], "[quadrature]\nkind = fixed\n", "<ini>:2: unknown key 'kind' in [quadrature]",
            id="quadrature-kind-on-sweep",
        ),
        pytest.param(
            ["verify"], "[quadrature]\npanels = 64\n", "<ini>:2: unknown key 'panels' in [quadrature]",
            id="quadrature-panels-on-verify",
        ),
        pytest.param(["verify"], "[verify]\ncount = 0\n", "verify count must be >= 1", id="verify-count"),
        pytest.param(
            ["verify"], "[verify]\ninject_fault = warp\n", f"unknown inject_fault target 'warp'; {_KNOWN}",
            id="verify-inject-fault",
        ),
        pytest.param(
            ["expm", "--block-a=1,2,3"], None, "expm block a: expected 4 numbers row-major, got 3",
            id="expm-block-a-flag",
        ),
        pytest.param(
            ["expm"], "[expm]\nc = 1, 2, 3, 4, 5\n", "expm block c: expected 4 numbers row-major, got 5",
            id="expm-block-c",
        ),
        pytest.param(
            ["sweep"], "[sweep]\nR = 1\nlength = 1\n", "<ini>:3: unknown key 'length' in [sweep]",
            id="sweep-length",
        ),
        pytest.param(
            ["sweep"], "[sweep]\nR = 1\nhbar = 1\n", "<ini>:3: unknown key 'hbar' in [sweep]",
            id="sweep-hbar",
        ),
    ],
)
def test_config_diagnostic_is_one_exact_line(tmp_path, capsys, argv, ini, message):
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
        message = message.replace("<ini>", str(cfg))
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


_ONE_CHECK = "[verify]\nchecks = symplectic\ncount = 2\n"


@pytest.mark.parametrize(
    "argv, ini, code",
    [
        pytest.param(
            ["expm"], "[path]\nkind = spiral\n[quadrature]\ntol = -1\n[sweep]\nR = -1\n", 0,
            id="expm-path-quadrature-sweep",
        ),
        pytest.param(  # still parsed
            ["verify"], _ONE_CHECK + "[path]\nhbar = abc\n", EXIT_CONFIG,
            id="verify-hbar-still-parsed",
        ),
        pytest.param(["verify"], _ONE_CHECK + "[output]\nformat = xml\n", 0, id="verify-format"),
        pytest.param(["phase"], "[verify]\ncount = 0\n", 0, id="phase-verify-count"),
        pytest.param(["phase"], "[sweep]\nR = -1\n", 0, id="phase-sweep-R"),
        pytest.param(["sweep"], "[path]\nR = -1\n[sweep]\nR = 0.5\n", 0, id="sweep-path-R"),
    ],
)
def test_a_command_checks_only_the_settings_it_reads(tmp_path, capsys, argv, ini, code):
    # [path] and [quadrature] are range-checked for phase and sweep, which read them, except
    # [path] R, which sweep does not read; [sweep] R for sweep, [verify] for verify, and the
    # format for the commands that emit a record
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "config error: [path] hbar: expected a number, got 'abc'\n")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "--hbar", "-1"], id="verify-hbar-flag"),
        pytest.param(["expm", "--R", "nan"], id="expm-R-flag"),
        pytest.param(["verify", "--length", "1", "--length", "2"], id="verify-length-flags"),
        pytest.param(["expm", "--tol", "0"], id="expm-tol-flag"),
        pytest.param(["verify", "--format", "csv"], id="verify-format-flag"),
        pytest.param(["expm", "--hbar", "2"], id="expm-hbar-flag"),
        pytest.param(["phase", "--modes", "2"], id="phase-modes-flag"),
    ],
)
def test_a_command_refuses_the_flags_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # argparse's usage error
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}\n")


_FLAGS = {
    "phase": "--config --seed --format --out --R --hbar --length --tol --kind --samples",
    "sweep": "--config --seed --format --out --R --hbar --length --tol --kind",
    "verify": "--config --seed --out --inject-fault",
    "expm": "--config --seed --format --out --block-a --block-b --block-c",
}


def test_each_command_offers_the_flags_of_the_settings_it_reads():
    (commands,) = [a for a in cli._make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        name: sorted(opt for a in sub._actions for opt in a.option_strings if opt not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert offered == {name: sorted(flags.split()) for name, flags in _FLAGS.items()}


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config file {cfg}: [Errno 2] No such file or directory: '{cfg}'"),
        ("R = 1\n", "cannot parse {cfg}: File contains no section headers.\nfile: '{cfg}', line: 1\n'R = 1\\n'"),
        ("[path]\nR = 1\nR = 2\n", "cannot parse {cfg}: While reading from '{cfg}' [line  3]: option 'R' "
         "in section 'path' already exists"),
    ],
)
def test_unreadable_config_file_is_config_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.ini"
    if text is not None:
        cfg.write_text(text)
    assert main(["phase", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message.format(cfg=cfg)}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "samples file {path} is not valid JSON: Expecting property name enclosed in "
         "double quotes: line 1 column 2 (char 1)"),
        ('{"n": 1, "M": []}', "samples file {path} needs keys n, t, M"),
        ('{"n": 1, "t": [0, "x"], "M": []}', "samples file {path} needs keys n, t, M"),
        ('{"n": 1, "t": [0.0], "M": [[[1, 0], [0, 1]]]}', "samples need at least two parameter values"),
        ('{"n": 1, "t": [[0.0, 1.0]], "M": []}', "samples need at least two parameter values"),
        ('{"n": 1, "t": [0.0, 1.0], "M": [[[1, 0], [0, 1]]]}',
         "samples matrix block has shape (1, 2, 2), expected (2, 2, 2)"),
        ('{"n": 2, "t": [0.0, 1.0], "M": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}',
         "samples matrix block has shape (2, 2, 2), expected (2, 4, 4)"),
    ],
)
def test_malformed_samples_file_is_one_config_error(tmp_path, capsys, text, message):
    samples = tmp_path / "knots.json"
    samples.write_text(text)
    assert main(["phase", "--kind", "custom-samples", "--samples", str(samples)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message.format(path=samples)}\n")


def test_failed_write_propagates_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    # an OSError is a target the file system refuses, a config error; anything else propagates
    def refuse(src, dst):
        raise OSError("rename refused")

    def interrupt(src, dst):
        raise KeyboardInterrupt

    argv = ["phase", "--R", "0.5", "--out", str(tmp_path / "phase.json")]
    monkeypatch.setattr(os, "replace", refuse)
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: cannot write {argv[-1]}: rename refused\n")
    assert os.listdir(tmp_path) == []
    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name", ["phase%1.json", "phase%(x)s.json", "phase%(format)s.json"])
def test_config_values_are_literal_percent_included(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    cfg = tmp_path / "run.ini"  # %(format)s names a key of its section, and stays as written
    cfg.write_text(f"[path]\nR = 0.5\n[output]\nformat = json\nout = {name}\n")
    assert main(["phase", "--config", str(cfg)]) == 0
    assert capsys.readouterr() == ("", "")
    assert json.loads((tmp_path / name).read_text())["R"] == 0.5


@pytest.mark.parametrize(
    "argv, ini",
    [
        pytest.param(["phase"], "[DEFAULT]\nbogus = 1\n", id="default-alone"),
        pytest.param(["phase"], "[DEFAULT]\nR = 2\n[path]\nkind = squeeze1\n", id="default-before-path"),
        pytest.param(
            ["verify"], "[DEFAULT]\nR = 2\n[path]\nkind = squeeze1\n[verify]\ncount = 5\n",
            id="default-before-path-and-verify",
        ),
    ],
)
def test_config_default_section_is_an_unknown_section(tmp_path, capsys, argv, ini):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {cfg}:1: unknown section [DEFAULT]\n")


@pytest.mark.parametrize("header", ["[ path ]", "[path ]"])
def test_config_header_with_inner_spaces_names_its_line(tmp_path, capsys, header):
    # configparser keeps the spaces, so the header names an unknown section
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nseed = 0\n{header}\nR = 1\n")
    assert main(["phase", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {cfg}:3: unknown section {header}\n")


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--block-a=nan,0,0,1", "block a contains non-finite entries"),
        ("--block-b=inf,0,0,1", "block b contains non-finite entries"),
        ("--block-a=1e200,0,0,1", "the eigenvalues of S overflow the float range"),
        ("--block-b=1e200,0,0,1e200", "the eigenvalues of S overflow the float range"),
        # halved before the symmetrizing sum, which would overflow, so no warning comes first
        ("--block-a=1e308,1e308,1e308,1e308", "the eigenvalues of S overflow the float range"),
    ],
)
def test_expm_non_finite_or_overflowing_block_is_one_config_error_line(capsys, flag, message):
    assert main(["expm", flag]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("command", ["verify", "phase"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_seed_is_one_config_error_line(tmp_path, capsys, command, source):
    if source == "flag":
        argv = [command, "--seed", "-1"]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nseed = -1\n")
        argv = [command, "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: seed must be a non-negative integer, got -1\n")


def test_setting_declarations_and_parser_option_dests_agree():
    declared = [f.metadata for f in dataclasses.fields(cli.RunConfig) if f.metadata]
    (commands,) = [a for a in cli._make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sub in commands.choices.values() for a in sub._actions} - {"help", "config"}
    assert {setting["flag"] for setting in declared} - {None} == dests
    wheres = [setting["where"] for setting in declared]
    assert len(set(wheres)) == len(wheres) == len(cli._SETTINGS)


def test_readme_settings_table_matches_the_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Every setting, with the flag that overrides it")[1].split("\n\n")[1]
    flags = {}
    for row in table.splitlines()[2:]:
        section, keys, flag = (cell.strip() for cell in row.strip("|").split("|")[:3])
        for key in keys.split(","):
            where = (section.strip("`[]"), key.strip(" `"))
            assert where not in flags, f"{where} listed twice"
            flags[where] = flag
    assert sorted(flags) == sorted(cli._SETTINGS)
    for where, (_, _, dest) in cli._SETTINGS.items():
        if dest is not None:
            assert f"`--{dest.replace('_', '-')}`" in flags[where]
        elif where != ("sweep", "R"):  # build_config's special case: --R on sweep sets the grid
            assert flags[where] == "-"


def test_readme_example_config_runs_as_a_sweep(tmp_path, capsys):
    # a key removed from the code but left in the README's example fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example config:")[1].split("```ini\n")[1].split("```")[0]
    cfg = tmp_path / "example.ini"
    cfg.write_text(example)
    assert main(["sweep", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    header, *rows = out.splitlines()
    assert err == ""
    assert header == "R,hbar,l1,gamma_quadrature,gamma_reference,deviation,status,seed"
    assert [float(row.split(",")[0]) for row in rows] == [0.25, 0.5, 1.0, 2.0]
    assert all(row.split(",")[6] == "ok" for row in rows)
