"""Command-line interface: configs, outputs, exit codes, verify checks."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sympberry.cli import CHECK_NAMES, EXIT_CONFIG, main

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
    code = main(["phase", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err


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
    cfg.write_text(
        "[path]\nkind = squeeze1\n[sweep]\nR = 0.5, 1.0\nhbar = 1.0, 2.0\nlength = 1.0\n"
    )
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,hbar,l1,gamma_quadrature,gamma_reference,deviation,status,seed"
    assert len(lines) == 1 + 4  # 2 R values x 2 hbar values x 1 length
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-2] == "ok"
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


@pytest.mark.parametrize("target", ["closed_form", "two_form", "overlap"])
def test_verify_inject_fault_fails(tmp_path, capsys, target):
    cfg = _verify_config(tmp_path)
    code = main(["verify", "--config", str(cfg), "--inject-fault", target])
    captured = capsys.readouterr()
    assert code == 1
    assert f"[FAIL] {target}:" in captured.out
    assert "verify: FAILED" in captured.out


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


def _write_circle_samples(path, R=0.5, knots=41):
    ts = np.linspace(0.0, 1.0, knots)
    ch, sh = np.cosh(R), np.sinh(R)
    mats = []
    for t in ts:
        th = 2.0 * np.pi * t
        mats.append(
            [
                [ch - np.cos(th) * sh, -np.sin(th) * sh],
                [-np.sin(th) * sh, ch + np.cos(th) * sh],
            ]
        )
    path.write_text(json.dumps({"n": 1, "t": ts.tolist(), "M": mats}))


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
    # piecewise-geodesic interpolation through 41 knots: percent-level accuracy
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


def test_module_run_passes_exit_code(tmp_path, child_env):
    missing = tmp_path / "missing.ini"
    proc = _run(_MODULE + ["phase", "--kind", "squeeze1", "--config", str(missing)], child_env)
    assert proc.returncode == EXIT_CONFIG
    assert "config error" in proc.stderr
