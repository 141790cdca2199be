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

from sympberry import (
    OscParams,
    SympMatrix,
    SympPath,
    cli,
    integrate_phase,
    polygon_phase,
    squeeze_circle_path,
)
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


_NUMERIC_PARSERS = (cli._int, cli._float, cli._floats, cli._grid)


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


@pytest.mark.parametrize("kind", ["squeeze1", "squeeze2"])
def test_phase_circle_failing_its_check_is_config_error(capsys, kind):
    # from about R = 7 the circle's samples fail the symplectic check in floating point
    code = main(["phase", "--kind", kind, "--R", "8"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("config error: sample at t=")
    assert "fails the symplectic condition" in captured.err


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


@pytest.mark.parametrize("axis,value", [("hbar", "nan"), ("hbar", "inf"), ("length", "inf")])
def test_sweep_nonfinite_grid_value_is_config_error(tmp_path, capsys, axis, value):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(f"[path]\nkind = squeeze1\n[sweep]\nR = 1.0\n{axis} = 1.0, {value}\n")
    code = main(["sweep", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: sweep {axis} values must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", [",", ", ;"])
@pytest.mark.parametrize(
    "section,key", [("sweep", "R"), ("sweep", "hbar"), ("sweep", "length"), ("path", "lengths")]
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


def test_sweep_empty_hbar_and_length_use_scalars(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[path]\nkind = squeeze1\nhbar = 2\nlengths = 3\n[sweep]\nR = 1.0\nhbar =\nlength =\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert (cols["R"], cols["hbar"], cols["l1"], cols["status"]) == ("1", "2", "3", "ok")


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
)
def test_custom_samples_is_exact_geodesic_polygon(tmp_path, capsys, R, knots, modes, lengths):
    samples = tmp_path / "knots.json"
    times = _irregular_times(knots, seed=1) if knots == 32 else None
    _write_circle_samples(samples, R, knots, times, modes, lengths)
    flags = ["--modes", str(modes)] + [f"--length={l}" for l in lengths]
    record = _custom_record(capsys, samples, *flags)
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
        (["--modes", "2", "--length=1.3", "--length=0.7"], [1.3, 0.7]),
    ],
)
def test_custom_samples_file_fixes_the_mode_count(tmp_path, capsys, flags, lengths):
    samples = tmp_path / "knots.json"
    _write_circle_samples(samples, R=0.8, knots=33, modes=2, lengths=(0.7, 1.3))
    record = _custom_record(capsys, samples, *flags)
    # the record names the modes and lengths the phase was computed with
    assert (record["modes"], record["lengths"]) == (2, lengths)
    knots = [SympMatrix(2, M) for M in json.loads(samples.read_text())["M"]]
    assert record["gamma"] == polygon_phase(knots, OscParams(1.0, lengths)).value


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--modes", "1"], "samples declare n=2, config modes=1"),
        (["--length=0.7", "--length=1.3", "--length=1.1"], "got 3 lengths for 2 mode(s)"),
    ],
)
def test_custom_samples_mode_count_disagreement_is_config_error(tmp_path, capsys, flags, message):
    samples = tmp_path / "knots.json"
    _write_circle_samples(samples, R=0.8, knots=33, modes=2, lengths=(0.7, 1.3))
    code = main(["phase", "--kind", "custom-samples", "--samples", str(samples)] + flags)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


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
