"""Command-line front end.

Subcommands:

* phase   compute the geometric phase of one configured path
* sweep   tabulate phases over a parameter grid as CSV or JSON
* verify  run the internal oracle suites and report pass/fail per check
* expm    compare the closed-form 4x4 exponential against the generic one

Settings come from flags, an INI-style config file (--config), or defaults,
in that precedence order. Output goes to stdout or, with --out, to a file
written atomically (temp file plus rename; failures leave nothing behind).
A relative --out is placed under $SYMPBERRY_OUT_DIR when that is set.

Exit codes: 0 success, 1 failed verify check or failed sweep row, 2 config
error, 3 quadrature budget exhausted.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import os
import sys
import tempfile
from typing import Callable, Sequence

import numpy as np

from ._quadrature import QuadratureBudgetExceeded
from ._random import random_generator, random_symmetric, random_symplectic
from .gaussian_states import OscParams, numeric_overlap_n1, weyl_amplitude
from .geometric_phase import (
    ADAPTIVE,
    FIXED,
    PhaseResult,
    QuadSpec,
    SympPath,
    check_canonical_invariance,
    integrate_phase,
    integrate_phase_boundary_form,
    phase_b_zero,
)
from .sp4_closed_form import (
    DegenerateEigenvalues,
    Sp4Generator,
    coeff_closed,
    coeff_recurrence,
    closed_form_exp,
)
from .squeeze_paths import (
    SqueezeSpec,
    squeeze_circle_path,
    squeeze_matrix_n1,
    squeeze_matrix_n2,
    reference_phase,
)
from .symplectic_core import GROUPED, SympMatrix, symplectic_residual

__all__ = ["ConfigError", "RunConfig", "run_phase", "run_sweep", "run_verify", "run_expm", "main"]

OUT_DIR_ENV = "SYMPBERRY_OUT_DIR"
RNG_NAME = "PCG64"  # numpy default_rng backend

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

KIND_SQUEEZE1 = "squeeze1"
KIND_SQUEEZE2 = "squeeze2"
KIND_CUSTOM = "custom-samples"
_KINDS = (KIND_SQUEEZE1, KIND_SQUEEZE2, KIND_CUSTOM)

CHECK_NAMES = (
    "closed_form",
    "coefficients",
    "symplectic",
    "two_form",
    "invariance",
    "b_zero",
    "overlap",
)

# config-file schema: section -> allowed keys
_SCHEMA = {
    "run": {"seed"},
    "path": {"kind", "modes", "R", "hbar", "lengths", "samples"},
    "quadrature": {"kind", "tol", "max_evals", "panels"},
    "output": {"format", "out"},
    "sweep": {"R", "hbar", "length"},
    "expm": {"a", "b", "c"},
    "verify": {"count", "checks", "inject_fault"},
}

_FAULT_SIZE = 1e-3  # negative-control perturbation for verify --inject-fault


class ConfigError(ValueError):
    """Bad configuration; maps to exit code 2."""


@dataclasses.dataclass
class RunConfig:
    """Resolved settings for one CLI run (flags > config file > defaults)."""

    command: str
    kind: str = KIND_SQUEEZE1
    modes: int = 1
    R: float = 1.0
    hbar: float = 1.0
    lengths: tuple[float, ...] = (1.0,)
    samples: str | None = None
    quad_kind: str = ADAPTIVE
    tol: float = 1e-10
    max_evals: int = 10**6
    panels: int = 64
    seed: int = 0
    format: str = "json"
    out: str | None = None
    sweep_R: tuple[float, ...] = ()
    sweep_hbar: tuple[float, ...] | None = None
    sweep_length: tuple[float, ...] | None = None
    expm_a: np.ndarray | None = None
    expm_b: np.ndarray | None = None
    expm_c: np.ndarray | None = None
    verify_count: int = 200
    verify_checks: tuple[str, ...] = CHECK_NAMES
    inject_fault: str | None = None

    def quad(self) -> QuadSpec:
        return QuadSpec(
            kind=self.quad_kind, tol=self.tol, max_evals=self.max_evals, panels=self.panels
        )

    def osc_params(self) -> OscParams:
        return OscParams(hbar=self.hbar, lengths=self.lengths)


# ---------------------------------------------------------------------------
# config parsing


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}") from exc


def _key_line(lines: Sequence[str], section: str, key: str | None) -> int | None:
    """Best-effort line number of a section header or of a key inside it."""
    in_section = False
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            if in_section and key is not None:
                return None
            in_section = line[1:-1].strip() == section
            if in_section and key is None:
                return i
        elif in_section and key is not None:
            name = line.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return i
    return None


def _parse_config_file(path: str) -> dict[str, dict[str, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    lines = text.splitlines()
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive (R vs r)
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    out: dict[str, dict[str, str]] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            where = _key_line(lines, section, None)
            loc = f"{path}:{where}: " if where else f"{path}: "
            raise ConfigError(f"{loc}unknown section [{section}]")
        out[section] = {}
        for key, value in cp.items(section):
            if key not in _SCHEMA[section]:
                where = _key_line(lines, section, key)
                loc = f"{path}:{where}: " if where else f"{path}: "
                raise ConfigError(f"{loc}unknown key {key!r} in [{section}]")
            out[section][key] = value
    return out


def _pick(flag, filed, default):
    if flag is not None:
        return flag
    if filed is not None:
        return filed
    return default


def _file_get(filecfg: dict[str, dict[str, str]], section: str, key: str) -> str | None:
    return filecfg.get(section, {}).get(key)


def _parse_block(text: str, name: str) -> np.ndarray:
    vals = _parse_floats(text, f"expm block {name}")
    if len(vals) != 4:
        raise ConfigError(f"expm block {name}: expected 4 numbers row-major, got {len(vals)}")
    return np.array(vals, dtype=float).reshape(2, 2)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags, optional config file, and defaults into a RunConfig."""
    filecfg = _parse_config_file(args.config) if args.config else {}

    kind_file = _file_get(filecfg, "path", "kind")
    modes_file = _file_get(filecfg, "path", "modes")
    kind = _pick(getattr(args, "kind", None), kind_file, None)
    modes = _pick(getattr(args, "modes", None), int(modes_file) if modes_file else None, None)
    if kind is None:
        kind = KIND_SQUEEZE2 if modes == 2 else KIND_SQUEEZE1
    if kind not in _KINDS:
        raise ConfigError(f"unknown path kind {kind!r}")
    if modes is None:
        modes = 2 if kind == KIND_SQUEEZE2 else 1
    if kind == KIND_SQUEEZE1 and modes != 1:
        raise ConfigError(f"kind {kind} requires modes=1, got {modes}")
    if kind == KIND_SQUEEZE2 and modes != 2:
        raise ConfigError(f"kind {kind} requires modes=2, got {modes}")
    if modes not in (1, 2):
        raise ConfigError(f"modes must be 1 or 2, got {modes}")

    def file_float(section: str, key: str) -> float | None:
        raw = _file_get(filecfg, section, key)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from exc

    def file_int(section: str, key: str) -> int | None:
        raw = _file_get(filecfg, section, key)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from exc

    R = _pick(getattr(args, "R", None), file_float("path", "R"), 1.0)
    hbar = _pick(getattr(args, "hbar", None), file_float("path", "hbar"), 1.0)

    lengths_file = _file_get(filecfg, "path", "lengths")
    lengths_flag = getattr(args, "length", None)
    if lengths_flag:
        lengths = tuple(float(x) for x in lengths_flag)
    elif lengths_file is not None:
        lengths = _parse_floats(lengths_file, "[path] lengths")
    else:
        lengths = (1.0,) * modes
    if len(lengths) == 1 and modes == 2:
        lengths = (lengths[0], lengths[0])
    if len(lengths) != modes:
        raise ConfigError(f"got {len(lengths)} lengths for {modes} mode(s)")

    quad_kind = _pick(None, _file_get(filecfg, "quadrature", "kind"), ADAPTIVE)
    if quad_kind not in (ADAPTIVE, FIXED):
        raise ConfigError(f"[quadrature] kind must be adaptive or fixed, got {quad_kind!r}")
    tol = _pick(getattr(args, "tol", None), file_float("quadrature", "tol"), 1e-10)
    max_evals = _pick(None, file_int("quadrature", "max_evals"), 10**6)
    panels = _pick(None, file_int("quadrature", "panels"), 64)
    seed = _pick(getattr(args, "seed", None), file_int("run", "seed"), 0)

    default_format = "csv" if args.command == "sweep" else "json"
    fmt = _pick(getattr(args, "format", None), _file_get(filecfg, "output", "format"), default_format)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    out = _pick(getattr(args, "out", None), _file_get(filecfg, "output", "out"), None)

    samples = _pick(getattr(args, "samples", None), _file_get(filecfg, "path", "samples"), None)
    if kind == KIND_CUSTOM and samples is None:
        raise ConfigError("custom-samples paths need a samples file ([path] samples or --samples)")

    sweep_R_file = _file_get(filecfg, "sweep", "R")
    if sweep_R_file is not None:
        sweep_R = _parse_floats(sweep_R_file, "[sweep] R")
    elif args.command == "sweep" and getattr(args, "R", None) is not None:
        sweep_R = (args.R,)
    else:
        sweep_R = ()
    sweep_hbar_file = _file_get(filecfg, "sweep", "hbar")
    sweep_hbar = _parse_floats(sweep_hbar_file, "[sweep] hbar") if sweep_hbar_file else None
    sweep_len_file = _file_get(filecfg, "sweep", "length")
    sweep_length = _parse_floats(sweep_len_file, "[sweep] length") if sweep_len_file else None

    def block(flag_name: str, key: str) -> np.ndarray | None:
        raw = _pick(getattr(args, flag_name, None), _file_get(filecfg, "expm", key), None)
        return _parse_block(raw, key) if raw is not None else None

    expm_a = block("block_a", "a")
    expm_b = block("block_b", "b")
    expm_c = block("block_c", "c")

    verify_count = _pick(None, file_int("verify", "count"), 200)
    checks_file = _file_get(filecfg, "verify", "checks")
    if checks_file is not None:
        verify_checks = tuple(tok.strip() for tok in checks_file.split(",") if tok.strip())
    else:
        verify_checks = CHECK_NAMES
    inject = _pick(getattr(args, "inject_fault", None), _file_get(filecfg, "verify", "inject_fault"), None)

    cfg = RunConfig(
        command=args.command,
        kind=kind,
        modes=modes,
        R=float(R),
        hbar=float(hbar),
        lengths=lengths,
        samples=samples,
        quad_kind=quad_kind,
        tol=float(tol),
        max_evals=int(max_evals),
        panels=int(panels),
        seed=int(seed),
        format=fmt,
        out=out,
        sweep_R=sweep_R,
        sweep_hbar=sweep_hbar,
        sweep_length=sweep_length,
        expm_a=expm_a,
        expm_b=expm_b,
        expm_c=expm_c,
        verify_count=int(verify_count),
        verify_checks=verify_checks,
        inject_fault=inject,
    )
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if not cfg.tol > 0:
        raise ConfigError(f"tolerance must be positive, got {cfg.tol}")
    if not (np.isfinite(cfg.R) and cfg.R >= 0):
        raise ConfigError(f"R must be finite and >= 0, got {cfg.R}")
    if any(not (np.isfinite(v) and v >= 0) for v in cfg.sweep_R):
        raise ConfigError("sweep R values must be finite and >= 0")
    if not (np.isfinite(cfg.hbar) and cfg.hbar > 0):
        raise ConfigError(f"hbar must be positive, got {cfg.hbar}")
    if any(not (np.isfinite(l) and l > 0) for l in cfg.lengths):
        raise ConfigError(f"lengths must be positive, got {cfg.lengths}")
    if cfg.max_evals < 15:
        raise ConfigError("max_evals must allow at least one panel (15)")
    if cfg.panels < 1:
        raise ConfigError("panels must be >= 1")
    if cfg.verify_count < 1:
        raise ConfigError("verify count must be >= 1")
    for name in cfg.verify_checks:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown verify check {name!r}; known: {', '.join(CHECK_NAMES)}")
    if cfg.inject_fault is not None and cfg.inject_fault not in CHECK_NAMES:
        raise ConfigError(
            f"unknown inject_fault target {cfg.inject_fault!r}; known: {', '.join(CHECK_NAMES)}"
        )
    if cfg.sweep_hbar is not None and any(h <= 0 for h in cfg.sweep_hbar):
        raise ConfigError("sweep hbar values must be positive")
    if cfg.sweep_length is not None and any(l <= 0 for l in cfg.sweep_length):
        raise ConfigError("sweep length values must be positive")


# ---------------------------------------------------------------------------
# output plumbing


def _resolve_out(out: str | None) -> str | None:
    if out is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _emit(text: str, out: str | None) -> None:
    """Print to stdout, or write atomically to a file (no partial files)."""
    target = _resolve_out(out)
    if target is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(target))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sympberry-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _json_text(record) -> str:
    return json.dumps(record, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_float(value)


# ---------------------------------------------------------------------------
# path construction


def _load_samples(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read samples file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"samples file {path} is not valid JSON: {exc}") from exc
    try:
        n = int(doc["n"])
        ts = np.asarray(doc["t"], dtype=float)
        Ms = np.asarray(doc["M"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"samples file {path} needs keys n, t, M") from exc
    if ts.ndim != 1 or len(ts) < 2:
        raise ConfigError("samples need at least two parameter values")
    if Ms.shape != (len(ts), 2 * n, 2 * n):
        raise ConfigError(
            f"samples matrix block has shape {Ms.shape}, expected {(len(ts), 2 * n, 2 * n)}"
        )
    if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
        raise ConfigError("sample parameters must start at 0 and end at 1")
    if np.any(np.diff(ts) <= 0):
        raise ConfigError("sample parameters must be strictly increasing")
    return n, ts, Ms


def _custom_path(cfg: RunConfig) -> SympPath:
    """Piecewise-geodesic interpolation through user-supplied matrices.

    Segment i follows M_i expm(s log(M_i^{-1} M_{i+1})), s in [0, 1]; knots
    are reproduced exactly and intermediate points stay close to the group
    for well-separated samples.
    """
    import scipy.linalg

    n, ts, Ms = _load_samples(cfg.samples)
    if n != cfg.modes and cfg.modes != 1:
        raise ConfigError(f"samples declare n={n}, config modes={cfg.modes}")
    logs = []
    for i in range(len(ts) - 1):
        ratio = np.linalg.solve(Ms[i], Ms[i + 1])
        log = scipy.linalg.logm(ratio)
        if np.max(np.abs(np.imag(log))) > 1e-8:
            raise ConfigError(
                f"segment {i}: matrix logarithm is not real; samples are too "
                f"far apart or leave the real group"
            )
        logs.append(np.real(log))
    closed = bool(np.max(np.abs(Ms[-1] - Ms[0])) <= 1e-10)

    def eval_path(t: float) -> SympMatrix:
        t = min(max(float(t), 0.0), 1.0)
        i = int(np.searchsorted(ts, t, side="right") - 1)
        i = min(max(i, 0), len(ts) - 2)
        frac = (t - ts[i]) / (ts[i + 1] - ts[i])
        data = Ms[i] @ scipy.linalg.expm(frac * logs[i])
        return SympMatrix(n, data, GROUPED, 1e-8)

    try:
        return SympPath(n=n, eval=eval_path, tangent=None, closed=closed)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"samples do not form a valid symplectic path: {exc}") from exc


def _build_path(cfg: RunConfig) -> SympPath:
    if cfg.kind == KIND_CUSTOM:
        return _custom_path(cfg)
    return squeeze_circle_path(cfg.modes, cfg.R, cfg.osc_params())


# ---------------------------------------------------------------------------
# phase


def _phase_record(cfg: RunConfig, result: PhaseResult) -> dict:
    record = {
        "kind": cfg.kind,
        "modes": cfg.modes,
        "R": None if cfg.kind == KIND_CUSTOM else cfg.R,
        "hbar": cfg.hbar,
        "lengths": list(cfg.lengths),
        "tol": cfg.tol,
        "rng": RNG_NAME,
        "seed": cfg.seed,
        "gamma": result.value,
        "error_estimate": result.error_estimate,
        "evaluations": result.evaluations,
        "reference_phase": None,
        "abs_deviation": None,
    }
    if cfg.kind != KIND_CUSTOM:
        ref = reference_phase(cfg.modes, cfg.R)
        record["reference_phase"] = ref
        record["abs_deviation"] = abs(result.value - ref)
    return record


_PHASE_COLUMNS = (
    "kind",
    "modes",
    "R",
    "hbar",
    "lengths",
    "tol",
    "seed",
    "gamma",
    "error_estimate",
    "evaluations",
    "reference_phase",
    "abs_deviation",
)


def run_phase(cfg: RunConfig) -> int:
    """Compute one phase and emit the report record."""
    path = _build_path(cfg)
    if cfg.kind == KIND_CUSTOM:
        # the samples file fixes the mode count; lengths follow it
        lengths = cfg.lengths if len(cfg.lengths) == path.n else (cfg.lengths[0],) * path.n
        p = OscParams(cfg.hbar, lengths)
    else:
        p = cfg.osc_params()
    result = integrate_phase(path, p, cfg.quad())
    record = _phase_record(cfg, result)
    if cfg.format == "json":
        _emit(_json_text(record), cfg.out)
    else:
        row = []
        for col in _PHASE_COLUMNS:
            if col == "lengths":
                row.append(";".join(_fmt_float(l) for l in record["lengths"]))
            else:
                row.append(_cell(record[col]))
        _emit(_csv_table(_PHASE_COLUMNS, [row]), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def run_sweep(cfg: RunConfig) -> int:
    """Tabulate phases over the (R, hbar, length) grid in lexicographic order."""
    if cfg.kind == KIND_CUSTOM:
        raise ConfigError("sweep supports the squeeze-circle kinds only")
    hbar_grid = cfg.sweep_hbar if cfg.sweep_hbar is not None else (cfg.hbar,)
    length_grid = cfg.sweep_length if cfg.sweep_length is not None else (cfg.lengths[0],)
    header = ["R", "hbar"] + [f"l{j + 1}" for j in range(cfg.modes)] + [
        "gamma_quadrature",
        "gamma_reference",
        "deviation",
        "status",
        "seed",
    ]
    rows: list[list[str]] = []
    records: list[dict] = []
    any_failed = False
    for R in cfg.sweep_R:
        for hbar in hbar_grid:
            for length in length_grid:
                lengths = (length,) * cfg.modes
                ref = reference_phase(cfg.modes, R)
                record = {
                    "R": R,
                    "hbar": hbar,
                    **{f"l{j + 1}": lengths[j] for j in range(cfg.modes)},
                    "gamma_quadrature": None,
                    "gamma_reference": ref,
                    "deviation": None,
                    "status": "ok",
                    "seed": cfg.seed,
                }
                try:
                    if R < 0:
                        raise ConfigError(f"R must be >= 0, got {R}")
                    path = squeeze_circle_path(cfg.modes, R, OscParams(hbar, lengths))
                    result = integrate_phase(path, OscParams(hbar, lengths), cfg.quad())
                    record["gamma_quadrature"] = result.value
                    record["deviation"] = abs(result.value - ref)
                except (QuadratureBudgetExceeded, ConfigError, ValueError) as exc:
                    record["status"] = f"error:{type(exc).__name__}"
                    any_failed = True
                records.append(record)
                rows.append([_cell(record[col]) for col in header])
    if cfg.format == "json":
        _emit(_json_text({"rng": RNG_NAME, "seed": cfg.seed, "rows": records}), cfg.out)
    else:
        _emit(_csv_table(header, rows), cfg.out)
    return EXIT_FAILED if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check_closed_form(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    import scipy.linalg

    worst = 0.0
    n_degenerate = max(20, count // 5)
    for i in range(count + n_degenerate):
        if i < count:
            g = random_generator(rng)
        else:
            # a = c = 0 forces the degenerate eigenvalue pair
            g = Sp4Generator(a=np.zeros((2, 2)), b=rng.uniform(-1, 1, size=(2, 2)), c=np.zeros((2, 2)))
        g_used = g
        if fault and i == 0:
            g_used = Sp4Generator(a=g.a, b=g.b + _FAULT_SIZE, c=g.c)
        M = closed_form_exp(g_used)
        generic = scipy.linalg.expm(g.u_matrix())
        worst = max(worst, float(np.max(np.abs(M.data - generic))))
    return worst, 1e-9


def _check_coefficients(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    done = 0
    while done < count:
        g = random_generator(rng)
        g_used = g
        if fault and done == 0:
            g_used = Sp4Generator(a=g.a, b=g.b + _FAULT_SIZE, c=g.c)
        try:
            for order in range(1, 11):
                exact = coeff_recurrence(g, order)
                closed = coeff_closed(g_used, order)
                for x, y in zip(exact, closed):
                    worst = max(worst, abs(x - y) / max(1.0, abs(x)))
        except DegenerateEigenvalues:
            continue
        done += 1
    return worst, 1e-9


def _check_symplectic(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    p1 = OscParams(1.0, (1.0,))
    p2 = OscParams(1.0, (1.0, 1.0))
    for i in range(count):
        r = rng.uniform(0.0, 2.0)
        th = rng.uniform(0.0, 2.0 * np.pi)
        M1 = squeeze_matrix_n1(SqueezeSpec(1, r, th, p1)).data
        M2 = squeeze_matrix_n2(SqueezeSpec(2, r, th, p2)).data
        M3 = random_symplectic(rng, 1).data
        M4 = random_symplectic(rng, 2).data
        if fault and i == 0:
            M1 = M1 + _FAULT_SIZE
        worst = max(
            worst,
            symplectic_residual(M1),
            symplectic_residual(M2),
            symplectic_residual(M3),
            symplectic_residual(M4),
        )
    return worst, 1e-9


def _check_two_form(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    del rng, count  # deterministic check
    worst = 0.0
    for modes in (1, 2):
        p = OscParams(1.0, (1.0,) * modes)
        R = 1.0 + (_FAULT_SIZE if fault else 0.0)
        direct = integrate_phase(squeeze_circle_path(modes, 1.0, p), p)
        boundary = integrate_phase_boundary_form(squeeze_circle_path(modes, R, p), p)
        worst = max(worst, abs(direct.value - boundary.value))
    return worst, 1e-9


def _check_invariance(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    p = OscParams(1.0, (1.0,))
    path = squeeze_circle_path(1, 1.0 + (_FAULT_SIZE if fault else 0.0), p)
    base = squeeze_circle_path(1, 1.0, p)
    gamma0 = integrate_phase(base, p).value
    for _ in range(min(count, 5)):
        S0 = random_symplectic(rng, 1)
        _, translated, _ = check_canonical_invariance(path, S0, p)
        worst = max(worst, abs(translated - gamma0))
    return worst, 1e-8


def _b_zero_pair(rng: np.random.Generator, fault: bool) -> tuple[SympPath, SympPath]:
    """A closed two-mode path with zero upper-right block, built twice.

    A(t) = expm(sin(2 pi t) K0) is always invertible; C = G(t) A with G(t)
    symmetric and periodic keeps the matrix symplectic. The faulted copy
    scales G so the cross-check comparison drifts.
    """
    import scipy.linalg

    K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
    G0 = random_symmetric(rng, 2)
    G1 = random_symmetric(rng, 2)

    def build(scale: float) -> SympPath:
        def eval_path(t: float) -> SympMatrix:
            s = np.sin(2.0 * np.pi * t)
            A = scipy.linalg.expm(s * K0)
            G = scale * (s * G0 + (1.0 - np.cos(2.0 * np.pi * t)) * G1)
            M = np.block([[A, np.zeros((2, 2))], [G @ A, np.linalg.inv(A).T]])
            return SympMatrix(2, M, GROUPED, 1e-9)

        return SympPath(n=2, eval=eval_path, tangent=None, closed=True)

    return build(1.0), build(1.0 + (_FAULT_SIZE if fault else 0.0))


def _check_b_zero(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    p = OscParams(1.0, (1.0, 1.0))
    for i in range(min(count, 3)):
        plain, maybe_faulted = _b_zero_pair(rng, fault and i == 0)
        full = integrate_phase(plain, p)
        special = phase_b_zero(maybe_faulted, p)
        worst = max(worst, abs(full.value - special.value))
    return worst, 1e-9


def _check_overlap(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    for i in range(min(count, 5)):
        while True:
            p = OscParams(float(rng.uniform(0.5, 2.0)), (float(rng.uniform(0.5, 2.0)),))
            r = float(rng.uniform(0.2, 1.2))
            th = float(rng.uniform(0.0, 2.0 * np.pi))
            M = squeeze_matrix_n1(SqueezeSpec(1, r, th, p))
            if abs(M.data[0, 1]) > 0.1:
                break
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-1.0, 1.0))
        overlap = numeric_overlap_n1(M, p, a, b)
        a_used = a + (_FAULT_SIZE if fault and i == 0 else 0.0)
        worst = max(worst, abs(abs(overlap) - weyl_amplitude(M, p, [a_used], [b])))
    return worst, 1e-9


_CHECKS: dict[str, Callable[[np.random.Generator, int, bool], tuple[float, float]]] = {
    "closed_form": _check_closed_form,
    "coefficients": _check_coefficients,
    "symplectic": _check_symplectic,
    "two_form": _check_two_form,
    "invariance": _check_invariance,
    "b_zero": _check_b_zero,
    "overlap": _check_overlap,
}


def run_verify(cfg: RunConfig) -> int:
    """Run the oracle checks and print one pass/fail line each."""
    lines = [f"verify: rng {RNG_NAME} seed {cfg.seed}, {cfg.verify_count} random draws"]
    all_passed = True
    for name in CHECK_NAMES:
        if name not in cfg.verify_checks:
            continue
        rng = np.random.default_rng([cfg.seed, CHECK_NAMES.index(name)])
        residual, tol = _CHECKS[name](rng, cfg.verify_count, cfg.inject_fault == name)
        passed = residual <= tol
        all_passed = all_passed and passed
        tag = "PASS" if passed else "FAIL"
        lines.append(f"[{tag}] {name}: max residual {residual:.3e} (tol {tol:.1e})")
    lines.append("verify: all checks passed" if all_passed else "verify: FAILED")
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if all_passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# expm


def run_expm(cfg: RunConfig) -> int:
    """Compare the closed-form exponential against the generic one."""
    import scipy.linalg

    blocks = {}
    for name, arr in (("a", cfg.expm_a), ("b", cfg.expm_b), ("c", cfg.expm_c)):
        blocks[name] = np.zeros((2, 2)) if arr is None else arr
    for name in ("a", "c"):
        asym = float(np.max(np.abs(blocks[name] - blocks[name].T)))
        if asym > 1e-10:
            raise ConfigError(f"expm block {name} must be symmetric; asymmetry {asym:.3e}")
        blocks[name] = (blocks[name] + blocks[name].T) / 2.0
    g = Sp4Generator(a=blocks["a"], b=blocks["b"], c=blocks["c"])
    M, branch = closed_form_exp(g, return_branch=True)
    generic = scipy.linalg.expm(g.u_matrix())
    deviation = float(np.max(np.abs(M.data - generic)))
    if cfg.format == "json":
        record = {
            "blocks": {k: blocks[k].tolist() for k in ("a", "b", "c")},
            "branch": branch,
            "closed_form": M.data.tolist(),
            "generic": generic.tolist(),
            "max_deviation": deviation,
            "rng": RNG_NAME,
            "seed": cfg.seed,
        }
        _emit(_json_text(record), cfg.out)
    else:
        header = ["branch", "max_deviation", "seed"]
        row = [branch, _fmt_float(deviation), str(cfg.seed)]
        for tag, mat in (("closed", M.data), ("generic", generic)):
            for i in range(4):
                for j in range(4):
                    header.append(f"{tag}_{i}{j}")
                    row.append(_fmt_float(mat[i, j]))
        _emit(_csv_table(header, [row]), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; flags override its values")
    sub.add_argument("--R", type=float, default=None, help="squeeze magnitude")
    sub.add_argument("--modes", type=int, choices=(1, 2), default=None, help="mode count")
    sub.add_argument("--hbar", type=float, default=None, help="hbar value")
    sub.add_argument(
        "--length",
        type=float,
        action="append",
        default=None,
        help="mode length; repeat for two modes",
    )
    sub.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (echoed in reports)")
    sub.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    sub.add_argument("--out", default=None, help=f"output file; relative paths honor ${OUT_DIR_ENV}")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympberry",
        description="Geometric phases of Gaussian states along symplectic paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phase = sub.add_parser("phase", help="compute the phase of one path")
    _add_common_flags(p_phase)
    p_phase.add_argument("--kind", choices=_KINDS, default=None, help="path family")
    p_phase.add_argument("--samples", default=None, help="JSON samples file for custom-samples")

    p_sweep = sub.add_parser("sweep", help="tabulate phases over a parameter grid")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--kind", choices=(KIND_SQUEEZE1, KIND_SQUEEZE2), default=None)

    p_verify = sub.add_parser("verify", help="run the internal oracle checks")
    _add_common_flags(p_verify)
    p_verify.add_argument(
        "--inject-fault",
        dest="inject_fault",
        choices=CHECK_NAMES,
        default=None,
        help="negative control: perturb the named check's input by 1e-3",
    )

    p_expm = sub.add_parser("expm", help="closed-form vs generic 4x4 exponential")
    _add_common_flags(p_expm)
    p_expm.add_argument("--block-a", dest="block_a", default=None, help="4 numbers, row-major")
    p_expm.add_argument("--block-b", dest="block_b", default=None, help="4 numbers, row-major")
    p_expm.add_argument("--block-c", dest="block_c", default=None, help="4 numbers, row-major")
    return parser


_RUNNERS = {"phase": run_phase, "sweep": run_sweep, "verify": run_verify, "expm": run_expm}


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureBudgetExceeded as exc:
        print(f"quadrature budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
