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
import functools
import io
import json
import os
import sys
import tempfile
from typing import Callable, Sequence

import numpy as np

from . import oracles
from ._quadrature import QuadratureBudgetExceeded
from .gaussian_states import OscParams
from .geometric_phase import ADAPTIVE, FIXED, PhaseResult, QuadSpec, integrate_phase, polygon_phase
from .sp4_closed_form import Sp4Generator
from .squeeze_paths import squeeze_circle_path, reference_phase
from .symplectic_core import GROUPED, SympMatrix, _asymmetry

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

CHECK_NAMES = tuple(oracles.CHECKS)


class ConfigError(ValueError):
    """Bad configuration; maps to exit code 2."""


@dataclasses.dataclass
class RunConfig:
    """Resolved settings for one CLI run (flags > config file > these defaults)."""

    command: str
    kind: str = KIND_SQUEEZE1
    modes: int | None = 1  # None on custom-samples until the samples file is read
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


# ---------------------------------------------------------------------------
# config parsing


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}") from exc


# Parsers for text values (config file, or a flag argparse leaves as text),
# each called as parse(raw, section, key).


def _text(raw: str, section: str, key: str) -> str:
    return raw


def _int(raw: str, section: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from exc


def _float(raw: str, section: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from exc


def _floats(raw: str, section: str, key: str) -> tuple[float, ...]:
    """A number list; separators alone (``,``) name no number and are rejected."""
    vals = _parse_floats(raw, f"[{section}] {key}")
    if raw and not vals:
        raise ConfigError(f"[{section}] {key}: expected comma-separated numbers, got {raw!r}")
    return vals


def _grid(raw: str, section: str, key: str) -> tuple[float, ...] | None:
    """A sweep axis; an empty value leaves it unset, so the scalar setting is used."""
    return _floats(raw, section, key) if raw else None


def _names(raw: str, section: str, key: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _block(raw: str, section: str, key: str) -> np.ndarray:
    vals = _parse_floats(raw, f"expm block {key}")
    if len(vals) != 4:
        raise ConfigError(f"expm block {key}: expected 4 numbers row-major, got {len(vals)}")
    return np.array(vals, dtype=float).reshape(2, 2)


# Every setting, declared once: (section, key) -> (RunConfig field, parser,
# argparse dest of the flag that overrides it, or None). A setting that is
# neither flagged nor in the file keeps its RunConfig default.
_SETTINGS: dict[tuple[str, str], tuple[str, Callable[[str, str, str], object], str | None]] = {
    ("run", "seed"): ("seed", _int, "seed"),
    ("path", "kind"): ("kind", _text, "kind"),
    ("path", "modes"): ("modes", _int, "modes"),
    ("path", "R"): ("R", _float, "R"),
    ("path", "hbar"): ("hbar", _float, "hbar"),
    ("path", "lengths"): ("lengths", _floats, "length"),
    ("path", "samples"): ("samples", _text, "samples"),
    ("quadrature", "kind"): ("quad_kind", _text, None),
    ("quadrature", "tol"): ("tol", _float, "tol"),
    ("quadrature", "max_evals"): ("max_evals", _int, None),
    ("quadrature", "panels"): ("panels", _int, None),
    ("output", "format"): ("format", _text, "format"),
    ("output", "out"): ("out", _text, "out"),
    ("sweep", "R"): ("sweep_R", _floats, None),
    ("sweep", "hbar"): ("sweep_hbar", _grid, None),
    ("sweep", "length"): ("sweep_length", _grid, None),
    ("expm", "a"): ("expm_a", _block, "block_a"),
    ("expm", "b"): ("expm_b", _block, "block_b"),
    ("expm", "c"): ("expm_c", _block, "block_c"),
    ("verify", "count"): ("verify_count", _int, None),
    ("verify", "checks"): ("verify_checks", _names, None),
    ("verify", "inject_fault"): ("inject_fault", _text, "inject_fault"),
}


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
    sections = {section for section, _ in _SETTINGS}
    out: dict[str, dict[str, str]] = {}
    for section in cp.sections():
        if section not in sections:
            where = _key_line(lines, section, None)
            loc = f"{path}:{where}: " if where else f"{path}: "
            raise ConfigError(f"{loc}unknown section [{section}]")
        out[section] = {}
        for key, value in cp.items(section):
            if (section, key) not in _SETTINGS:
                where = _key_line(lines, section, key)
                loc = f"{path}:{where}: " if where else f"{path}: "
                raise ConfigError(f"{loc}unknown key {key!r} in [{section}]")
            out[section][key] = value
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags, optional config file, and defaults into a RunConfig."""
    filecfg = _parse_config_file(args.config) if args.config else {}
    values = {}
    for (section, key), (field, parse, dest) in _SETTINGS.items():
        value = getattr(args, dest, None) if dest else None
        if value is None:
            value = filecfg.get(section, {}).get(key)
        if isinstance(value, str):
            value = parse(value, section, key)
        if value is not None:
            values[field] = value

    modes = values.get("modes")
    kind = values.setdefault("kind", KIND_SQUEEZE2 if modes == 2 else KIND_SQUEEZE1)
    if kind not in _KINDS:
        raise ConfigError(f"unknown path kind {kind!r}")
    # a samples file fixes its own mode count, so custom-samples has no default (run_phase)
    modes = values.setdefault("modes", {KIND_SQUEEZE1: 1, KIND_SQUEEZE2: 2}.get(kind))
    if kind == KIND_SQUEEZE1 and modes != 1:
        raise ConfigError(f"kind {kind} requires modes=1, got {modes}")
    if kind == KIND_SQUEEZE2 and modes != 2:
        raise ConfigError(f"kind {kind} requires modes=2, got {modes}")
    if modes not in (None, 1, 2):
        raise ConfigError(f"modes must be 1 or 2, got {modes}")
    if args.command == "sweep":
        values.setdefault("format", "csv")
        if args.R is not None:
            values["sweep_R"] = (args.R,)

    cfg = RunConfig(command=args.command, **values)
    if kind != KIND_CUSTOM:
        _fit_lengths(cfg, modes)
    elif cfg.samples is None and cfg.command == "phase":  # the only command that reads a path
        raise ConfigError("custom-samples paths need a samples file ([path] samples or --samples)")
    _validate_config(cfg)
    return cfg


def _fit_lengths(cfg: RunConfig, modes: int) -> None:
    """Set cfg.modes, and one length per mode; a single length serves every mode."""
    cfg.lengths = tuple(cfg.lengths)
    if len(cfg.lengths) == 1:
        cfg.lengths *= modes
    if len(cfg.lengths) != modes:
        raise ConfigError(f"got {len(cfg.lengths)} lengths for {modes} mode(s)")
    cfg.modes = modes


def _validate_config(cfg: RunConfig) -> None:
    if cfg.quad_kind not in (ADAPTIVE, FIXED):
        raise ConfigError(f"[quadrature] kind must be adaptive or fixed, got {cfg.quad_kind!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
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
    if not cfg.verify_checks:
        raise ConfigError(f"[verify] checks selects no check; known: {', '.join(CHECK_NAMES)}")
    for name in cfg.verify_checks:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown verify check {name!r}; known: {', '.join(CHECK_NAMES)}")
    if cfg.inject_fault is not None and cfg.inject_fault not in CHECK_NAMES:
        raise ConfigError(
            f"unknown inject_fault target {cfg.inject_fault!r}; known: {', '.join(CHECK_NAMES)}"
        )
    for axis, grid in (("hbar", cfg.sweep_hbar), ("length", cfg.sweep_length)):
        if grid is not None and any(not (np.isfinite(v) and v > 0) for v in grid):
            raise ConfigError(f"sweep {axis} values must be positive")


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
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_float(value)


# ---------------------------------------------------------------------------
# samples files


def _load_samples(path: str) -> list[SympMatrix]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read samples file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"samples file {path} is not valid JSON: {exc}") from exc
    try:
        n = doc["n"]
        ts = np.asarray(doc["t"], dtype=float)
        Ms = np.asarray(doc["M"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"samples file {path} needs keys n, t, M") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"samples file {path}: n must be a positive integer, got {n!r}")
    if ts.ndim != 1 or len(ts) < 2:
        raise ConfigError("samples need at least two parameter values")
    if Ms.shape != (len(ts), 2 * n, 2 * n):
        raise ConfigError(
            f"samples matrix block has shape {Ms.shape}, expected {(len(ts), 2 * n, 2 * n)}"
        )
    if not (abs(ts[0]) <= 1e-12 and abs(ts[-1] - 1.0) <= 1e-12):
        raise ConfigError("sample parameters must start at 0 and end at 1")
    if not np.all(np.diff(ts) > 0):
        raise ConfigError("sample parameters must be strictly increasing")
    try:
        return [SympMatrix(n, M, GROUPED, 1e-8) for M in Ms]
    except ValueError as exc:
        raise ConfigError(f"samples do not form a valid symplectic path: {exc}") from exc


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


def run_phase(cfg: RunConfig) -> int:
    """Compute one phase and emit the report record."""
    if cfg.kind == KIND_CUSTOM:
        knots = _load_samples(cfg.samples)
        n = knots[0].n
        if cfg.modes not in (None, n):
            raise ConfigError(f"samples declare n={n}, config modes={cfg.modes}")
        _fit_lengths(cfg, n)
    p = OscParams(cfg.hbar, cfg.lengths)
    try:
        if cfg.kind == KIND_CUSTOM:
            result = polygon_phase(knots, p)
        else:
            result = integrate_phase(squeeze_circle_path(cfg.modes, cfg.R, p), p, cfg.quad())
    except ValueError as exc:  # a segment's logarithm is not real, or a sample fails its check
        raise ConfigError(str(exc)) from exc
    record = _phase_record(cfg, result)
    if cfg.format == "json":
        _emit(_json_text(record), cfg.out)
    else:
        columns = [col for col in record if col != "rng"]
        _emit(_csv_table(columns, [[_cell(record[col]) for col in columns]]), cfg.out)
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
    records: list[dict] = []
    any_failed = False
    for R in cfg.sweep_R:
        for hbar in hbar_grid:
            for length in length_grid:
                lengths = (length,) * cfg.modes
                record = {
                    "R": R,
                    "hbar": hbar,
                    **{f"l{j + 1}": lengths[j] for j in range(cfg.modes)},
                    "gamma_quadrature": None,
                    "gamma_reference": None,
                    "deviation": None,
                    "status": "ok",
                    "seed": cfg.seed,
                }
                try:
                    ref = record["gamma_reference"] = reference_phase(cfg.modes, R)
                    params = OscParams(hbar, lengths)
                    path = squeeze_circle_path(cfg.modes, R, params)
                    result = integrate_phase(path, params, cfg.quad())
                    record["gamma_quadrature"] = result.value
                    record["deviation"] = abs(result.value - ref)
                except (QuadratureBudgetExceeded, ValueError) as exc:
                    record["status"] = f"error:{type(exc).__name__}"
                    any_failed = True
                records.append(record)
    if cfg.format == "json":
        _emit(_json_text({"rng": RNG_NAME, "seed": cfg.seed, "rows": records}), cfg.out)
    else:
        _emit(_csv_table(header, [[_cell(r[col]) for col in header] for r in records]), cfg.out)
    return EXIT_FAILED if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def run_verify(cfg: RunConfig) -> int:
    """Run the oracle checks and print one pass/fail line each."""
    lines = [f"verify: rng {RNG_NAME} seed {cfg.seed}, {cfg.verify_count} random draws"]
    all_passed = True
    for index, (name, check) in enumerate(oracles.CHECKS.items()):
        if name not in cfg.verify_checks:
            continue
        rng = np.random.default_rng([cfg.seed, index])
        residual, tol = check(rng, cfg.verify_count, cfg.inject_fault == name)
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
    blocks = {}
    for name, arr in (("a", cfg.expm_a), ("b", cfg.expm_b), ("c", cfg.expm_c)):
        blocks[name] = np.zeros((2, 2)) if arr is None else arr
    for name in ("a", "c"):
        asym = _asymmetry(blocks[name])
        if asym > 1e-10:
            raise ConfigError(f"expm block {name} must be symmetric; asymmetry {asym:.3e}")
        blocks[name] = (blocks[name] + blocks[name].T) / 2.0
    g = Sp4Generator(a=blocks["a"], b=blocks["b"], c=blocks["c"])
    M, branch, generic, deviation = oracles.expm_comparison(g)
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


@functools.lru_cache(maxsize=1)
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; parse_args leaves it unchanged."""
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
