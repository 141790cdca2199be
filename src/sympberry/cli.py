"""Command-line front end.

Subcommands, each with --config, --seed, --out and the flags of the settings it reads:

* phase   compute the geometric phase of one configured path
          (--kind --R --hbar --length --tol --samples --format)
* sweep   tabulate phases over an R grid at the [path] hbar and lengths (as phase, no --samples)
* verify  run the internal oracle suites and report pass/fail per check (--inject-fault)
* expm    compare the closed-form 4x4 exponential against the generic one (--block-a/b/c --format)

Settings come from flags, an INI-style config file (--config) that every command shares,
or defaults, in that precedence order. Output goes to stdout or, with --out, to a file
written atomically (temp file plus rename; failures leave nothing behind).
A relative --out is placed under $SYMPBERRY_OUT_DIR when that is set.

Exit codes: 0 success, 1 failed verify check or failed sweep row, 2 config
error (an --out that cannot be written included), 3 quadrature budget exhausted.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import json
import os
import sys
import tempfile
from typing import Callable, Sequence

import numpy as np

from . import oracles
from ._quadrature import QuadratureBudgetExceeded
from .gaussian_states import OscParams
from .geometric_phase import PhaseResult, QuadSpec, integrate_phase, polygon_phase
from .sp4_closed_form import Sp4Generator, _reorder
from .squeeze_paths import _magnitude, squeeze_circle_path, reference_phase
from .symplectic_core import SympMatrix, _asymmetry, _is_integer

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
# the mode count of each path kind; a samples file fixes its own (run_phase)
_KIND_MODES = {KIND_SQUEEZE1: 1, KIND_SQUEEZE2: 2, KIND_CUSTOM: None}
_KINDS = tuple(_KIND_MODES)

CHECK_NAMES = tuple(oracles.CHECKS)
_PATH_COMMANDS = ("phase", "sweep")  # read [path] and [quadrature]; only sweep reads [sweep]


class ConfigError(ValueError):
    """Bad configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config parsing


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}") from exc


# Parsers for text values (config file, or a flag argparse leaves as text),
# each called as parse(raw, section, key).


def _text(raw: str, section: str, key: str) -> str:
    return raw


def _number(cast: Callable[[str], object], what: str) -> Callable[[str, str, str], object]:
    def parse(raw: str, section: str, key: str):
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected {what}, got {raw!r}") from exc

    return parse


_int = _number(int, "an integer")
_float = _number(float, "a number")


def _floats(raw: str, section: str, key: str) -> tuple[float, ...]:
    """A number list; separators alone (``,``) name no number and are rejected."""
    vals = _parse_floats(raw, f"[{section}] {key}")
    if raw and not vals:
        raise ConfigError(f"[{section}] {key}: expected comma-separated numbers, got {raw!r}")
    return vals


def _names(raw: str, section: str, key: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _block(raw: str, section: str, key: str) -> np.ndarray:
    vals = _parse_floats(raw, f"expm block {key}")
    if len(vals) != 4:
        raise ConfigError(f"expm block {key}: expected 4 numbers row-major, got {len(vals)}")
    return np.array(vals, dtype=float).reshape(2, 2)


def _setting(section: str, key: str, parse: Callable, flag: str | None, default):
    """A RunConfig field that is the setting [section] key: parse reads its text value, flag is
    the argparse dest that overrides it (None: file only), default holds when neither is given."""
    metadata = {"where": (section, key), "parse": parse, "flag": flag}
    return dataclasses.field(default=default, metadata=metadata)


@dataclasses.dataclass
class RunConfig:
    """Resolved settings for one CLI run (flags > config file > these defaults)."""

    command: str
    seed: int = _setting("run", "seed", _int, "seed", 0)
    kind: str = _setting("path", "kind", _text, "kind", KIND_SQUEEZE1)
    modes: int | None = None  # no setting: the kind's, or the samples file's n (_fit_lengths)
    R: float = _setting("path", "R", _float, "R", 1.0)
    hbar: float = _setting("path", "hbar", _float, "hbar", 1.0)
    lengths: tuple[float, ...] = _setting("path", "lengths", _floats, "length", (1.0,))
    samples: str | None = _setting("path", "samples", _text, "samples", None)
    tol: float = _setting("quadrature", "tol", _float, "tol", 1e-10)
    max_evals: int = _setting("quadrature", "max_evals", _int, None, 10**6)
    format: str = _setting("output", "format", _text, "format", "json")
    out: str | None = _setting("output", "out", _text, "out", None)
    sweep_R: tuple[float, ...] = _setting("sweep", "R", _floats, None, ())
    expm_a: np.ndarray | None = _setting("expm", "a", _block, "block_a", None)
    expm_b: np.ndarray | None = _setting("expm", "b", _block, "block_b", None)
    expm_c: np.ndarray | None = _setting("expm", "c", _block, "block_c", None)
    verify_count: int = _setting("verify", "count", _int, None, 200)
    verify_checks: tuple[str, ...] = _setting("verify", "checks", _names, None, CHECK_NAMES)
    inject_fault: str | None = _setting("verify", "inject_fault", _text, "inject_fault", None)

    def quad(self) -> QuadSpec:
        return QuadSpec(tol=self.tol, max_evals=self.max_evals)


# (section, key) -> (RunConfig field, parser, flag dest), in field order
_SETTINGS = {
    f.metadata["where"]: (f.name, f.metadata["parse"], f.metadata["flag"])
    for f in dataclasses.fields(RunConfig)
    if f.metadata
}


def _key_line(lines: Sequence[str], section: str, key: str | None) -> int | None:
    """Best-effort line number of a section header or of a key inside it, each found with
    the pattern configparser reads it by, so a name matches as the parser took it."""
    in_section = False
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if header := configparser.ConfigParser.SECTCRE.match(line):
            if in_section and key is not None:
                return None
            in_section = header.group("header") == section
            if in_section and key is None:
                return i
        elif in_section and key is not None:
            option = configparser.ConfigParser.OPTCRE.match(line)
            if option and option.group("option").rstrip() == key:
                return i
    return None


def _parse_config_file(path: str) -> dict[str, dict[str, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    lines = text.splitlines()
    # values are literal, % included; and since no header names the empty section, [DEFAULT]
    # is an ordinary section, rejected as unknown, that lends no key to the others
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keys are case-sensitive (R vs r)
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    def located(message: str, section: str, key: str | None = None) -> ConfigError:
        where = _key_line(lines, section, key)
        return ConfigError(f"{path}:{where}: {message}" if where else f"{path}: {message}")

    sections = {section for section, _ in _SETTINGS}
    out: dict[str, dict[str, str]] = {}
    for section in cp.sections():
        if section not in sections:
            raise located(f"unknown section [{section}]", section)
        out[section] = {}
        for key, value in cp.items(section):
            if (section, key) not in _SETTINGS:
                raise located(f"unknown key {key!r} in [{section}]", section, key)
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

    if args.command == "sweep":
        values.setdefault("format", "csv")
        if args.R is not None:
            values["sweep_R"] = (args.R,)
    reads_path = args.command in _PATH_COMMANDS  # the others parse [path] but never read it
    cfg = RunConfig(command=args.command, **values)
    if reads_path and cfg.kind not in _KIND_MODES:
        raise ConfigError(f"unknown path kind {cfg.kind!r}")
    if reads_path and cfg.kind != KIND_CUSTOM:
        _fit_lengths(cfg, _KIND_MODES[cfg.kind])
    elif cfg.samples is None and cfg.command == "phase":  # the only command that reads a path
        raise ConfigError("custom-samples paths need a samples file ([path] samples or --samples)")
    _validate_config(cfg)
    if reads_path:
        try:  # the library objects the command builds decide the ranges of their settings
            cfg.quad()
            OscParams(cfg.hbar, cfg.lengths)
            for R in cfg.sweep_R if cfg.command == "sweep" else (cfg.R,):
                _magnitude(R)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
    """The CLI's own rules: [verify] for verify, format for the others, the seed for all."""
    if cfg.command == "verify":
        known = f"known: {', '.join(CHECK_NAMES)}"
        if cfg.verify_count < 1:
            raise ConfigError("verify count must be >= 1")
        if not cfg.verify_checks:
            raise ConfigError(f"[verify] checks selects no check; {known}")
        for name in cfg.verify_checks:
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown verify check {name!r}; {known}")
        if cfg.inject_fault is not None and cfg.inject_fault not in CHECK_NAMES:
            raise ConfigError(f"unknown inject_fault target {cfg.inject_fault!r}; {known}")
    elif cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.seed < 0:  # a PCG64 seed, as every record names it
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")


# ---------------------------------------------------------------------------
# output plumbing


def _emit(text: str, out: str | None) -> None:
    """Print to stdout, or write atomically to out (no partial files), a relative out under
    $SYMPBERRY_OUT_DIR when that is set."""
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    base = os.environ.get(OUT_DIR_ENV)
    target = os.path.join(base, out) if base and not os.path.isabs(out) else out
    directory = os.path.dirname(os.path.abspath(target))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sympberry-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):  # the file system refuses the target, as a directory
            raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from exc
        raise


def _emit_record(cfg: RunConfig, doc, header: Sequence[str], rows: Sequence[dict]) -> None:
    """Emit doc as JSON, or the header's cells of each row as CSV, as cfg.format selects."""
    if cfg.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", cfg.out)
    else:
        table = [header, *([_cell(row[col]) for col in header] for row in rows)]
        _emit("".join(",".join(line) + "\n" for line in table), cfg.out)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


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
    if not _is_integer(n) or n < 1:
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
        return [SympMatrix(n, M, 1e-8) for M in Ms]
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
        _fit_lengths(cfg, knots[0].n)
    p = OscParams(cfg.hbar, cfg.lengths)
    try:
        if cfg.kind == KIND_CUSTOM:
            result = polygon_phase(knots, p)
        else:
            result = integrate_phase(squeeze_circle_path(cfg.modes, cfg.R, p), p, cfg.quad())
    except ValueError as exc:  # a segment's logarithm is not real, or a sample fails its check
        raise ConfigError(str(exc)) from exc
    record = _phase_record(cfg, result)
    _emit_record(cfg, record, [col for col in record if col != "rng"], [record])
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def run_sweep(cfg: RunConfig) -> int:
    """Tabulate phases over the R grid, in its order, at the [path] hbar and lengths."""
    if cfg.kind == KIND_CUSTOM:
        raise ConfigError("sweep supports the squeeze-circle kinds only")
    length_cols = [f"l{j + 1}" for j in range(cfg.modes)]
    header = ["R", "hbar", *length_cols]
    header += ["gamma_quadrature", "gamma_reference", "deviation", "status", "seed"]
    params, quad = OscParams(cfg.hbar, cfg.lengths), cfg.quad()
    records: list[dict] = []
    for R in cfg.sweep_R:
        record = dict.fromkeys(header)  # the header's key order; unset cells stay None
        record.update(zip(length_cols, cfg.lengths), R=R, hbar=cfg.hbar, status="ok", seed=cfg.seed)
        try:
            ref = record["gamma_reference"] = reference_phase(cfg.modes, R)
            result = integrate_phase(squeeze_circle_path(cfg.modes, R, params), params, quad)
            record["gamma_quadrature"] = result.value
            record["deviation"] = abs(result.value - ref)
        except (QuadratureBudgetExceeded, ValueError) as exc:
            record["status"] = f"error:{type(exc).__name__}"
        records.append(record)
    _emit_record(cfg, {"rng": RNG_NAME, "seed": cfg.seed, "rows": records}, header, records)
    return EXIT_OK if all(r["status"] == "ok" for r in records) else EXIT_FAILED


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
        try:
            residual, tol = check(rng, cfg.verify_count, cfg.inject_fault == name)
            passed, detail = residual <= tol, f"max residual {residual:.3e} (tol {tol:.1e})"
        except (ValueError, ArithmeticError) as exc:  # the code under test refused or overflowed
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_passed = all_passed and passed
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
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
        blocks[name] = blocks[name] / 2.0 + blocks[name].T / 2.0  # halved first: the sum can overflow
    try:
        g = Sp4Generator(a=blocks["a"], b=blocks["b"], c=blocks["c"])
        M, branch, generic, deviation = oracles.expm_comparison(g)
    except ValueError as exc:  # the spectrum or the exponential overflows
        raise ConfigError(str(exc)) from exc
    closed, generic = _reorder(M.data), _reorder(generic)  # recorded in the blocks' interleaved ordering
    record = {
        "blocks": {k: blocks[k].tolist() for k in ("a", "b", "c")},
        "branch": branch,
        "closed_form": closed.tolist(),
        "generic": generic.tolist(),
        "max_deviation": deviation,
        "rng": RNG_NAME,
        "seed": cfg.seed,
    }
    row = {"branch": branch, "max_deviation": deviation, "seed": cfg.seed}
    for tag, mat in (("closed", closed), ("generic", generic)):
        row.update((f"{tag}_{i}{j}", x) for (i, j), x in np.ndenumerate(mat))
    _emit_record(cfg, record, list(row), [row])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.lru_cache(maxsize=1)
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; parse_args leaves it unchanged.
    Each subcommand takes the groups of flags whose settings it reads."""
    common = argparse.ArgumentParser(add_help=False)  # every command
    common.add_argument("--config", help="INI config file; flags override its values")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (echoed in reports)")
    common.add_argument("--out", default=None, help=f"output file; relative paths honor ${OUT_DIR_ENV}")
    record = argparse.ArgumentParser(add_help=False)  # the commands that emit a record
    record.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    path = argparse.ArgumentParser(add_help=False)  # [path] and [quadrature]
    path.add_argument("--R", type=float, default=None, help="squeeze magnitude")
    path.add_argument("--hbar", type=float, default=None, help="hbar value")
    path.add_argument(
        "--length",
        type=float,
        action="append",
        default=None,
        help="mode length; repeat for two modes",
    )
    path.add_argument("--tol", type=float, default=None, help="quadrature tolerance")

    parser = argparse.ArgumentParser(
        prog="sympberry",
        description="Geometric phases of Gaussian states along symplectic paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reads_path = [common, record, path]  # phase and sweep
    p_phase = sub.add_parser("phase", parents=reads_path, help="compute the phase of one path")
    p_phase.add_argument("--kind", choices=_KINDS, default=None, help="path family")
    p_phase.add_argument("--samples", default=None, help="JSON samples file for custom-samples")

    p_sweep = sub.add_parser("sweep", parents=reads_path, help="tabulate phases over an R grid")
    p_sweep.add_argument("--kind", choices=(KIND_SQUEEZE1, KIND_SQUEEZE2), default=None)

    p_verify = sub.add_parser("verify", parents=[common], help="run the internal oracle checks")
    p_verify.add_argument(
        "--inject-fault",
        dest="inject_fault",
        choices=CHECK_NAMES,
        default=None,
        help="negative control: perturb the named check's input by 1e-3",
    )

    p_expm = sub.add_parser("expm", parents=[common, record], help="closed-form vs generic 4x4 exponential")
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
