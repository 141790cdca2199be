"""Spans around calls into each sympberry module, recorded from outside.

``instrumented(tracer)`` wraps, for the duration of a ``with`` block:

* every public function defined in each library module (no leading
  underscore), wherever a module namespace binds it, so calls between
  modules are seen too;
* the validation in ``SympMatrix`` and ``SympPath`` construction, and
  ``SympPath.derivative`` (named ``fd_tangent`` on paths without an
  analytic tangent);
* the integrand handed to the quadrature engines, one span per node;
* the ``eval``/``tangent`` callables handed to ``SympPath``, named after the
  layer that built the path (``bench`` for the benchmark's own loops).

Nothing under ``src/`` changes; everything is restored on exit. Spans stay
in memory; ``summarize`` turns them into per-layer metrics.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

import sympberry as sb
import sympberry.cli  # noqa: F401  (binds sb.cli)
from sympberry import (
    _quadrature,
    gaussian_states,
    geometric_phase,
    sp4_closed_form,
    squeeze_paths,
    symplectic_core,
)

# library module -> layer name (a metric name may not start with "_")
LAYERS = {
    _quadrature: "quadrature",
    symplectic_core: "symplectic_core",
    gaussian_states: "gaussian_states",
    geometric_phase: "geometric_phase",
    sp4_closed_form: "sp4_closed_form",
    squeeze_paths: "squeeze_paths",
    sb.cli: "cli",
}
_QUADRATURE_ENGINES = ("adaptive_gauss_kronrod", "fixed_gauss_kronrod")
NODE = "geometric_phase.node"
OP = "op"


class Tracer:
    """In-memory spans, one entry per span in each of five parallel lists.

    Flat lists of ints and strings hold no per-span container, so the
    garbage collector has nothing more to scan as spans accumulate.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[int] = []  # perf_counter_ns
        self.end: list[int] = []
        self.parent: list[int] = []  # index of the enclosing span, -1 at the root
        self.op: list[int] = []  # op id shared by the spans of one op
        self.op_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def run_op(self, op_id: int, fn, case):
        self.op_id = op_id
        return self.wrap(OP, fn)(case)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self)):
                record = {"id": i, "name": self.name[i], "start_ns": self.start[i],
                          "end_ns": self.end[i], "parent": self.parent[i], "op": self.op[i]}
                fh.write(json.dumps(record) + "\n")


def _engine(tracer: Tracer, name: str, fn):
    """Quadrature engine span whose integrand calls are NODE spans."""

    def engine(f, *args, **kwargs):
        return fn(tracer.wrap(NODE, f), *args, **kwargs)

    return tracer.wrap(name, functools.wraps(fn)(engine))


def _derivative(tracer: Tracer, fn):
    fd = tracer.wrap("geometric_phase.fd_tangent", fn)
    analytic = tracer.wrap("geometric_phase.derivative", fn)

    @functools.wraps(fn)
    def derivative(path, t):
        return (fd if path.tangent is None else analytic)(path, t)

    return derivative


def _path_factory(tracer: Tracer, layer: str, cls):
    sig = inspect.signature(cls)

    def build(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        for key in ("eval", "tangent"):
            fn = bound.arguments.get(key)
            if fn is not None:
                bound.arguments[key] = tracer.wrap(f"{layer}.{key}", fn)
        return cls(*bound.args, **bound.kwargs)

    return build


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    replacements = {}
    for mod, layer in LAYERS.items():
        for name, fn in vars(mod).items():
            if name.startswith("_") or not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            label = f"{layer}.{name}"
            replacements[fn] = (
                _engine(tracer, label, fn) if name in _QUADRATURE_ENGINES else tracer.wrap(label, fn)
            )
    path_cls = geometric_phase.SympPath
    namespaces = {**LAYERS, sb: "bench"}
    restore = []
    for mod, layer in namespaces.items():
        for attr, value in list(vars(mod).items()):
            new = replacements.get(value) if inspect.isfunction(value) else None
            if value is path_cls:
                new = _path_factory(tracer, layer, path_cls)
            if new is not None:
                restore.append((mod, attr, value))
                setattr(mod, attr, new)
    for cls, attr, new in (
        (sb.SympMatrix, "__post_init__", lambda fn: tracer.wrap("symplectic_core.SympMatrix", fn)),
        (path_cls, "__post_init__", lambda fn: tracer.wrap("geometric_phase.SympPath", fn)),
        (path_cls, "derivative", lambda fn: _derivative(tracer, fn)),
    ):
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, new(original))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer summary


class _Stats:
    __slots__ = ("count", "total", "self_total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.self_total = 0

    def mean_us(self, self_time: bool = False) -> float:
        if not self.count:
            return 0.0
        return (self.self_total if self_time else self.total) / self.count / 1e3


def span_stats(tracer: Tracer) -> dict[str, _Stats]:
    """Per span name: count, inclusive time and self time."""
    duration = [e - s for s, e in zip(tracer.start, tracer.end)]
    child_time = [0] * len(duration)
    for d, parent in zip(duration, tracer.parent):
        if parent >= 0:
            child_time[parent] += d
    stats: dict[str, _Stats] = defaultdict(_Stats)
    for name, d, c in zip(tracer.name, duration, child_time):
        st = stats[name]
        st.count += 1
        st.total += d
        st.self_total += d - c
    return dict(stats)


def summarize(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named in BENCHMARK.json, averaged over the ops traced.

    A span's self time is its duration minus that of its direct children.
    A closed_form_exp call took the degenerate fallback when exp_map ran
    directly inside it.
    """
    stats = span_stats(tracer)
    empty = _Stats()

    def get(name: str) -> _Stats:
        return stats.get(name, empty)

    ops = get(OP).count
    if not ops:
        raise ValueError("no op spans recorded")
    closed = get("sp4_closed_form.closed_form_exp").count
    fallbacks = sum(
        1
        for name, parent in zip(tracer.name, tracer.parent)
        if name == "symplectic_core.exp_map"
        and parent >= 0
        and tracer.name[parent] == "sp4_closed_form.closed_form_exp"
    )
    quad_self = sum(get(f"quadrature.{e}").self_total for e in _QUADRATURE_ENGINES)
    cli_self = sum(st.self_total for name, st in stats.items() if name.startswith("cli."))
    return {
        "symplectic_core.sympmatrix_per_op": (get("symplectic_core.SympMatrix").count / ops, "count"),
        "symplectic_core.sympmatrix_us": (get("symplectic_core.SympMatrix").mean_us(), "us"),
        "symplectic_core.omega_per_op": (get("symplectic_core.omega").count / ops, "count"),
        "symplectic_core.exp_map_per_op": (get("symplectic_core.exp_map").count / ops, "count"),
        "symplectic_core.exp_map_us": (get("symplectic_core.exp_map").mean_us(), "us"),
        "quadrature.evals_per_op": (get(NODE).count / ops, "count"),
        "quadrature.self_ms_per_op": (quad_self / ops / 1e6, "ms"),
        "geometric_phase.path_build_ms": (get("geometric_phase.SympPath").total / ops / 1e6, "ms"),
        "geometric_phase.integrand_us": (get("geometric_phase.connection_integrand").mean_us(), "us"),
        "geometric_phase.integrand_per_op": (
            get("geometric_phase.connection_integrand").count / ops, "count"),
        "geometric_phase.fd_tangent_us": (
            get("geometric_phase.fd_tangent").mean_us(self_time=True), "us"),
        "squeeze_paths.eval_us": (get("squeeze_paths.eval").mean_us(), "us"),
        "squeeze_paths.tangent_us": (get("squeeze_paths.tangent").mean_us(), "us"),
        "sp4_closed_form.closed_form_exp_per_op": (closed / ops, "count"),
        "sp4_closed_form.closed_form_exp_us": (get("sp4_closed_form.closed_form_exp").mean_us(), "us"),
        "sp4_closed_form.fallback_share": (fallbacks / closed if closed else 0.0, "ratio"),
        "sp4_closed_form.coeff_closed_us": (get("sp4_closed_form.coeff_closed").mean_us(), "us"),
        "gaussian_states.overlap_n1_us": (get("gaussian_states.numeric_overlap_n1").mean_us(), "us"),
        "cli.build_config_ms": (get("cli.build_config").mean_us() / 1e3, "ms"),
        "cli.self_ms_per_op": (cli_self / ops / 1e6, "ms"),
    }
