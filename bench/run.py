"""sympberry benchmark: seeded closed-loop workloads, timed or traced.

    python3 bench/run.py --workload squeeze_circles --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One caller in one process on one thread issues the next operation only
after the previous one returns. Every operation checks its own result; an
exception or a failed check counts the operation as failed, and the run
then exits with status 1.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of cold child interpreters that import the library and build the cases),
``op_p50_ref``/``op_p90_ref`` and ``ops_per_kref`` of the timed loop, and
``peak_rss_mb`` of this process. Op times are given in units of a reference
kernel timed next to every op (see ``reference_kernel``), so that they do
not move with the speed of a shared host; the wall-time percentiles and
throughput are printed beside them. ``--trace 1`` reports the per-layer
metrics instead: import times from ``-X importtime`` children, and span
statistics from one traced pass over the first cases of the pool, with
``trace.overhead_pct`` against untraced passes over the same cases. The last
line of standard output is one JSON object with the result.
``--workload all`` runs every workload in its own child process.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import bench_env  # pins thread pools; numpy is imported only after this
import numpy as np
import scipy.linalg

WORKLOAD_NAMES = ("squeeze_circles", "refined_loops", "oracle_verify")
SETUP_CHILDREN = 7
IMPORT_CHILDREN = 3
MIN_OPS = 100  # so that at least 10 samples lie beyond p90
CAP_FACTOR = 2.5  # the timed loop stops at CAP_FACTOR * seconds even short of MIN_OPS
WARMUP_OPS = 3
CHILD_TIMEOUT_S = 60
REFERENCE_MATRIX = np.array(
    [[0.1, 0.2, 0.0, 0.05], [0.2, -0.1, 0.05, 0.0], [0.0, 0.05, 0.1, 0.2], [0.05, 0.0, 0.2, -0.1]]
)


def _child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )


def _cold_start_cmd(workload: str, seed: int) -> list[str]:
    return [sys.executable, os.path.join(bench_env.BENCH_DIR, "cold_start.py"), workload, str(seed)]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall times of cold children that import the library and build the cases."""
    cmd = _cold_start_cmd(workload, seed)
    times = []
    for _ in range(SETUP_CHILDREN):
        t0 = time.perf_counter()
        _child(cmd)
        times.append(time.perf_counter() - t0)
    return times


def import_times() -> dict[str, float]:
    """Median import times (ms) of each library module and of scipy.linalg."""
    from tracing import LAYERS

    code = f"import sys; sys.path.insert(0, {bench_env.SRC!r}); import sympberry, sympberry.cli"
    cmd = [sys.executable, "-X", "importtime", "-c", code]
    runs = []
    for _ in range(IMPORT_CHILDREN):
        self_us, cum_us = {}, {}
        for line in _child(cmd).stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            self_us[name], cum_us[name] = int(parts[0]), int(parts[1])
        run = {f"{layer}.import_ms": self_us.get(mod.__name__, 0) / 1e3 for mod, layer in LAYERS.items()}
        run["setup.scipy_linalg_import_ms"] = cum_us.get("scipy.linalg", 0) / 1e3
        runs.append(run)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def attempt(run, case) -> bool:
    try:
        return bool(run(case))
    except Exception as exc:  # a failing op is counted, not fatal
        print(f"op failed: {exc!r}", file=sys.stderr)
        return False


def reference_kernel() -> float:
    """Wall time of a fixed piece of numpy and scipy work, in seconds.

    The kernel does the kind of work the library does: 4x4 matrix
    exponentials, small products and reductions, and Python scalar
    arithmetic. Hosts shared with other tenants switch between speeds for
    seconds to minutes at a time, and small numpy calls slow down more than
    plain Python does; timed next to an op, this kernel slows down as the op
    does, so op time over kernel time does not depend on the host's speed.
    It calls nothing of the library, so no change to the library moves it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(8):
        B = REFERENCE_MATRIX * (1.0 + 0.01 * i)
        E = scipy.linalg.expm(B)
        C = E @ B.T - B @ E.T
        acc += float(np.abs(C).max()) + sum(float(x) for x in np.diag(E)) + np.allclose(C, C.T)
    return time.perf_counter() - t0


def timed_loop(run, cases, seconds: float, min_ops: int, cap_seconds: float):
    """Closed loop over the cases, cycling, with the reference kernel timed
    before the first op and after every op.

    Returns (durations_s, relative, failed, elapsed_s), where relative[i] is
    op i's wall time over the mean of the kernel times on either side of it.
    """
    clock = time.perf_counter
    durations, relative, failed = [], [], 0
    before = reference_kernel()
    start = clock()
    while True:
        elapsed = clock() - start
        done = len(durations)
        if (elapsed >= seconds and done >= min_ops) or (elapsed >= cap_seconds and done >= 2):
            return durations, relative, failed, elapsed
        case = cases[done % len(cases)]
        t0 = clock()
        ok = attempt(run, case)
        duration = clock() - t0
        after = reference_kernel()
        durations.append(duration)
        relative.append(2.0 * duration / (before + after))
        failed += not ok
        before = after


def percentiles_ms(durations: list[float]) -> tuple[float, float]:
    return (
        statistics.median(durations) * 1e3,
        statistics.quantiles(durations, n=10)[8] * 1e3,
    )


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": bench_env.cpu_model(),
        "commit": bench_env.git_commit(),
        "threads": {var: os.environ[var] for var in bench_env.THREAD_VARS},
    }


def _out_path(kind: str, args, ext: str) -> str:
    os.makedirs(bench_env.OUT_DIR, exist_ok=True)
    return os.path.join(bench_env.OUT_DIR, f"{kind}-{args.workload}-seed{args.seed}.{ext}")


def run_timed(workload, cases, args) -> tuple[dict, int, int]:
    setup = measure_setup(args.workload, args.seed)
    for case in cases[:WARMUP_OPS]:
        attempt(workload.run, case)
    durations, relative, failed, elapsed = timed_loop(
        workload.run, cases, args.seconds, MIN_OPS, CAP_FACTOR * args.seconds
    )
    p50, p90 = statistics.median(relative), statistics.quantiles(relative, n=10)[8]
    n = len(durations)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ref": (p50, "ref"),
        "op_p90_ref": (p90, "ref"),
        "ops_per_kref": (1e3 * (n - failed) / math.fsum(relative), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(r > p90 for r in relative)
    raw50, raw90 = percentiles_ms(durations)
    print(f"setup_s      {metrics['setup_s'][0]:.4f} s   median of {len(setup)} cold children")
    print(f"op_p50_ref   {p50:.4f} ref  n={n} ops; ref = one reference-kernel time")
    print(f"op_p90_ref   {p90:.4f} ref  n={n} ops, {beyond} beyond")
    print(f"ops_per_kref {metrics['ops_per_kref'][0]:.4f} 1/kref  passed ops per 1000 reference-kernel times")
    print(f"error_rate   {failed / n:.4g}       {failed} failed / {n} attempted")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB")
    print(f"wall time    op_p50_ms {raw50:.4f}  op_p90_ms {raw90:.4f}"
          f"  ops_per_s {(n - failed) / math.fsum(durations):.4f}  ({n} ops in {elapsed:.2f} s)")
    return metrics, n, failed


def run_traced(workload, cases, args) -> tuple[dict, int, int]:
    import tracing

    metrics = {key: (value, "ms") for key, value in import_times().items()}
    subset = cases[: workload.trace_ops]
    for case in subset[:WARMUP_OPS]:
        attempt(workload.run, case)
    _, untraced, failed, _ = timed_loop(workload.run, subset, args.seconds / 2, len(subset), args.seconds)
    tracer = tracing.Tracer()
    op_ids = iter(range(len(subset)))
    with tracing.instrumented(tracer):  # one pass: stops after len(subset) ops
        _, traced, traced_failed, _ = timed_loop(
            lambda c: tracer.run_op(next(op_ids), workload.run, c), subset, 0.0, len(subset), math.inf
        )
    failed += traced_failed
    layers = tracing.summarize(tracer)
    metrics.update(layers)
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    spans_file = _out_path("spans", args, "jsonl")
    tracer.write(spans_file, {"workload": args.workload, "seed": args.seed, "ops": len(subset)})
    closed = layers["sp4_closed_form.closed_form_exp_per_op"][0] * len(subset)
    for key, (value, unit) in metrics.items():
        note = "" if key.endswith("import_ms") else f"  over {len(subset)} traced ops"
        if key == "sp4_closed_form.fallback_share":
            note = f"  of {closed:.0f} closed_form_exp calls"
        if key == "trace.overhead_pct":
            note = f"  traced p50 vs untraced p50 in reference-kernel units ({len(traced)} vs {len(untraced)} ops)"
        print(f"{key:42s} {value:12.4f} {unit}{note}")
    print(f"spans: {len(tracer)} written to {os.path.relpath(spans_file, bench_env.ROOT)}")
    with open(_out_path("layers", args, "json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance(), "traced_ops": len(subset),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, fh, indent=1)
    return metrics, len(untraced) + len(traced), failed


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_env.require_source()
    if args.workload == "all":
        return run_all(args)

    # An untimed cold start first writes the bytecode caches, so that every
    # process below, this one included, loads the library the same way.
    _child(_cold_start_cmd(args.workload, args.seed))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cases = workload.build(args.seed)
    prov = provenance()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    metrics, attempted, failed = (run_traced if args.trace else run_timed)(workload, cases, args)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
