"""Process set-up shared by every benchmark process.

Importing this module pins the BLAS and OpenMP thread pools to one thread,
so it must be imported before numpy is; child processes inherit the
setting. It also puts the checkout's ``src`` directory first on
``sys.path``: the benchmark always measures the library source of the
checkout it sits in, never an installed copy.
"""
from __future__ import annotations

import os
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Child interpreters write and reuse bytecode caches whatever the caller's
# environment says, so cold-start times never include compiling the source.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def require_source() -> None:
    """Exit with status 2 unless the library source is present."""
    if not os.path.isfile(os.path.join(SRC, "sympberry", "__init__.py")):
        sys.stderr.write(f"bench: no library source at {SRC}/sympberry\n")
        sys.exit(2)


def git_commit() -> str:
    """HEAD commit of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine() or "unknown"
