"""Cold-start probe: import the library and build one workload's cases.

    python3 bench/cold_start.py <workload> <seed>

run.py times this script, start to exit, as the workload's ``setup_s``.
"""
import sys

import bench_env  # pins thread pools before numpy loads

bench_env.require_source()

import sympberry  # noqa: E402,F401
import sympberry.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
