"""Set-up probe: time `import cumasim` plus the workload's model set-up.

    python3 bench/probe.py WORKLOAD

Runs in a fresh process so that work moved into import or set-up shows.
Prints one JSON line: ``setup_s`` and the manifest of this environment.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from workloads import WORKLOADS


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(workload: str) -> None:
    setup = WORKLOADS[workload].setup
    t0 = time.perf_counter()
    from cumasim import ChannelStats, correlation_matrix, preset_grid

    for preset, users in setup:
        grid = preset_grid(preset)
        correlation_matrix(grid)
        ChannelStats.from_grid(grid, users)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "manifest": manifest()}))


if __name__ == "__main__":
    main(sys.argv[1])
