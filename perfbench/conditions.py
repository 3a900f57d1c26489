"""Run conditions recorded with every run, read-only.

Static facts (machine, BLAS, versions, source size) plus load snapshots
taken before and after each workload, so runs made under contention show:
a rise in steal ticks or a load average above the one benchmark thread.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
import time

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the BLAS library numpy loaded, if it says."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def source_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "stepsum", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def machine(root: str) -> dict:
    import numpy as np

    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas_library(),
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "STEPSUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "src_stepsum_lines": source_lines(root),
    }


def snapshot() -> dict:
    """Load average and cumulative steal ticks from /proc, if readable."""
    out: dict = {"time": time.time()}
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            out["loadavg"] = [float(x) for x in fh.read().split()[:3]]
        with open("/proc/stat", encoding="utf-8") as fh:
            cpu = fh.readline().split()
        out["steal_ticks"] = int(cpu[8]) if len(cpu) > 8 else 0
        out["total_ticks"] = sum(int(x) for x in cpu[1:])
    except (OSError, ValueError):
        pass
    return out
