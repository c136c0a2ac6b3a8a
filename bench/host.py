"""What the benchmark ran on: core count, versions and BLAS threads per process."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=1)
def _openblas():
    """The OpenBLAS library numpy loaded, or None when it cannot be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(suffix: str):
    lib = _openblas()
    if lib is None:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            try:
                return getattr(lib, f"{prefix}{suffix}{tail}")
            except AttributeError:
                continue
    return None


def blas_threads(_: object = None) -> int | None:
    """OpenBLAS thread count of the calling process (None if unknown)."""
    fn = _symbol("get_num_threads")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def openblas_config() -> str | None:
    fn = _symbol("get_config")
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_char_p
    return fn().decode()


def fork_worker_blas_threads(workers: int = 2) -> list[int | None]:
    """BLAS threads seen by the workers of a default-context process pool.

    ``run_scenario`` starts its pool with the default context, so these
    workers inherit exactly what its workers inherit.
    """
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(blas_threads, range(workers)))


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, or None where unreadable.

    Steal is time the hypervisor gave this machine's CPUs to other guests;
    its share over a run tells how much of the run's noise came from outside.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(start: tuple[int, int] | None, end: tuple[int, int] | None) -> float | None:
    if start is None or end is None or end[1] == start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_config(),
        "blas_threads": {"benchmark": blas_threads(), "pool_workers": fork_worker_blas_threads()},
    }
