"""Point the benchmark at this checkout's package source and pin BLAS threads.

Every benchmark entry point imports this module and calls :func:`prepare`
before numpy is imported, because OpenBLAS reads its thread count once,
when numpy loads it. One BLAS thread per process means the two workers of a
``workers=2`` run never use more than two cores.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1


def prepare() -> None:
    """Exit with an error unless the package source is present, then set up imports."""
    if not (SRC / "treatrank" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
