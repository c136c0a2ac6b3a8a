"""Time one benchmark set-up in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
    python3 bench/setup_probe.py --serve WORKLOAD SEED WORKDIR

The first form imports the package, then loads and validates the
workload's preset (or builds its DGP) and writes the DGP config. It prints
one JSON line with the elapsed seconds and this process's BLAS thread
count. The second form starts one such probe for each line read from
standard input and echoes the probe's JSON line, until standard input
closes. The benchmark starts this server before its measuring rounds: a
child it started later would report the benchmark's own resident memory
as its peak, and ``peak_rss_mb`` would no longer see the workers' peak.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def probe(argv: list[str]) -> None:
    import env

    env.prepare()

    import host
    import workloads

    name, seed, workdir = argv
    workloads.setup(workloads.WORKLOADS[name], int(seed), Path(workdir))
    elapsed = time.perf_counter() - _start
    print(json.dumps({"seconds": elapsed, "blas_threads": host.blas_threads()}))


def serve(argv: list[str]) -> None:
    import subprocess

    name, seed, workdir = argv
    for i, _ in enumerate(sys.stdin):
        done = subprocess.run(
            [sys.executable, __file__, name, seed, str(Path(workdir) / f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        print(done.stdout.strip().splitlines()[-1], flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--serve":
        serve(sys.argv[2:])
    else:
        probe(sys.argv[1:])
