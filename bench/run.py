"""treatrank benchmark: replication studies and the sample/estimate CLI.

    python3 bench/run.py --workload mc_reversal --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Prints the host, every correctness gate, notes and every metric by name
with its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the ``end_to_end`` ones of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the ``per_layer`` ones from a traced replay. A run
that fails a gate reports no metrics and exits 1. Spans, gates and host
details of each run are written to ``bench/out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import env

WORKLOAD_NAMES = ("mc_reversal", "mc_small_n", "cli_multiarm")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="untraced measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end_to_end and per_layer lists of BENCHMARK.json."""
    spec = json.loads(env.BENCHMARK_JSON.read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def result_line(outcome, trace: bool, units: dict[str, dict[str, str]]) -> dict:
    """The final JSON object; a run that failed a gate reports no metrics."""
    kind = "per_layer" if trace else "end_to_end"
    measured = outcome.per_layer if trace else outcome.end_to_end
    if set(measured) != set(units[kind]):
        raise SystemExit(f"benchmark: measured {sorted(measured)}, declared {sorted(units[kind])}")
    if not all(math.isfinite(v) for v in measured.values()):
        raise SystemExit(f"benchmark: a metric is not a finite number: {measured}")
    metrics = {}
    if outcome.correct:
        metrics = {m: {"value": float(v), "unit": units[kind][m]} for m, v in measured.items()}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def run_one(args: argparse.Namespace) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env.OUT.mkdir(exist_ok=True)
    workdir = env.OUT / f"work-{os.getpid()}"
    try:
        outcome = workloads.run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units()
    line = result_line(outcome, bool(args.trace), units)

    print(f"== {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("host " + json.dumps(outcome.host, sort_keys=True))
    for gate in outcome.gates:
        print(f"gate {'PASS' if gate.ok else 'FAIL'} {gate.name}: {gate.detail}")
    for note in outcome.notes:
        print(f"note {note}")
    for kind, measured in (("end_to_end", outcome.end_to_end), ("per_layer", outcome.per_layer)):
        for name, value in measured.items():
            print(f"{kind} {name} = {value:.6g} {units[kind][name]}")
    share = outcome.failed / outcome.attempted
    print(f"failed_share = {share:.6g} share ({outcome.failed} of {outcome.attempted} "
          "estimates and gates failed)")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": outcome.host, "gates": [g.__dict__ for g in outcome.gates], "notes": outcome.notes,
        "end_to_end": outcome.end_to_end, "per_layer": outcome.per_layer,
        "attempted": outcome.attempted, "failed": outcome.failed, "samples": outcome.samples,
        "spans": outcome.spans,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (env.OUT / name).write_text(json.dumps(record) + "\n")

    print(json.dumps(line), flush=True)
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    env.prepare()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
