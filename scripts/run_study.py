"""Run the full replication study: every scenario preset at full scale.

Each scenario runs through ``treatrank montecarlo --preset NAME``, which
writes its output directory (``summary.json`` and the resolved config).
This script adds ``ranking_rates.csv``, each scenario's correct-ranking
rate per method, read from its ``summary.json``. Reduce --reps / --n for a
quick pass.

    python scripts/run_study.py --out results/ --workers 4
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import treatrank as tr
from treatrank import cli


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--reps", type=int, default=None, help="override replicate count")
    parser.add_argument("--n", type=int, default=None, help="override observations per replicate")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--scenarios", nargs="*", default=[s.value for s in tr.ScenarioName],
        help="subset of scenario names to run",
    )
    args = parser.parse_args()

    combined = []
    for name in args.scenarios:
        out = args.out / name
        argv = ["montecarlo", "--preset", name, "--out", str(out), "--workers", str(args.workers)]
        for flag, value in (("--reps", args.reps), ("--n", args.n)):
            if value is not None:
                argv += [flag, str(value)]
        print(f"== {name} ...", flush=True)
        if cli.main(argv) != 0:
            sys.exit(f"scenario {name} failed")
        rates = json.loads((out / "summary.json").read_text())["result"]["correct_ranking_rate"]
        print("   ranking rates " + ", ".join(f"{m} {r}" for m, r in rates.items()))
        combined += [{"scenario": name, "method": m, "correct_ranking_rate": r}
                     for m, r in rates.items()]

    with open(args.out / "ranking_rates.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["scenario", "method", "correct_ranking_rate"])
        writer.writeheader()
        writer.writerows(combined)
    print(f"done -> {args.out}")


if __name__ == "__main__":
    main()
