"""Command-line front end.

Subcommands:

* ``oracle``      closed-form estimands and pairwise reversal checks (plus
                  the delta-sufficient conditions) for a DGP config
* ``sample``      draw a dataset from a DGP config and write it as CSV
* ``estimate``    PLM/AIPW/IPW estimates, decompositions, and ranking
* ``montecarlo``  run a replication scenario and emit summary/plot data

Each command writes one fixed set of files, and each output has one
producer: only ``oracle`` writes reversal rows (``oracle.json`` and its
three CSV tables), and only ``estimate`` writes decompositions
(``decomposition.json``).

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
from dataclasses import replace
from itertools import combinations, takewhile
from pathlib import Path

from . import rng
from .configio import (
    ConfigError,
    load_dataset_csv,
    load_dgp_config,
    load_scenario_config,
    write_dataset_csv,
    write_dgp_config,
    write_scenario_config,
)
from .dgp import Dataset, StratifiedDGP, sample
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
from .montecarlo import histogram_rows, preset, replicate_rows, run_scenario, scaled, summarize
from .nuisance import (
    DEFAULT_CLIP, DEFAULT_NUM_FOLDS, LearnerKind, LearnerSpec, NuisanceFit, assign_folds, fit_crossfit,
)

ESTIMATES_HEADER = ["treatment", "method", "estimand", "point", "std_error", "n_used", "error"]
REVERSAL_HEADER = ["treatment_j", "treatment_k", "reversed", "margin", "sufficient_condition"]
ORACLE_HEADER = ["treatment", "ate", "wate", "cov_tau_gamma"]
ORACLE_WEIGHTS_HEADER = ["treatment", "stratum", "probability", "tau", "gamma"]
REPLICATES_HEADER = ["replicate", "method", "treatment", "estimate"]
RANKING_RATES_HEADER = ["method", "correct_ranking_rate"]
HISTOGRAM_HEADER = ["method", "treatment", "bin_left", "bin_right", "count"]
SUMMARY_HEADER = [
    "scenario", "method", "treatment", "mean", "sd", "q025", "q500", "q975",
    "oracle_ate", "oracle_wate", "bias_vs_ate", "bias_vs_wate",
    "correct_ranking_rate", "failures",
]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # a row's missing fields are written empty (DictWriter's restval)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _stratum_rows(r: DecompositionReport) -> list[dict]:
    return [
        {"stratum": s.stratum, "probability": s.probability, "tau": s.tau, "gamma": s.gamma}
        for s in r.per_stratum
    ]


def _pairwise_reversals(reports, delta: float | None) -> list[dict]:
    rows = []
    for rj, rk in combinations(reports, 2):
        res = check_reversal(rj, rk)
        sufficient = None
        if delta is not None:
            high, low = (rj, rk) if rj.ate >= rk.ate else (rk, rj)
            sufficient = sufficient_condition_check(high, low, delta)
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
    rows = [
        {"treatment": r.treatment, "ate": r.ate, "wate": r.wate, "cov_tau_gamma": r.cov_tau_gamma}
        for r in reports
    ]
    payload = {
        "treatments": [
            {**row, "gamma": {s.stratum: s.gamma for s in r.per_stratum}}
            for row, r in zip(rows, reports)
        ],
        "reversed_pairs": [
            [row["treatment_j"], row["treatment_k"]] for row in pairs if row["reversed"]
        ],
        "pairs": pairs,
    }
    _write_json(args.out / "oracle.json", payload)
    _write_csv(args.out / "oracle.csv", ORACLE_HEADER, rows)
    _write_csv(args.out / "oracle_weights.csv", ORACLE_WEIGHTS_HEADER,
               [{"treatment": r.treatment, **row} for r in reports for row in _stratum_rows(r)])
    _write_csv(args.out / "reversal.csv", REVERSAL_HEADER, pairs)


def _sampled(args) -> tuple[Dataset, StratifiedDGP]:
    """``--n`` units drawn from the ``--config`` DGP with ``--seed``."""
    dgp = load_dgp_config(args.config)
    if args.n is None or args.n < 1:
        raise ConfigError(f"--n must be a positive sample size, got {args.n}")
    return sample(dgp, args.n, args.seed), dgp


def cmd_sample(args: argparse.Namespace) -> None:
    data, dgp = _sampled(args)
    write_dataset_csv(data, args.out / "dataset.csv")
    write_dgp_config(dgp, args.out / "resolved_dgp.yaml")


def _fitted(args) -> tuple[Dataset, NuisanceFit]:
    """The ``--data`` or sampled dataset and its cross-fitted nuisances."""
    if args.data is not None:
        data = load_dataset_csv(args.data)
        fold_seed = args.seed
    else:
        data, _ = _sampled(args)
        # the fold stream of --seed itself is the sample's stratum stream
        fold_seed = rng.child_seed(args.seed, rng.FOLD)
    folds = assign_folds(data.n, args.folds, fold_seed)
    return data, fit_crossfit(data, LearnerSpec(kind=args.learner), folds, args.clip)


def _write_decompositions(out: Path, data: Dataset, fit: NuisanceFit, points: dict) -> None:
    """Split each treatment's PLM and AIPW points; one not estimable becomes an error row."""
    reports, errors = [], []
    for j in range(1, data.num_treatments + 1):
        try:
            reports.append(split_points(fit, j, points[Method.PLM, j], points[Method.AIPW, j]))
        except NotEstimableError as exc:
            errors.append({"treatment": j, "error": str(exc)})
    payload = [
        {"treatment": r.treatment, "source": r.source.value, "ate": r.ate,
         "cov_tau_gamma": r.cov_tau_gamma, "wate": r.wate, "remainder": r.remainder,
         "per_stratum": _stratum_rows(r)}
        for r in reports
    ]
    _write_json(out / "decomposition.json", payload + errors)  # the error rows last


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
    config = scaled(
        config,
        n_per_rep=args.n,
        num_reps=args.reps,
        seed=args.seed,
        num_folds=args.folds,
        # the flag names the kind only: the scenario's penalty and basis stay
        learner=replace(config.learner, kind=args.learner) if args.learner is not None else None,
        clip=args.clip,
    )
    result = run_scenario(config, workers=args.workers)
    summary = summarize(result)

    out = args.out
    write_scenario_config(config, out / "resolved_config.yaml")
    _write_json(out / "summary.json", {"result": result.to_dict(), "summary": summary})
    _write_csv(out / "summary.csv", SUMMARY_HEADER, summary)
    _write_csv(out / "replicates.csv", REPLICATES_HEADER, replicate_rows(result))
    _write_csv(
        out / "ranking_rates.csv",
        RANKING_RATES_HEADER,
        (
            {"method": m, "correct_ranking_rate": r}
            for m, r in result.correct_ranking_rate.items()
        ),
    )
    _write_csv(out / "estimate_histograms.csv", HISTOGRAM_HEADER, histogram_rows(result))


class _DataExcludesN(argparse.Action):
    """``estimate``'s ``--data`` or ``--n``: the two together are a usage error.

    ``--data`` is already in ``--config``'s mutually exclusive group, and
    argparse puts an option in one group at most, so this action checks the
    pair as argparse checks a group: when the second of them is parsed.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        other = "n" if self.dest == "data" else "data"
        if getattr(namespace, other) is not None:
            parser.error(f"argument {option_string}: not allowed with argument --{other}")
        setattr(namespace, self.dest, values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``treatrank`` argument parser, built on the first call and shared after.

    Building it (four subcommands, about 30 arguments) takes about 1.5 ms,
    as long as a third of a ``sample`` at n = 200, so ``main`` parses every
    argv of a process with this one parser. ``parse_args`` only reads a
    parser and fills a fresh namespace, so no call sees another's
    arguments; do not add to the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="treatrank",
        description="Estimate, decompose, and rank treatment effects for multiple binary treatments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool = False, source=None) -> None:
        (source or p).add_argument("--config", type=Path, required=config_required,
                                   help="DGP or scenario config file (YAML)")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    def add_fit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--folds", type=int, default=None,
                       help=f"cross-fitting folds (default {DEFAULT_NUM_FOLDS})")
        p.add_argument("--learner", choices=tuple(k.value for k in LearnerKind),
                       default=None,
                       help="nuisance learner (default stratum_mean)")
        p.add_argument("--clip", type=float, default=None,
                       help=f"propensity clipping bound (default {DEFAULT_CLIP})")

    # every command writes one fixed set of files: none takes a --format
    p = sub.add_parser("oracle", help="closed-form estimands and reversal flags")
    add_common(p, config_required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="also evaluate the delta-sufficient conditions")

    p = sub.add_parser("sample", help="draw a dataset from a DGP config")
    add_common(p, config_required=True)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=0, help="dataset seed (default 0)")

    # estimate samples --n units from --config, or imports --data
    p = sub.add_parser("estimate", help="PLM/AIPW/IPW estimates, decompositions, and ranking")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=Path, default=None, action=_DataExcludesN,
                        help="dataset CSV to import")
    add_common(p, source=source)
    p.add_argument("--n", type=int, default=None, action=_DataExcludesN,
                   help="sample size (with --config)")
    p.add_argument("--seed", type=int, default=0,
                   help="dataset seed with --config, fold seed with --data (default 0)")
    add_fit_flags(p)
    # montecarlo keeps None for these: "use the scenario's own setting"
    p.set_defaults(folds=DEFAULT_NUM_FOLDS, learner=LearnerKind.STRATUM_MEAN.value,
                   clip=DEFAULT_CLIP)

    p = sub.add_parser("montecarlo", help="run a replication scenario")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", default=None, help="named scenario preset")
    add_common(p, source=source)
    p.add_argument("--n", type=int, default=None, help="override observations per replicate")
    p.add_argument("--reps", type=int, default=None, help="override replicate count")
    p.add_argument("--workers", type=int, default=1, help="processes, this one included (default 1)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    add_fit_flags(p)

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
