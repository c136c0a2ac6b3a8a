"""Command-line front end.

Subcommands:

* ``oracle``      closed-form estimands and reversal flags for a DGP config
* ``sample``      draw a dataset from a DGP config and write it as CSV
* ``estimate``    PLM/AIPW/IPW estimates, decompositions, and ranking
* ``decompose``   estimated WATE = ATE + Cov reports only
* ``reversal``    pairwise reversal checks (plus sufficient conditions)
* ``montecarlo``  run a replication scenario and emit summary/plot data

Command-level errors (bad config, bad flags, a nuisance fit the data cannot
support) exit nonzero; per-estimator failures inside ``estimate`` are
recorded in the output files and do not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
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
from .dgp import Dataset, StratifiedDGP, oracle_decomposition, sample
from .diagnostics import (
    DecompositionReport,
    NotEstimableError,
    check_reversal,
    estimate_decomposition,
    oracle_report,
    rank_treatments,
    sufficient_condition_check,
)
from .estimators import ESTIMATION_ERRORS, ESTIMATORS, Method
from .montecarlo import histogram_rows, preset, replicate_rows, run_scenario, scaled, summarize
from .nuisance import (
    DEFAULT_CLIP, DEFAULT_NUM_FOLDS, LearnerKind, LearnerSpec, NuisanceFit, assign_folds, fit_crossfit,
)

ESTIMATES_HEADER = ["treatment", "method", "estimand", "point", "std_error", "n_used", "error"]
DECOMPOSITION_HEADER = [
    "treatment", "source", "ate", "cov_tau_gamma", "wate", "dropped_strata", "error",
]
DECOMPOSITION_STRATA_HEADER = ["treatment", "stratum", "probability", "tau", "gamma"]
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


def _report_row(r: DecompositionReport) -> dict:
    """A report's scalar fields, in output order."""
    return {
        "treatment": r.treatment,
        "source": r.source.value,
        "ate": r.ate,
        "cov_tau_gamma": r.cov_tau_gamma,
        "wate": r.wate,
        "dropped_strata": r.dropped_strata,
    }


def _stratum_rows(r: DecompositionReport) -> list[dict]:
    return [
        {"stratum": s.stratum, "probability": s.probability, "tau": s.tau, "gamma": s.gamma}
        for s in r.per_stratum
    ]


def _strata_csv_rows(reports) -> list[dict]:
    return [{"treatment": r.treatment, **row} for r in reports for row in _stratum_rows(r)]


def _pairwise_reversals(reports, delta: float | None) -> list[dict]:
    rows = []
    for i, rj in enumerate(reports):
        for rk in reports[i + 1 :]:
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


def _oracle_pairs(args) -> tuple[StratifiedDGP, list[DecompositionReport], list[dict]]:
    """The ``--config`` DGP, its oracle reports and their pairwise reversal rows."""
    dgp = load_dgp_config(args.config)
    reports = [oracle_report(dgp, j) for j in range(1, dgp.num_treatments + 1)]
    return dgp, reports, _pairwise_reversals(reports, args.delta)


def cmd_oracle(args: argparse.Namespace) -> None:
    dgp, reports, pairs = _oracle_pairs(args)
    quantities = [oracle_decomposition(dgp, j) for j in range(1, dgp.num_treatments + 1)]
    rows = [
        {"treatment": q.treatment, "ate": q.ate, "wate": q.wate, "cov_tau_gamma": q.cov_tau_gamma}
        for q in quantities
    ]
    if args.format == "json":
        payload = {
            "treatments": [
                {**row, "gamma": {int(c): float(g) for c, g in zip(dgp.stratum_codes, q.gamma)}}
                for row, q in zip(rows, quantities)
            ],
            "reversed_pairs": [
                [row["treatment_j"], row["treatment_k"]] for row in pairs if row["reversed"]
            ],
            "pairs": pairs,
        }
        _write_json(args.out / "oracle.json", payload)
    else:
        _write_csv(args.out / "oracle.csv", ORACLE_HEADER, rows)
        _write_csv(args.out / "oracle_weights.csv", ORACLE_WEIGHTS_HEADER, _strata_csv_rows(reports))
        _write_csv(args.out / "reversal.csv", REVERSAL_HEADER, pairs)


def cmd_reversal(args: argparse.Namespace) -> None:
    _, _, pairs = _oracle_pairs(args)
    if args.format == "json":
        _write_json(args.out / "reversal.json", {"pairs": pairs})
    else:
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
    elif args.config is None:
        raise ConfigError("provide either --data or --config with --n/--seed")
    else:
        data, _ = _sampled(args)
        # the fold stream of --seed itself is the sample's stratum stream
        fold_seed = rng.child_seed(args.seed, rng.FOLD)
    folds = assign_folds(data.n, args.folds, fold_seed)
    return data, fit_crossfit(data, LearnerSpec(kind=args.learner), folds, args.clip)


def _write_decompositions(args, data: Dataset, fit: NuisanceFit) -> None:
    """Decompose every treatment; one that is not estimable becomes an error row."""
    reports, errors = [], []
    for j in range(1, data.num_treatments + 1):
        try:
            reports.append(estimate_decomposition(data, fit, j))
        except NotEstimableError as exc:
            errors.append({"treatment": j, "error": str(exc)})
    if args.format == "json":
        payload = [{**_report_row(r), "per_stratum": _stratum_rows(r)} for r in reports]
        _write_json(args.out / "decomposition.json", payload + errors)
    else:
        main = [{**_report_row(r), "error": ""} for r in reports] + errors
        main.sort(key=lambda r: r["treatment"])
        _write_csv(args.out / "decomposition.csv", DECOMPOSITION_HEADER, main)
        _write_csv(args.out / "decomposition_strata.csv", DECOMPOSITION_STRATA_HEADER,
                   _strata_csv_rows(reports))


def cmd_estimate(args: argparse.Namespace) -> None:
    data, fit = _fitted(args)
    estimate_rows: list[dict] = []
    kept = []
    for method, estimator in ESTIMATORS.items():
        for j in range(1, data.num_treatments + 1):
            row = {"treatment": j, "method": method.value}
            try:
                est = estimator(data, fit, j)
            except ESTIMATION_ERRORS as exc:  # estimator-level failure is data, not an exit code
                estimate_rows.append({**row, "error": str(exc)})
                continue
            kept.append(est)
            estimate_rows.append(
                {**row, "estimand": est.estimand.value, "point": est.point,
                 "std_error": est.std_error, "n_used": est.n_used, "error": ""}
            )
    _write_csv(args.out / "estimates.csv", ESTIMATES_HEADER, estimate_rows)

    _write_decompositions(args, data, fit)

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


def cmd_decompose(args: argparse.Namespace) -> None:
    _write_decompositions(args, *_fitted(args))


def cmd_montecarlo(args: argparse.Namespace) -> None:
    if args.preset is not None:
        config = preset(args.preset)
    elif args.config is not None:
        config = load_scenario_config(args.config)
    else:
        raise ConfigError("provide --preset or --config for montecarlo")
    config = scaled(
        config,
        n_per_rep=args.n,
        num_reps=args.reps,
        seed=args.seed,
        num_folds=args.folds,
        learner=LearnerSpec(kind=args.learner) if args.learner is not None else None,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treatrank",
        description="Estimate, decompose, and rank treatment effects for multiple binary treatments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool = False,
                   formatted: bool = True) -> None:
        p.add_argument("--config", type=Path, required=config_required,
                       help="DGP or scenario config file (YAML)")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override for all substreams")
        if formatted:
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="report format (default json)")

    def add_fit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--folds", type=int, default=None,
                       help=f"cross-fitting folds (default {DEFAULT_NUM_FOLDS})")
        p.add_argument("--learner", choices=tuple(k.value for k in LearnerKind),
                       default=None,
                       help="nuisance learner (default stratum_mean)")
        p.add_argument("--clip", type=float, default=None,
                       help=f"propensity clipping bound (default {DEFAULT_CLIP})")

    p = sub.add_parser("oracle", help="closed-form estimands and reversal flags")
    add_common(p, config_required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="also evaluate the delta-sufficient conditions")

    # sample writes a dataset CSV and a YAML config, so it takes no --format
    p = sub.add_parser("sample", help="draw a dataset from a DGP config")
    add_common(p, config_required=True, formatted=False)
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.set_defaults(seed=0)

    for name, helptext in (
        ("estimate", "PLM/AIPW/IPW estimates, decompositions, and ranking"),
        ("decompose", "estimated decomposition reports"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        p.add_argument("--data", type=Path, default=None, help="dataset CSV to import")
        p.add_argument("--n", type=int, default=None, help="sample size (with --config)")
        add_fit_flags(p)
        # montecarlo keeps None for these: "use the scenario's own setting"
        p.set_defaults(seed=0, folds=DEFAULT_NUM_FOLDS, learner=LearnerKind.STRATUM_MEAN.value,
                       clip=DEFAULT_CLIP)

    p = sub.add_parser("reversal", help="pairwise rank-reversal checks from a DGP config")
    add_common(p, config_required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="also evaluate the delta-sufficient conditions")

    # montecarlo always writes both layouts, so it takes no --format
    p = sub.add_parser("montecarlo", help="run a replication scenario")
    add_common(p, formatted=False)
    p.add_argument("--preset", default=None, help="named scenario preset")
    p.add_argument("--n", type=int, default=None, help="override observations per replicate")
    p.add_argument("--reps", type=int, default=None, help="override replicate count")
    p.add_argument("--workers", type=int, default=1, help="processes, this one included (default 1)")
    add_fit_flags(p)

    return parser


COMMANDS = {
    "oracle": cmd_oracle,
    "sample": cmd_sample,
    "estimate": cmd_estimate,
    "decompose": cmd_decompose,
    "reversal": cmd_reversal,
    "montecarlo": cmd_montecarlo,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](args)
    except (ConfigError, NotEstimableError, ValueError, OSError, *ESTIMATION_ERRORS) as exc:
        print(f"treatrank {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
