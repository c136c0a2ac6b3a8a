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
from dataclasses import dataclass
from pathlib import Path

from .configio import (
    ConfigError,
    load_dataset_csv,
    load_dgp_config,
    write_dataset_csv,
    write_dgp_config,
)
from .dgp import Dataset, StratifiedDGP, oracle_decomposition, sample
from .diagnostics import (
    NotEstimableError,
    check_reversal,
    estimate_decomposition,
    oracle_report,
    rank_treatments,
    sufficient_condition_check,
)
from .estimators import ESTIMATION_ERRORS, Method, aipw_estimate, ipw_estimate, plm_estimate
from .montecarlo import (
    histogram_rows,
    load_scenario_config,
    preset,
    replicate_rows,
    run_scenario,
    scaled,
    summarize,
    write_scenario_config,
)
from .nuisance import DEFAULT_CLIP, DEFAULT_NUM_FOLDS, LearnerKind, LearnerSpec, assign_folds, fit_crossfit

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


@dataclass
class RunManifest:
    """Everything one CLI invocation needs, resolved from flags."""

    command: str
    output_dir: Path
    config_path: Path | None = None
    data_path: Path | None = None
    seed: int | None = None
    format: str = "json"
    preset: str | None = None
    n: int | None = None
    reps: int | None = None
    folds: int | None = None
    learner: LearnerSpec | None = None
    clip: float | None = None
    workers: int = 1
    delta: float | None = None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _decomposition_rows(reports) -> tuple[list[dict], list[dict]]:
    main = [
        {
            "treatment": r.treatment,
            "source": r.source.value,
            "ate": r.ate,
            "cov_tau_gamma": r.cov_tau_gamma,
            "wate": r.wate,
            "dropped_strata": r.dropped_strata,
            "error": "",
        }
        for r in reports
    ]
    strata = [
        {
            "treatment": r.treatment,
            "stratum": row.stratum,
            "probability": row.probability,
            "tau": row.tau,
            "gamma": row.gamma,
        }
        for r in reports
        for row in r.per_stratum
    ]
    return main, strata


def _report_dict(r) -> dict:
    return {
        "treatment": r.treatment,
        "source": r.source.value,
        "ate": r.ate,
        "cov_tau_gamma": r.cov_tau_gamma,
        "wate": r.wate,
        "dropped_strata": r.dropped_strata,
        "per_stratum": [
            {"stratum": s.stratum, "probability": s.probability, "tau": s.tau, "gamma": s.gamma}
            for s in r.per_stratum
        ],
    }


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


def cmd_oracle(manifest: RunManifest) -> None:
    dgp = load_dgp_config(manifest.config_path)
    quantities = [oracle_decomposition(dgp, j) for j in range(1, dgp.num_treatments + 1)]
    reports = [oracle_report(dgp, j) for j in range(1, dgp.num_treatments + 1)]
    pairs = _pairwise_reversals(reports, manifest.delta)
    reversed_pairs = [
        [row["treatment_j"], row["treatment_k"]] for row in pairs if row["reversed"]
    ]
    out = manifest.output_dir
    if manifest.format == "json":
        payload = {
            "treatments": [
                {
                    "treatment": q.treatment,
                    "ate": q.ate,
                    "wate": q.wate,
                    "cov_tau_gamma": q.cov_tau_gamma,
                    "gamma": {int(c): float(g) for c, g in zip(dgp.stratum_codes, q.gamma)},
                }
                for q in quantities
            ],
            "reversed_pairs": reversed_pairs,
            "pairs": pairs,
        }
        _write_json(out / "oracle.json", payload)
    else:
        _write_csv(
            out / "oracle.csv",
            ORACLE_HEADER,
            (
                {"treatment": q.treatment, "ate": q.ate, "wate": q.wate,
                 "cov_tau_gamma": q.cov_tau_gamma}
                for q in quantities
            ),
        )
        _, strata_rows = _decomposition_rows(reports)
        _write_csv(out / "oracle_weights.csv", ORACLE_WEIGHTS_HEADER, strata_rows)
        _write_csv(out / "reversal.csv", REVERSAL_HEADER, pairs)


def _resolve_dataset(manifest: RunManifest) -> tuple[Dataset, StratifiedDGP | None]:
    if manifest.data_path is not None:
        return load_dataset_csv(manifest.data_path), None
    if manifest.config_path is None:
        raise ConfigError("provide either --data or --config with --n/--seed")
    dgp = load_dgp_config(manifest.config_path)
    if manifest.n is None or manifest.n < 1:
        raise ConfigError(f"--n must be a positive sample size, got {manifest.n}")
    seed = manifest.seed if manifest.seed is not None else 0
    return sample(dgp, manifest.n, seed), dgp


def cmd_sample(manifest: RunManifest) -> None:
    data, dgp = _resolve_dataset(manifest)
    write_dataset_csv(data, manifest.output_dir / "dataset.csv")
    if dgp is not None:
        write_dgp_config(dgp, manifest.output_dir / "resolved_dgp.yaml")


def _fit(data: Dataset, manifest: RunManifest):
    folds = assign_folds(
        data.n,
        manifest.folds if manifest.folds is not None else DEFAULT_NUM_FOLDS,
        manifest.seed if manifest.seed is not None else 0,
    )
    learner = manifest.learner if manifest.learner is not None else LearnerSpec()
    clip = manifest.clip if manifest.clip is not None else DEFAULT_CLIP
    return fit_crossfit(data, learner, folds, clip)


def cmd_estimate(manifest: RunManifest) -> None:
    data, _ = _resolve_dataset(manifest)
    fit = _fit(data, manifest)
    out = manifest.output_dir

    estimate_rows: list[dict] = []
    kept = []
    for method, fn in ((Method.PLM, plm_estimate), (Method.AIPW, aipw_estimate), (Method.IPW, ipw_estimate)):
        for j in range(1, data.num_treatments + 1):
            try:
                est = fn(data, fit, j)
            except ESTIMATION_ERRORS as exc:  # estimator-level failure is data, not an exit code
                estimate_rows.append(
                    {"treatment": j, "method": method.value, "estimand": "",
                     "point": "", "std_error": "", "n_used": "", "error": str(exc)}
                )
                continue
            kept.append(est)
            estimate_rows.append(
                {"treatment": j, "method": method.value, "estimand": est.estimand.value,
                 "point": est.point, "std_error": est.std_error, "n_used": est.n_used,
                 "error": ""}
            )
    _write_csv(out / "estimates.csv", ESTIMATES_HEADER, estimate_rows)

    reports = []
    report_errors = []
    for j in range(1, data.num_treatments + 1):
        try:
            reports.append(estimate_decomposition(data, fit, j))
        except NotEstimableError as exc:
            report_errors.append({"treatment": j, "error": str(exc)})
    _write_decompositions(manifest, reports, "decomposition", errors=report_errors)

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
    _write_json(out / "ranking.json", payload)


def _write_decompositions(
    manifest: RunManifest, reports, stem: str, errors: list[dict] | None = None
) -> None:
    out = manifest.output_dir
    errors = errors or []
    if manifest.format == "json":
        _write_json(out / f"{stem}.json", [_report_dict(r) for r in reports] + errors)
    else:
        main, strata = _decomposition_rows(reports)
        for err in errors:
            main.append(
                {"treatment": err["treatment"], "source": "", "ate": "",
                 "cov_tau_gamma": "", "wate": "", "dropped_strata": "",
                 "error": err["error"]}
            )
        main.sort(key=lambda r: r["treatment"])
        _write_csv(out / f"{stem}.csv", DECOMPOSITION_HEADER, main)
        _write_csv(out / f"{stem}_strata.csv", DECOMPOSITION_STRATA_HEADER, strata)


def cmd_decompose(manifest: RunManifest) -> None:
    data, _ = _resolve_dataset(manifest)
    fit = _fit(data, manifest)
    reports = []
    report_errors = []
    for j in range(1, data.num_treatments + 1):
        try:
            reports.append(estimate_decomposition(data, fit, j))
        except NotEstimableError as exc:
            report_errors.append({"treatment": j, "error": str(exc)})
    _write_decompositions(manifest, reports, "decomposition", errors=report_errors)


def cmd_reversal(manifest: RunManifest) -> None:
    dgp = load_dgp_config(manifest.config_path)
    reports = [oracle_report(dgp, j) for j in range(1, dgp.num_treatments + 1)]
    pairs = _pairwise_reversals(reports, manifest.delta)
    if manifest.format == "json":
        _write_json(manifest.output_dir / "reversal.json", {"pairs": pairs})
    else:
        _write_csv(manifest.output_dir / "reversal.csv", REVERSAL_HEADER, pairs)


def cmd_montecarlo(manifest: RunManifest) -> None:
    if manifest.preset is not None:
        config = preset(manifest.preset)
    elif manifest.config_path is not None:
        config = load_scenario_config(manifest.config_path)
    else:
        raise ConfigError("provide --preset or --config for montecarlo")
    config = scaled(
        config,
        n_per_rep=manifest.n,
        num_reps=manifest.reps,
        seed=manifest.seed,
        num_folds=manifest.folds,
        learner=manifest.learner,
        clip=manifest.clip,
    )
    result = run_scenario(config, workers=manifest.workers)
    summary = summarize(result)

    out = manifest.output_dir
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

    def add_common(p: argparse.ArgumentParser, config_required: bool = False) -> None:
        p.add_argument("--config", type=Path, required=config_required,
                       help="DGP or scenario config file (YAML)")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override for all substreams")
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

    p = sub.add_parser("sample", help="draw a dataset from a DGP config")
    add_common(p, config_required=True)
    p.add_argument("--n", type=int, required=True, help="sample size")

    for name, helptext in (
        ("estimate", "PLM/AIPW/IPW estimates, decompositions, and ranking"),
        ("decompose", "estimated decomposition reports"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        p.add_argument("--data", type=Path, default=None, help="dataset CSV to import")
        p.add_argument("--n", type=int, default=None, help="sample size (with --config)")
        add_fit_flags(p)

    p = sub.add_parser("reversal", help="pairwise rank-reversal checks from a DGP config")
    add_common(p, config_required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="also evaluate the delta-sufficient conditions")

    p = sub.add_parser("montecarlo", help="run a replication scenario")
    add_common(p)
    p.add_argument("--preset", default=None, help="named scenario preset")
    p.add_argument("--n", type=int, default=None, help="override observations per replicate")
    p.add_argument("--reps", type=int, default=None, help="override replicate count")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    add_fit_flags(p)

    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    kind = getattr(args, "learner", None)
    return RunManifest(
        command=args.command,
        output_dir=args.out,
        config_path=getattr(args, "config", None),
        data_path=getattr(args, "data", None),
        seed=getattr(args, "seed", None),
        format=getattr(args, "format", "json"),
        preset=getattr(args, "preset", None),
        n=getattr(args, "n", None),
        reps=getattr(args, "reps", None),
        folds=getattr(args, "folds", None),
        learner=LearnerSpec(kind=LearnerKind(kind)) if kind is not None else None,
        clip=getattr(args, "clip", None),
        workers=getattr(args, "workers", 1),
        delta=getattr(args, "delta", None),
    )


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
    manifest = manifest_from_args(args)
    try:
        manifest.output_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[manifest.command](manifest)
    except (ConfigError, NotEstimableError, ValueError, OSError, *ESTIMATION_ERRORS) as exc:
        print(f"treatrank {manifest.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
