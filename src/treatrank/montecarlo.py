"""Scenario presets and the seeded replication engine.

Five named scenarios span the heterogeneity/propensity patterns that matter
for ranking: extreme heterogeneity with extreme propensities (where the
residual regression's ordering flips), constant effects, effects
uncorrelated with the regression weights, uniform selection on gains, and
balanced assignment. The concrete tables live in YAML files shipped with
the package, in the scenario format that :mod:`treatrank.configio` owns
(:class:`~treatrank.configio.ScenarioConfig`); ``preset`` loads them and
asserts each scenario's defining property against the closed-form oracle,
so the scenario semantics are checked rather than nominal.

Each replicate runs every estimator of ``estimators.ESTIMATORS``, in its
order; ``METHODS`` holds their names.

Replicates are independent work items keyed by index: replicate ``r``
derives its sampling and fold seeds as ``child_seed(seed, r, purpose)``,
so results are bit-identical for any worker count.

A run of ``workers`` processes splits the replicates into
``min(workers, num_reps)`` consecutive *shares* whose sizes differ by at
most one. The calling process runs the first share itself; one child
process per other share, started before it, runs that share and sends its
outcomes back over a pipe, and the caller collects them in share order.
A share runs its consecutive replicates as *tasks*, and a task's
unit-level work in *blocks*. A task holds at most ``TASK_REPLICATES``
replicates, so a share of up to that many is one task (a serial run is
one share). A block holds at most ``BLOCK_UNITS`` units,
so a task draws its replicates ``max(1, BLOCK_UNITS // n_per_rep)`` at a
time (one replicate per block from n = 4,097 up), and peak memory does
not grow with the task. Each replicate still draws its own Philox
streams, into one row of the block's ``(B, n)`` arrays, but their seeds
and keys are derived once per task: one ``rng.child_seeds`` pass gives
every replicate's data and fold seeds, and one ``rng.streams`` pass keys
every stratum, treatment, noise and fold stream, each the numpy
``SeedSequence`` hash of the same path as before. Each block hands its
slice of those streams to ``sample`` and ``assign_folds`` in place of
seeds; a fold stream is keyed on the fold seed's own path ``(fold
seed,)``, the one ``assign_folds`` of that seed draws. Each block ends in its cell table (``nuisance.cell_table``) on
the DGP's stratum list, which ``sample`` keeps as every dataset's stratum
grouping, keyed from the cell-table keys ``sample`` kept while drawing
(``Dataset.cell_keys``); the task stacks
those tables along the dataset axis, fits them once (``fit_table``) and
runs each estimator once per treatment on the stacked fit. So a task pays
the fixed cost of a fit and of each estimator call once, whatever its
number of replicates.

Stacking is exact, not an approximation: every per-unit step is
elementwise or a table ``bincount`` whose key holds the replicate and adds
each key's values in unit order, and every step after the table is
elementwise along the dataset axis, so each replicate's prediction tables
and cells are those of its own fit; a replicate's cells for a stratum
it lacks are empty. Every sum over cells adds one replicate's cells one
after another (a cumulative sum, where empty cells add exact
zeros; numpy's pairwise sum would regroup the terms around them), and no
sum goes through BLAS. Row ``b`` of a task is therefore bit for bit the
replicate run alone (``sample``, ``assign_folds``, ``fit_crossfit``, the
estimators), whatever the task and block sizes are and however many
threads BLAS uses. If a task's fit or an estimator raises one of
``ESTIMATION_ERRORS``, that step is redone replicate by replicate, on
each replicate's rows of the tables or of the fit, so only the replicates
that fail on their own are NaN and counted.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field, replace
from enum import Enum
from multiprocessing.connection import Connection
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from . import rng
from .configio import ScenarioConfig, learner_to_dict, load_scenario_config, packaged_config_path
from .dgp import oracle_ate, oracle_decomposition, oracle_wate, sample
from .diagnostics import descending_order
from .estimators import ESTIMATION_ERRORS, ESTIMATORS
from .nuisance import (
    CellTable, LearnerSpec, NuisanceFit, assign_folds, cell_table, fit_table, stack_tables,
)

# plain strings: the keys of ``MonteCarloResult.estimates``
METHODS = tuple(m.value for m in ESTIMATORS)

_DATA_STREAM = 0
_FOLD_STREAM = 1

# a block holds at most this many units (replicates x n_per_rep); twice as
# many made the workers' peak memory grow by a few MB for ~3% less time
BLOCK_UNITS = 8_192
# a task holds at most this many replicates' tables. On a 2-vCPU VM the fit
# and estimators took ~940 us per replicate alone, ~45 us each in a task of
# 25 and ~12 us in one of 250; 500 saved 1 us more, 1,000 none, and the
# arrays grow with the task
TASK_REPLICATES = 250

# the layers whose seconds ``MonteCarloResult.diagnostics`` sums over tasks
LAYER_SECONDS = ("unit_seconds", "fit_seconds", "estimator_seconds")

_COV_ZERO_TOL = 1e-9


class ScenarioName(str, Enum):
    EXTREME_HETEROGENEITY = "extreme_heterogeneity"
    CONSTANT_EFFECTS = "constant_effects"
    UNCORRELATED = "uncorrelated"
    SELECTION_ON_GAINS = "selection_on_gains"
    BALANCED = "balanced"


@dataclass
class MonteCarloResult:
    """Replication study output.

    ``estimates[method]`` is a ``(num_reps, K)`` array of point estimates
    (NaN where a replicate's estimator failed). ``correct_ranking_rate`` is,
    among the replicates in which the method estimated every treatment, the
    fraction whose descending ordering of point estimates matches the
    ordering of the oracle ATEs; None when there is no such replicate.
    ``runtime_seconds`` and ``workers`` are volatile: they are excluded from
    :meth:`canonical_bytes`, which is the determinism-relevant serialization.
    ``diagnostics`` holds what happened inside the study:
    ``clipped_count`` and ``fallback_count`` summed over every replicate
    whose fit succeeded, and the seconds spent in each layer
    (``LAYER_SECONDS``), summed over tasks: the unit pass (seeds,
    ``sample``, ``assign_folds``, ``cell_table`` and stacking),
    ``fit_table`` and the estimators. With more than one worker the shares
    run at once, so the seconds can add up to more than
    ``runtime_seconds``. It is volatile
    too, and neither :meth:`to_dict` nor :meth:`canonical_bytes` writes it.
    """

    scenario: str
    n_per_rep: int
    num_reps: int
    seed: int
    num_folds: int
    clip: float
    learner: LearnerSpec
    treatments: tuple[int, ...]
    oracle_ate: tuple[float, ...]
    oracle_wate: tuple[float, ...]
    estimates: dict[str, NDArray[np.float64]]
    correct_ranking_rate: dict[str, float | None]
    failure_count: int
    runtime_seconds: float
    workers: int
    diagnostics: dict[str, int | float] = field(default_factory=dict)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.estimates)

    def bias(self) -> dict[str, dict[str, list[float | None]]]:
        """Mean estimate minus oracle target, against both targets.

        The residual regression is judged against the weighted target (and,
        for reference, the unweighted one); AIPW and IPW against the ATE.
        None marks a method whose every replicate failed for that treatment.
        """
        out: dict[str, dict[str, list[float | None]]] = {}
        for method, points in self.estimates.items():
            means = []
            for idx in range(points.shape[1]):
                finite = points[:, idx][np.isfinite(points[:, idx])]
                means.append(float(finite.mean()) if finite.size else None)
            out[method] = {
                "vs_ate": [None if m is None else m - t for m, t in zip(means, self.oracle_ate)],
                "vs_wate": [None if m is None else m - t for m, t in zip(means, self.oracle_wate)],
            }
        return out

    def to_dict(self, include_volatile: bool = True) -> dict:
        def listify(arr: NDArray) -> list:
            return [[None if np.isnan(v) else float(v) for v in row] for row in arr]

        out = {
            "scenario": self.scenario,
            "n_per_rep": self.n_per_rep,
            "num_reps": self.num_reps,
            "seed": self.seed,
            "num_folds": self.num_folds,
            "clip": self.clip,
            "learner": learner_to_dict(self.learner),
            "treatments": list(self.treatments),
            "methods": list(self.methods),
            "oracle_ate": list(self.oracle_ate),
            "oracle_wate": list(self.oracle_wate),
            "estimates": {m: listify(a) for m, a in self.estimates.items()},
            "bias": self.bias(),
            "correct_ranking_rate": dict(self.correct_ranking_rate),
            "failure_count": self.failure_count,
        }
        if include_volatile:
            out["runtime_seconds"] = self.runtime_seconds
            out["workers"] = self.workers
        return out

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: whole result minus wall-clock fields."""
        return json.dumps(
            self.to_dict(include_volatile=False), sort_keys=True, separators=(",", ":")
        ).encode()


def preset(name: str | ScenarioName) -> ScenarioConfig:
    """Load a named scenario from the packaged config files and validate it."""
    try:
        scenario = ScenarioName(name)
    except ValueError:
        valid = ", ".join(s.value for s in ScenarioName)
        raise ValueError(f"unknown preset {name!r}; valid presets: {valid}") from None
    config = load_scenario_config(packaged_config_path(f"{scenario.value}.yaml"))
    validate_scenario(config)
    return config


def validate_scenario(config: ScenarioConfig) -> None:
    """Assert the defining oracle property of a named scenario.

    Unknown names (custom scenarios) only get generic validation, which the
    constructors already performed.
    """
    try:
        scenario = ScenarioName(config.name)
    except ValueError:
        return
    dgp = config.dgp
    K = dgp.num_treatments
    decs = [oracle_decomposition(dgp, j) for j in range(1, K + 1)]
    covs = np.array([d.cov_tau_gamma for d in decs])
    effects_constant = [float(np.ptp(dgp.effect[j - 1])) == 0.0 for j in range(1, K + 1)]
    props_constant = [float(np.ptp(dgp.propensity[j - 1])) == 0.0 for j in range(1, K + 1)]

    def fail(msg: str) -> None:
        raise ValueError(f"scenario '{scenario.value}' violates its defining property: {msg}")

    if scenario is ScenarioName.EXTREME_HETEROGENEITY:
        if float(dgp.propensity.min()) > 0.05:
            fail("expected extreme propensity scores (min <= 0.05)")
        flips = [
            (a.ate - b.ate) * (a.wate - b.wate) < 0
            for i, a in enumerate(decs)
            for b in decs[i + 1 :]
        ]
        if not any(flips):
            fail("expected at least one oracle rank reversal")
    elif scenario is ScenarioName.CONSTANT_EFFECTS:
        if not all(effects_constant):
            fail("expected tau_j(x) constant in x for every treatment")
        if np.max(np.abs(covs)) > 1e-12:
            fail("expected zero effect-weight covariance")
    elif scenario is ScenarioName.UNCORRELATED:
        if np.max(np.abs(covs)) > _COV_ZERO_TOL:
            fail(f"expected zero effect-weight covariance, got {covs}")
        if any(effects_constant):
            fail("expected heterogeneous effects")
        if any(props_constant):
            fail("expected propensities that vary across strata")
    elif scenario is ScenarioName.SELECTION_ON_GAINS:
        if np.min(np.abs(covs)) < 0.01 or len(set(np.sign(covs))) != 1:
            fail(f"expected same-sign, nonzero covariances, got {covs}")
        gaps = [
            (abs(a.ate - b.ate), abs(a.cov_tau_gamma - b.cov_tau_gamma))
            for i, a in enumerate(decs)
            for b in decs[i + 1 :]
        ]
        if any(gap <= spread for gap, spread in gaps):
            fail("expected every ATE gap to exceed the covariance spread")
    elif scenario is ScenarioName.BALANCED:
        if not all(props_constant):
            fail("expected propensities equal across strata")
        if any(effects_constant):
            fail("expected heterogeneous effects")


def _split(reps: range, count: int) -> list[range]:
    """``reps`` in ``count`` consecutive runs whose sizes differ by at most one."""
    edges = [reps.start + len(reps) * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _shares(num_reps: int, workers: int) -> list[range]:
    """Replicate indices split into one share per process, at most one per replicate."""
    return _split(range(num_reps), min(workers, num_reps))


def _tasks(reps: range) -> list[range]:
    """A share's replicates split into tasks of at most ``TASK_REPLICATES``."""
    return _split(reps, -(-len(reps) // TASK_REPLICATES))


def _blocks(reps: range, n: int) -> list[range]:
    """A task's replicates in blocks of at most ``BLOCK_UNITS // n`` (at least one)."""
    return _split(reps, -(-len(reps) // max(1, BLOCK_UNITS // n)))


def _block_table(config: ScenarioConfig, data_streams: rng.Streams,
                 fold_streams: rng.Streams) -> CellTable:
    """One block of replicates, sampled, split into folds and tabled, from their streams."""
    data = sample(config.dgp, config.n_per_rep, data_streams)
    folds = assign_folds(config.n_per_rep, config.num_folds, fold_streams)
    return cell_table(data, folds)


def _run_share(config: ScenarioConfig, reps: range) -> list[tuple]:
    """The outcomes of a share's tasks, in order (see ``_run_task``)."""
    return [_run_task(config, task) for task in _tasks(reps)]


def _child(config: ScenarioConfig, reps: range, writer: Connection) -> None:
    """A child process's body: run a share and send ``(ok, outcomes or exception)``.

    An exception that cannot be pickled fails the send, so the child exits
    without a message, and the parent reports that.
    """
    try:
        message = (True, _run_share(config, reps))
    except BaseException as exc:  # re-raised in the parent, KeyboardInterrupt included
        if hasattr(exc, "add_note"):  # Python >= 3.11
            exc.add_note(f"raised in the child process of replicates {_span(reps)}:\n"
                         + traceback.format_exc())
        message = (False, exc)
    writer.send(message)
    writer.close()


def _receive(child: multiprocessing.Process, reader: Connection, reps: range) -> list[tuple]:
    """A child's outcomes; its exception re-raised, or RuntimeError if it sent none."""
    try:
        ok, value = reader.recv()
    except Exception as exc:  # EOF (the child died) or a message that cannot be unpickled
        child.join()
        raise RuntimeError(f"the child process of replicates {_span(reps)} exited with code "
                           f"{child.exitcode} without sending its outcomes") from exc
    if not ok:
        raise value
    return value


def _span(reps: range) -> str:
    return f"{reps.start}-{reps.stop - 1}"


def _run_task(config: ScenarioConfig, reps: range
              ) -> tuple[NDArray[np.float64], int, NDArray[np.int64], NDArray[np.float64]]:
    """Replicates ``reps``: tabled block by block, then fitted and estimated at once.

    Returns their ``(reps, methods, K)`` points, the failure count, the
    summed (clipped, fallback) counts of their fits and the seconds spent
    in the unit pass, in ``fit_table`` and in the estimators.
    """
    start = time.perf_counter()
    R, n = len(reps), config.n_per_rep
    # the data seeds, then the fold seeds, hashed in one pass; then every
    # stream they address, keyed in one more
    seeds = rng.child_seeds(config.seed, list(reps) * 2, [_DATA_STREAM] * R + [_FOLD_STREAM] * R)
    data_streams, fold_streams = rng.streams((seeds[:R], 3), (seeds[R:], None))
    table = stack_tables([_block_table(config, data_streams[block.start:block.stop],
                                       fold_streams[block.start:block.stop])
                          for block in _blocks(range(R), n)])
    seconds = np.array([time.perf_counter() - start, 0.0, 0.0])
    return (*_estimate(config, table, seconds), seconds)


def _estimate(config: ScenarioConfig, table: CellTable,
              seconds: NDArray[np.float64]) -> tuple[NDArray[np.float64], int, NDArray[np.int64]]:
    """Fit and estimate every dataset of a table: (points, failures, fit counts), as ``_run_task``.

    A fit or estimate the data cannot support (``ESTIMATION_ERRORS``) is NaN
    and counted; a failed fit counts for every method and treatment. When a
    block's fit or estimate fails, that step is redone dataset by dataset
    on its table or fit, so only the datasets that fail on their own are
    NaN. The seconds of the fits and of the estimators are added to
    ``seconds[1]`` and ``seconds[2]``.
    """
    B, K = table.count.shape[1], table.num_treatments
    points = np.full((B, len(METHODS), K), np.nan)
    start = time.perf_counter()
    try:
        fit = fit_table(table, config.learner, config.clip)
    except ESTIMATION_ERRORS:
        seconds[1] += time.perf_counter() - start
        if not table.block:
            return points, points.size, np.zeros(2, dtype=np.int64)
        rows = [_estimate(config, table.replicate(b), seconds) for b in range(B)]
        return (np.concatenate([p for p, _, _ in rows]), sum(f for _, f, _ in rows),
                sum(c for _, _, c in rows))
    seconds[1] += time.perf_counter() - start
    start = time.perf_counter()
    failures = 0
    for m, estimator in enumerate(ESTIMATORS.values()):
        for j in range(1, K + 1):
            points[:, m, j - 1], failed = _points(estimator, fit, j)
            failures += failed
    seconds[2] += time.perf_counter() - start
    return points, failures, np.array([np.sum(fit.clipped_count), np.sum(fit.fallback_count)])


def _points(estimator: Callable, fit: NuisanceFit, j: int) -> tuple[NDArray | float, int]:
    """Treatment ``j``'s point per dataset (NaN where it fails), and the failure count."""
    try:
        return estimator(None, fit, j).point, 0
    except ESTIMATION_ERRORS:
        if not fit.table.block:
            return np.nan, 1
        rows = [_points(estimator, fit.replicate(b), j) for b in range(fit.table.count.shape[1])]
        return np.array([p for p, _ in rows]), sum(f for _, f in rows)


def _ranking_rates(points: NDArray[np.float64], oracle_order: tuple[int, ...]) -> list[float | None]:
    """Per method, the share of complete replicates ranked as ``oracle_order``.

    ``points`` is ``(reps, methods, K)``. A replicate is complete for a
    method when every treatment has a point; a method without complete
    replicates gets None. Every row is ordered at once as
    ``descending_order`` orders one: a stable sort of the negated points
    keeps tied treatments in index order.
    """
    complete = ~np.isnan(points).any(axis=-1)  # (reps, methods)
    order = np.argsort(-points, axis=-1, kind="stable") + 1
    hits = (complete & np.all(order == oracle_order, axis=-1)).sum(axis=0)
    done = complete.sum(axis=0)
    return [int(h) / int(d) if d else None for h, d in zip(hits, done)]


def run_scenario(config: ScenarioConfig, workers: int = 1) -> MonteCarloResult:
    """Run every replicate of a scenario in ``workers`` processes, this one included.

    The replicates are split into one share per process; this process runs
    the first share while ``workers - 1`` child processes run the others
    (see the module docstring). Outcomes are aggregated by index, so the
    result is identical for any worker count. Fits and estimates the data
    cannot support are recorded as NaN and counted, not raised; any other
    error propagates, a child's with its own type and message. A child
    that exits without sending its outcomes raises RuntimeError. No child
    outlives the call, whether it returns or raises.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    first, *rest = _shares(config.num_reps, workers)
    children: list[tuple[multiprocessing.Process, Connection, range]] = []
    try:
        for reps in rest:
            reader, writer = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_child, args=(config, reps, writer))
            child.start()
            # the child holds the only write end, so its death ends the parent's recv
            writer.close()
            children.append((child, reader, reps))
        outcomes = _run_share(config, first)
        for child, reader, reps in children:
            outcomes += _receive(child, reader, reps)
    finally:
        for child, reader, _ in children:
            if child.is_alive():
                child.terminate()
            child.join()
            reader.close()

    points = np.concatenate([p for p, _, _, _ in outcomes])  # (reps, methods, K)
    failure_count = int(sum(f for _, f, _, _ in outcomes))
    clipped, fallbacks = sum(c for _, _, c, _ in outcomes)
    seconds = sum(t for _, _, _, t in outcomes)
    K = config.dgp.num_treatments
    treatments = tuple(range(1, K + 1))
    ate = tuple(oracle_ate(config.dgp, j) for j in treatments)
    wate = tuple(oracle_wate(config.dgp, j) for j in treatments)
    estimates = {m: points[:, i, :] for i, m in enumerate(METHODS)}
    rates = dict(zip(METHODS, _ranking_rates(points, descending_order(dict(zip(treatments, ate))))))

    return MonteCarloResult(
        scenario=config.name,
        n_per_rep=config.n_per_rep,
        num_reps=config.num_reps,
        seed=config.seed,
        num_folds=config.num_folds,
        clip=config.clip,
        learner=config.learner,
        treatments=treatments,
        oracle_ate=ate,
        oracle_wate=wate,
        estimates=estimates,
        correct_ranking_rate=rates,
        failure_count=failure_count,
        runtime_seconds=time.perf_counter() - t0,
        workers=workers,
        diagnostics={"clipped_count": int(clipped), "fallback_count": int(fallbacks),
                     **{key: float(t) for key, t in zip(LAYER_SECONDS, seconds)}},
    )


def summarize(result: MonteCarloResult) -> list[dict]:
    """Per-method, per-treatment summary rows: moments, quantiles, bias, rates.

    ``failures`` counts the replicates whose estimate for that method and
    treatment is missing (non-finite). A method and treatment without any
    estimate still gets its row, with every moment, quantile and bias None.
    """
    if result.num_reps < 1 or not result.estimates:
        raise ValueError("cannot summarize an empty result")
    bias = result.bias()
    rows = []
    for method, arr in result.estimates.items():
        for idx, j in enumerate(result.treatments):
            col = arr[:, idx]
            finite = col[np.isfinite(col)]
            moments: dict[str, float | None] = dict.fromkeys(("mean", "sd", "q025", "q500", "q975"))
            if finite.size:
                q025, q500, q975 = np.percentile(finite, [2.5, 50.0, 97.5])
                moments = {
                    "mean": float(finite.mean()),
                    "sd": float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
                    "q025": float(q025),
                    "q500": float(q500),
                    "q975": float(q975),
                }
            rows.append(
                {
                    "scenario": result.scenario,
                    "method": method,
                    "treatment": j,
                    **moments,
                    "oracle_ate": result.oracle_ate[idx],
                    "oracle_wate": result.oracle_wate[idx],
                    "bias_vs_ate": bias[method]["vs_ate"][idx],
                    "bias_vs_wate": bias[method]["vs_wate"][idx],
                    "correct_ranking_rate": result.correct_ranking_rate[method],
                    "failures": int(col.size - finite.size),
                }
            )
    return rows


def replicate_rows(result: MonteCarloResult) -> Iterator[dict]:
    """One row per replicate x method x treatment, for external plotting."""
    for method, arr in result.estimates.items():
        for r in range(result.num_reps):
            for idx, j in enumerate(result.treatments):
                v = arr[r, idx]
                yield {
                    "replicate": r,
                    "method": method,
                    "treatment": j,
                    "estimate": None if np.isnan(v) else float(v),
                }


def histogram_rows(result: MonteCarloResult, bins: int = 40) -> Iterator[dict]:
    """Binned estimate counts per method x treatment (histogram plot data)."""
    for method, arr in result.estimates.items():
        for idx, j in enumerate(result.treatments):
            finite = arr[:, idx][np.isfinite(arr[:, idx])]
            if finite.size == 0:
                continue
            counts, edges = np.histogram(finite, bins=bins)
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                yield {
                    "method": method,
                    "treatment": j,
                    "bin_left": float(lo),
                    "bin_right": float(hi),
                    "count": int(c),
                }


def scaled(config: ScenarioConfig, n_per_rep: int | None = None, num_reps: int | None = None,
           seed: int | None = None, num_folds: int | None = None,
           learner: LearnerSpec | None = None, clip: float | None = None) -> ScenarioConfig:
    """Copy a scenario with some settings overridden (tables untouched)."""
    updates = {
        k: v
        for k, v in {
            "n_per_rep": n_per_rep,
            "num_reps": num_reps,
            "seed": seed,
            "num_folds": num_folds,
            "learner": learner,
            "clip": clip,
        }.items()
        if v is not None
    }
    return replace(config, **updates)
