"""Workloads, measuring rounds and traced layer replays of the benchmark.

Three closed-loop workloads, each generated in this process from the
workload seed (``bench/README.md`` says why each exists):

* ``mc_reversal``  ``run_scenario`` on the ``extreme_heterogeneity`` preset
  at n=10,000 per replicate, stratum-mean learner;
* ``mc_small_n``   ``run_scenario`` on the ``balanced`` preset at n=200;
* ``cli_multiarm`` the ``sample`` then ``estimate`` commands, in process
  through ``cli.main``, on a 4-arm multinomial DGP with 24 strata at
  n=50,000 and the logistic learner.

Every workload also runs the ``sample``/``estimate`` CLI cycle on its own
DGP, so every end-to-end metric is measured on every workload. On the
``mc_*`` workloads a replicate is one ``run_scenario`` replicate; on
``cli_multiarm`` it is one ``sample`` plus ``estimate`` cycle, and the
``workers=2`` figure runs two cycles at once in a two-process pool.

The traced run calls each layer's public functions from here, in the order
the program calls them, and checks that the replay reproduces the
program's own output bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from treatrank import cli, rng
from treatrank.configio import load_dataset_csv, load_dgp_config, write_dataset_csv, write_dgp_config
from treatrank.dgp import AssignmentMode, StratifiedDGP, random_dgp, sample
from treatrank.diagnostics import NotEstimableError, estimate_decomposition, rank_treatments
from treatrank.estimators import Method, aipw_estimate, ipw_estimate, plm_estimate
from treatrank.montecarlo import (
    METHODS, MonteCarloResult, ScenarioConfig, preset, run_scenario, scaled,
)
from treatrank.nuisance import (
    DEFAULT_CLIP, DEFAULT_NUM_FOLDS, LearnerKind, LearnerSpec, assign_folds, fit_crossfit,
)

import host
from gates import Gate, cli_gates, mc_gates, plm_vs_oracle_wate
from spans import NullTracer, Tracer, median, tail, trimmed_mean

WORKERS = 2
MIN_ROUNDS = 3
SETUP_PROBES = 11
TRACED_PASSES = 3
# replicate seed tags of run_scenario; the traced-replay determinism gate
# fails if the engine's tags ever differ from these
DATA_STREAM = 0
FOLD_STREAM = 1
# the cli_multiarm propensity table and the stream that orders its arms per seed
PROPENSITY_TABLE_SEED = 0
ARM_ORDER_STREAM = 2
ESTIMATORS = {Method.PLM: plm_estimate, Method.AIPW: aipw_estimate, Method.IPW: ipw_estimate}
BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                       # units per replicate and per CLI dataset
    learner: str                 # --learner of the CLI estimate command
    preset: str | None = None    # Monte Carlo preset; None: the CLI cycle is the replicate
    pool_reps: int = 0           # replicates per workers=2 run_scenario call
    serial_reps: int = 0         # prefix re-run at workers=1 and replayed under tracing
    cycles_per_round: int = 1    # CLI cycles per measuring round
    extra_samples: int = 0       # further sample commands per round, for sample_cmd_s only
    ranking_gates: bool = False  # gate AIPW/PLM correct-ranking rates
    mean_targets: tuple[tuple[str, str], ...] = ()  # (method, oracle target) mean gates


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_reversal", n=10_000, learner="stratum_mean", preset="extreme_heterogeneity",
            pool_reps=100, serial_reps=25, cycles_per_round=2, ranking_gates=True,
            mean_targets=(("aipw", "ate"), ("plm", "wate")),
        ),
        Workload(
            "mc_small_n", n=200, learner="stratum_mean", preset="balanced",
            pool_reps=500, serial_reps=125, cycles_per_round=10,
            mean_targets=(("aipw", "ate"), ("plm", "ate")),
        ),
        Workload("cli_multiarm", n=50_000, learner="logistic_ridge", extra_samples=4),
    )
}


# ---------------------------------------------------------------------------
# set-up


def _drawn_multiarm(seed: int) -> StratifiedDGP:
    return random_dgp(
        seed, num_treatments=4, min_strata=24, max_strata=24,
        propensity_range=(0.03, 0.3), assignment_mode=AssignmentMode.MULTINOMIAL,
    )


def multiarm_dgp(seed: int) -> StratifiedDGP:
    """The cli_multiarm DGP: 4 arms plus control, 24 strata, propensities 0.03-0.3.

    Effects and baselines come from ``random_dgp(seed, ...)``; the strata are
    then made equally likely. ``random_dgp`` draws stratum shares from a
    flat Dirichlet, which leaves strata of a few dozen units at n=50,000 and
    cells with no treated unit, where the logistic fit separates and takes
    three times as many Newton steps.

    The propensity table is one fixed draw (``random_dgp`` at
    PROPENSITY_TABLE_SEED) whose arms the seed shuffles within each stratum.
    Every stratum then keeps its control share for every seed, and so does
    the size of every restricted {0, j} fit; with a table drawn per seed the
    logistic Newton work varied by 11% from seed to seed. Either way the
    estimate time would depend on the seed rather than on the code.
    """
    drawn = _drawn_multiarm(seed)
    table = _drawn_multiarm(PROPENSITY_TABLE_SEED).propensity
    arm_order = rng.substream(seed, ARM_ORDER_STREAM)
    propensity = np.stack([arm_order.permutation(column) for column in table.T], axis=1)
    share = 1.0 / drawn.num_strata
    return replace(drawn, strata=tuple((code, share) for code, _ in drawn.strata),
                   propensity=propensity)


@dataclass
class Setup:
    dgp: StratifiedDGP
    config: ScenarioConfig | None
    dgp_path: Path


def setup(workload: Workload, seed: int, workdir: Path) -> Setup:
    """Load and validate the preset (or build the DGP), then write the DGP config."""
    workdir.mkdir(parents=True, exist_ok=True)
    config = None
    if workload.preset is None:
        dgp = multiarm_dgp(seed)
    else:
        config = scaled(
            preset(workload.preset), n_per_rep=workload.n, num_reps=workload.pool_reps, seed=seed
        )
        dgp = config.dgp
    path = workdir / "dgp.yaml"
    write_dgp_config(dgp, path)
    return Setup(dgp=dgp, config=config, dgp_path=path)


class SetupProbes:
    """Set-up timings in fresh interpreters (import, then :func:`setup`).

    The probes are spread evenly over the measuring time, between rounds. Run
    back to back they would all fall in one of the host's speed phases, which
    last seconds, and their median would be that phase's speed. A server
    process started on entry, while this process is still small, starts
    them (see ``setup_probe.py``); leaving the ``with`` block ends it.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.args = [workload.name, str(seed), str(workdir)]
        self.done: list[dict] = []
        self.start, self.seconds = time.perf_counter(), 1.0

    def __enter__(self) -> "SetupProbes":
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--serve", *self.args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        # closes the pipes (a broken one too), so the server ends, and waits for it
        self.server.__exit__(*exc)

    def begin(self, seconds: float) -> None:
        self.start, self.seconds = time.perf_counter(), seconds

    def catch_up(self) -> None:
        """Take the probes due by now: one at the start, then one per SETUP_PROBES-th."""
        elapsed = (time.perf_counter() - self.start) / self.seconds
        due = min(SETUP_PROBES, int(SETUP_PROBES * elapsed) + 1)
        while len(self.done) < due:
            self._probe()

    def finish(self) -> list[dict]:
        while len(self.done) < SETUP_PROBES:
            self._probe()
        return self.done

    def _probe(self) -> None:
        self.server.stdin.write("\n")
        self.server.stdin.flush()
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("benchmark: a set-up probe failed")
        self.done.append(json.loads(line))


# ---------------------------------------------------------------------------
# the CLI cycle


def cycle_seeds(seed: int) -> tuple[int, int]:
    """Dataset and fold seeds of a workload's CLI cycle."""
    return rng.child_seed(seed, DATA_STREAM), rng.child_seed(seed, FOLD_STREAM)


@dataclass
class Cycle:
    sample_s: float
    estimate_s: float
    exit_codes: tuple[int, int]
    estimates_csv: str


def _cli(argv: list[str]) -> int:
    # a crash inside a command is a failed run of the workload, not of the benchmark
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def run_sample(dgp_path: Path, n: int, seed: int, out: Path) -> tuple[float, int]:
    """``treatrank sample`` through ``cli.main``: (wall seconds, exit code)."""
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    rc = _cli(["sample", "--config", str(dgp_path), "--n", str(n),
               "--seed", str(cycle_seeds(seed)[0]), "--out", str(out)])
    return time.perf_counter() - t0, rc


def run_cycle(dgp_path: Path, n: int, seed: int, learner: str, out: Path) -> Cycle:
    """``treatrank sample`` then ``treatrank estimate --data``, through ``cli.main``."""
    shutil.rmtree(out, ignore_errors=True)
    sample_s, rc_sample = run_sample(dgp_path, n, seed, out / "sample")
    t0 = time.perf_counter()
    rc_estimate = _cli(["estimate", "--data", str(out / "sample" / "dataset.csv"),
                        "--seed", str(cycle_seeds(seed)[1]), "--learner", learner,
                        "--out", str(out / "estimate")])
    estimate_s = time.perf_counter() - t0
    estimates = out / "estimate" / "estimates.csv"
    text = estimates.read_text() if estimates.exists() else ""
    return Cycle(sample_s, estimate_s, (rc_sample, rc_estimate), text)


def _pair_job(args: tuple[str, int, int, str, str]) -> Cycle:
    dgp_path, n, seed, learner, out = args
    return run_cycle(Path(dgp_path), n, seed, learner, Path(out))


def estimate_rows(estimates_csv: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(estimates_csv)))


# ---------------------------------------------------------------------------
# traced replays


@dataclass
class ReplayCounts:
    clipped: int = 0
    fallbacks: int = 0
    failures: int = 0


def traced_replicates(config: ScenarioConfig,
                      tracer: Tracer | NullTracer) -> tuple[np.ndarray, ReplayCounts]:
    """Replay the replicates of ``config`` the way ``run_scenario`` runs them.

    Returns the ``(num_reps, methods, K)`` points, NaN where an estimator failed.
    """
    K = config.dgp.num_treatments
    points = np.full((config.num_reps, len(METHODS), K), np.nan)
    counts = ReplayCounts()
    for r in range(config.num_reps):
        with tracer.span("montecarlo.replicate"):
            with tracer.span("rng.seed"):
                data_seed = rng.child_seed(config.seed, r, DATA_STREAM)
                fold_seed = rng.child_seed(config.seed, r, FOLD_STREAM)
            with tracer.span("dgp.sample"):
                data = sample(config.dgp, config.n_per_rep, data_seed)
            with tracer.span("nuisance.assign_folds"):
                folds = assign_folds(data.n, config.num_folds, fold_seed)
            with tracer.span("nuisance.fit_crossfit"):
                fit = fit_crossfit(data, config.learner, folds, config.clip)
            counts.clipped += fit.clipped_count
            counts.fallbacks += fit.fallback_count
            for m, method in enumerate(METHODS):
                estimator = ESTIMATORS[Method(method)]
                with tracer.span(f"estimators.{method}"):
                    for j in range(1, K + 1):
                        # the engine turns any estimator error into NaN; so does the replay
                        try:
                            points[r, m, j - 1] = estimator(data, fit, j).point
                        except Exception:
                            counts.failures += 1
    return points, counts


@dataclass
class TracedCycle:
    rows: list[dict]
    counts: ReplayCounts
    csv_bytes: int


def traced_cycle(stp: Setup, workload: Workload, seed: int, out: Path,
                 tracer: Tracer | NullTracer) -> TracedCycle:
    """Replay the layer calls of ``cmd_sample`` and ``cmd_estimate`` in their order."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    csv_path = out / "dataset.csv"
    counts = ReplayCounts()
    rows = []
    with tracer.span("cli.cycle"):
        with tracer.span("rng.seed"):
            data_seed, fold_seed = cycle_seeds(seed)
        with tracer.span("cli.sample"):
            with tracer.span("configio.config_load"):
                dgp = load_dgp_config(stp.dgp_path)
            with tracer.span("dgp.sample"):
                data = sample(dgp, workload.n, data_seed)
            with tracer.span("configio.csv_write"):
                write_dataset_csv(data, csv_path)
            with tracer.span("configio.config_write"):
                write_dgp_config(dgp, out / "resolved_dgp.yaml")
        with tracer.span("cli.estimate"):
            with tracer.span("configio.csv_read"):
                data = load_dataset_csv(csv_path)
            with tracer.span("nuisance.assign_folds"):
                folds = assign_folds(data.n, DEFAULT_NUM_FOLDS, fold_seed)
            with tracer.span("nuisance.fit_crossfit"):
                fit = fit_crossfit(data, LearnerSpec(kind=LearnerKind(workload.learner)), folds,
                                   DEFAULT_CLIP)
            counts.clipped, counts.fallbacks = fit.clipped_count, fit.fallback_count
            kept = []
            for method, estimator in ESTIMATORS.items():
                with tracer.span(f"estimators.{method.value}"):
                    for j in range(1, data.num_treatments + 1):
                        # cmd_estimate records any estimator error as a row
                        try:
                            est = estimator(data, fit, j)
                        except Exception as exc:
                            counts.failures += 1
                            rows.append({"treatment": str(j), "method": method.value,
                                         "error": str(exc)})
                            continue
                        kept.append(est)
                        rows.append({"treatment": str(j), "method": method.value, "point": est.point,
                                     "std_error": est.std_error, "error": ""})
            with tracer.span("diagnostics.decompose"):
                for j in range(1, data.num_treatments + 1):
                    try:
                        estimate_decomposition(data, fit, j)
                    except NotEstimableError:
                        pass
            with tracer.span("diagnostics.rank"):
                try:
                    rank_treatments([e for e in kept if e.method in (Method.PLM, Method.AIPW)])
                except ValueError:
                    pass
    return TracedCycle(rows, counts, csv_path.stat().st_size)


def replay_matches(traced: TracedCycle, estimates_csv: str) -> bool:
    """True when the replay's estimates equal the CLI's estimates.csv bit for bit."""
    written = estimate_rows(estimates_csv)
    if len(written) != len(traced.rows):
        return False
    for mine, theirs in zip(traced.rows, written):
        if (mine["treatment"], mine["method"]) != (theirs["treatment"], theirs["method"]):
            return False
        if bool(mine["error"]) != bool(theirs["error"]):
            return False
        if not mine["error"] and (
            float(theirs["point"]) != mine["point"] or float(theirs["std_error"]) != mine["std_error"]
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# one benchmark run


@dataclass
class Outcome:
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)
    attempted: int = 0
    failed_estimates: int = 0
    notes: list[str] = field(default_factory=list)
    host: dict = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)  # per-round values behind medians
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(g.ok for g in self.gates)

    @property
    def failed(self) -> int:
        """Failed estimates plus failed gates."""
        return self.failed_estimates + sum(not g.ok for g in self.gates)


@dataclass
class Untraced:
    """What the untraced rounds hand to the traced run."""

    reps_per_s: float
    serial_reps_per_s: float
    estimates_csv: str                         # what every untraced CLI cycle wrote
    reference: MonteCarloResult | None = None  # the workers=2 result (mc_* only)


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """Set up, measure untraced rounds for ``seconds``, check outputs; trace if asked."""
    ticks = host.cpu_ticks()
    with SetupProbes(workload, seed, workdir / "setup") as probes:
        out = Outcome(host=host.record())
        stp = setup(workload, seed, workdir)
        if workload.preset is None:
            base = _measure_cli(workload, seed, seconds, stp, workdir, out, probes)
        else:
            base = _measure_mc(workload, seed, seconds, stp, workdir, out, probes)
        probes.finish()
    out.host["blas_threads"]["setup"] = [p["blas_threads"] for p in probes.done]
    out.end_to_end.update({
        "setup_s": median([p["seconds"] for p in probes.done]),
        "reps_per_s": base.reps_per_s,
        "serial_reps_per_s": base.serial_reps_per_s,
    })
    if trace:
        _trace(workload, seed, stp, workdir, base, out)
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    out.host["cpu_steal_share"] = host.steal_share(ticks, host.cpu_ticks())
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus WORKERS processes at the largest child's peak.

    A forked worker's RSS counts the pages it shares with the parent, so this
    is an upper bound on the memory the run held at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + WORKERS * child) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class CliRounds:
    """The CLI commands of the measuring rounds."""

    cycles: list[Cycle] = field(default_factory=list)
    extra_sample_s: list[float] = field(default_factory=list)
    extra_exit_codes: list[int] = field(default_factory=list)

    def run_round(self, workload: Workload, stp: Setup, seed: int, workdir: Path) -> None:
        for _ in range(workload.cycles_per_round):
            self.cycles.append(run_cycle(stp.dgp_path, workload.n, seed, workload.learner,
                                         workdir / "cycle"))
        for _ in range(workload.extra_samples):
            seconds, rc = run_sample(stp.dgp_path, workload.n, seed, workdir / "extra")
            self.extra_sample_s.append(seconds)
            self.extra_exit_codes.append(rc)

    def record(self, out: Outcome) -> None:
        out.samples["sample_cmd_s"] = [c.sample_s for c in self.cycles] + self.extra_sample_s
        out.samples["estimate_cmd_s"] = [c.estimate_s for c in self.cycles]
        out.end_to_end["sample_cmd_s"] = trimmed_mean(out.samples["sample_cmd_s"])
        out.end_to_end["estimate_cmd_s"] = trimmed_mean(out.samples["estimate_cmd_s"])


def _check_cycles(cycles: list[Cycle], stp: Setup, out: Outcome, exit_codes: list[int]) -> None:
    """Gate the first CLI cycle and require every other one to write the same estimates."""
    K = stp.dgp.num_treatments
    first = estimate_rows(cycles[0].estimates_csv)
    codes = [rc for c in cycles for rc in c.exit_codes] + exit_codes
    out.gates.extend(cli_gates(first, stp.dgp, codes))
    out.gates.append(Gate("cli.determinism.cycles",
                          all(c.estimates_csv == cycles[0].estimates_csv for c in cycles),
                          f"{len(cycles)} cycles wrote the same estimates.csv"))
    out.attempted += 3 * K * len(cycles)
    for c in cycles:
        rows = estimate_rows(c.estimates_csv)
        out.failed_estimates += sum(1 for r in rows if r["error"]) + max(0, 3 * K - len(rows))
    out.notes.extend(plm_vs_oracle_wate(first, stp.dgp))


def _measure_mc(workload: Workload, seed: int, seconds: float, stp: Setup, workdir: Path,
                out: Outcome, probes: SetupProbes) -> Untraced:
    config = stp.config
    assert config is not None
    prefix = scaled(config, num_reps=workload.serial_reps)
    warm = scaled(config, num_reps=2 * WORKERS)
    run_scenario(warm, workers=WORKERS)
    run_scenario(warm, workers=1)
    run_cycle(stp.dgp_path, workload.n, seed, workload.learner, workdir / "cycle")

    pool_s, serial_s, results, prefixes = [], [], [], []
    commands = CliRounds()
    deadline = time.perf_counter() + seconds
    probes.begin(seconds)
    while len(pool_s) < MIN_ROUNDS or time.perf_counter() < deadline:
        probes.catch_up()
        t0 = time.perf_counter()
        results.append(run_scenario(config, workers=WORKERS))
        t1 = time.perf_counter()
        prefixes.append(run_scenario(prefix, workers=1))
        t2 = time.perf_counter()
        commands.run_round(workload, stp, seed, workdir)
        pool_s.append(t1 - t0)
        serial_s.append(t2 - t1)

    K = config.dgp.num_treatments
    out.attempted += 3 * K * (config.num_reps + prefix.num_reps) * len(pool_s)
    out.failed_estimates += sum(r.failure_count for r in results + prefixes)
    reference = results[0]
    out.gates.extend(mc_gates(reference, workload.ranking_gates, workload.mean_targets))
    out.gates.append(Gate("mc.determinism.rounds",
                          all(r.canonical_bytes() == reference.canonical_bytes() for r in results),
                          f"{len(results)} workers={WORKERS} runs of {config.num_reps} replicates"))
    out.gates.append(Gate("mc.determinism.serial_prefix",
                          all(_rows_equal(p.estimates, reference, prefix.num_reps)
                              for p in prefixes),
                          f"workers=1 runs of the first {prefix.num_reps} replicates"))
    _check_cycles(commands.cycles, stp, out, commands.extra_exit_codes)
    commands.record(out)
    out.samples.update({"workers2_s": pool_s, "workers1_s": serial_s})
    out.notes.append(f"{len(pool_s)} rounds of: workers={WORKERS} run of {config.num_reps} reps, "
                     f"workers=1 run of {prefix.num_reps} reps, {workload.cycles_per_round} "
                     f"CLI cycles at n={workload.n}")
    return Untraced(
        reps_per_s=config.num_reps / trimmed_mean(pool_s),
        serial_reps_per_s=prefix.num_reps / trimmed_mean(serial_s),
        estimates_csv=commands.cycles[0].estimates_csv,
        reference=reference,
    )


def _rows_equal(points: dict[str, np.ndarray], full: MonteCarloResult, reps: int) -> bool:
    return all(points[m].tobytes() == full.estimates[m][:reps].tobytes() for m in METHODS)


def _measure_cli(workload: Workload, seed: int, seconds: float, stp: Setup, workdir: Path,
                 out: Outcome, probes: SetupProbes) -> Untraced:
    jobs = [(str(stp.dgp_path), workload.n, seed, workload.learner, str(workdir / f"pair{i}"))
            for i in range(WORKERS)]
    warm_n = min(workload.n, 5_000)
    pair_s, pair_cycles = [], []
    commands = CliRounds()
    # the default (fork) context, as in run_scenario: a spawn context would start a
    # resource-tracker process that outlives the benchmark
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        out.host["blas_threads"]["cli_pair_workers"] = list(
            pool.map(host.blas_threads, range(WORKERS)))
        list(pool.map(_pair_job, [job[:1] + (warm_n,) + job[2:] for job in jobs]))
        run_cycle(stp.dgp_path, warm_n, seed, workload.learner, workdir / "cycle")
        deadline = time.perf_counter() + seconds
        probes.begin(seconds)
        while len(pair_s) < MIN_ROUNDS or time.perf_counter() < deadline:
            probes.catch_up()
            commands.run_round(workload, stp, seed, workdir)
            t0 = time.perf_counter()
            pair_cycles.extend(pool.map(_pair_job, jobs))
            pair_s.append(time.perf_counter() - t0)

    serial = commands.cycles
    _check_cycles(serial + pair_cycles, stp, out, commands.extra_exit_codes)
    commands.record(out)
    cycle_s = [c.sample_s + c.estimate_s for c in serial]
    out.samples.update({"workers2_s": pair_s, "workers1_s": cycle_s})
    out.notes.append(f"{len(pair_s)} rounds of: {workload.cycles_per_round} CLI cycle, "
                     f"{workload.extra_samples} more sample commands, then {WORKERS} cycles at "
                     f"once in a {WORKERS}-process pool; n={workload.n}")
    return Untraced(
        reps_per_s=WORKERS / trimmed_mean(pair_s),
        serial_reps_per_s=1.0 / trimmed_mean(cycle_s),
        estimates_csv=serial[0].estimates_csv,
    )


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


@dataclass
class Passes:
    """Wall times of the traced passes over one kind of work.

    Each traced pass sits next to the program's own untraced run of the same
    work and the same replay with recording off, so that drift of the host's
    speed over the run does not enter the differences between them.
    """

    plain_s: list[float] = field(default_factory=list)     # run_scenario or cli.main
    untraced_s: list[float] = field(default_factory=list)  # replay, recording off
    traced_s: list[float] = field(default_factory=list)    # replay, recording on
    layer_s: list[float] = field(default_factory=list)     # traced layer calls of the pass

    def engine_overhead_share(self) -> float:
        """Share of the program's run spent outside the traced layer calls."""
        plain = median(self.plain_s)
        return (plain - median(self.layer_s)) / plain

    def trace_overhead_share(self) -> float:
        untraced = median(self.untraced_s)
        return (median(self.traced_s) - untraced) / untraced


def _rotated(steps: list) -> None:
    """Run the steps TRACED_PASSES times, each pass starting one step later.

    Whatever runs first after other work tends to run slow on this kind of
    host; rotating the order keeps that out of the differences between steps.
    """
    for k in range(TRACED_PASSES):
        shift = k % len(steps)
        for step in steps[shift:] + steps[:shift]:
            step()


def _cycle_passes(workload: Workload, seed: int, stp: Setup, workdir: Path, tracer: Tracer,
                  out: Outcome, expected_csv: str) -> tuple[Passes, list[Cycle], list[TracedCycle]]:
    passes, plain, traced = Passes(), [], []

    def program() -> None:
        plain.append(run_cycle(stp.dgp_path, workload.n, seed, workload.learner, workdir / "cycle"))
        passes.plain_s.append(plain[-1].sample_s + plain[-1].estimate_s)

    def untraced() -> None:
        passes.untraced_s.append(
            _timed(traced_cycle, stp, workload, seed, workdir / "traced", NullTracer())[0])

    def recorded() -> None:
        wall, cycle = _timed(traced_cycle, stp, workload, seed, workdir / "traced", tracer)
        passes.traced_s.append(wall)
        passes.layer_s.append(tracer.leaf_seconds(tracer.roots("cli.cycle")[-1]))
        traced.append(cycle)

    _rotated([program, untraced, recorded])
    K = stp.dgp.num_treatments
    out.attempted += 3 * K * (len(plain) + len(traced))
    out.failed_estimates += sum(c.counts.failures for c in traced)
    out.gates.append(Gate(
        "cli.determinism.traced_replay",
        all(replay_matches(c, expected_csv) for c in traced)
        and all(c.estimates_csv == expected_csv for c in plain),
        f"{len(traced)} traced replays of cmd_sample + cmd_estimate match estimates.csv",
    ))
    return passes, plain, traced


def _replicate_passes(workload: Workload, stp: Setup, reference: MonteCarloResult,
                      tracer: Tracer, out: Outcome) -> tuple[Passes, ReplayCounts]:
    assert stp.config is not None
    prefix = scaled(stp.config, num_reps=workload.serial_reps)
    passes, counts, matches = Passes(), [], []

    def program() -> None:
        passes.plain_s.append(_timed(run_scenario, prefix, workers=1)[0])

    def untraced() -> None:
        passes.untraced_s.append(_timed(traced_replicates, prefix, NullTracer())[0])

    def recorded() -> None:
        first = len(tracer.roots("montecarlo.replicate"))
        wall, (points, pass_counts) = _timed(traced_replicates, prefix, tracer)
        passes.traced_s.append(wall)
        passes.layer_s.append(sum(
            tracer.leaf_seconds(i) for i in tracer.roots("montecarlo.replicate")[first:]))
        counts.append(pass_counts)
        matches.append(_rows_equal({m: points[:, i, :] for i, m in enumerate(METHODS)},
                                   reference, prefix.num_reps))

    _rotated([program, untraced, recorded])
    out.attempted += 3 * stp.dgp.num_treatments * prefix.num_reps * len(counts)
    out.failed_estimates += sum(c.failures for c in counts)
    out.gates.append(Gate("mc.determinism.traced_replay", all(matches),
                          f"{len(matches)} traced replays of the first {prefix.num_reps} "
                          "replicates match the engine's rows bit for bit"))
    return passes, counts[0]


def _trace(workload: Workload, seed: int, stp: Setup, workdir: Path, base: Untraced,
           out: Outcome) -> None:
    """Traced replay of the workload's layer calls, and the per-layer metrics.

    On ``mc_*`` the replicate is a ``run_scenario`` replicate and the
    ``configio``, ``diagnostics`` and ``cli`` figures come from the CLI
    cycle; on ``cli_multiarm`` the CLI cycle is the replicate.
    """
    tracer = Tracer()
    cycle_passes, plain_cycles, cycles = _cycle_passes(
        workload, seed, stp, workdir, tracer, out, base.estimates_csv)
    cycle_roots = tracer.roots("cli.cycle")
    ms = 1e3

    def per_cycle(name: str) -> float:
        return median([tracer.seconds_under(c, name) for c in cycle_roots])

    if workload.preset is None:
        rep_root, passes, counts = "cli.cycle", cycle_passes, cycles[0].counts
        preset_load_s = per_cycle("configio.config_load")
    else:
        assert base.reference is not None
        rep_root = "montecarlo.replicate"
        passes, counts = _replicate_passes(workload, stp, base.reference, tracer, out)
        preset_load_s = median([_timed(preset, workload.preset)[0] for _ in range(SETUP_PROBES)])

    reps = tracer.roots(rep_root)

    def per_rep(name: str) -> list[float]:
        return [tracer.seconds_under(i, name) for i in reps]

    rep_layers = [tracer.leaf_seconds(i) for i in reps]
    fits = per_rep("nuisance.fit_crossfit")
    sample_s = median(per_rep("dgp.sample"))
    fit_level, fit_tail = tail(fits)
    rep_level, rep_tail = tail(rep_layers)
    read_s = per_cycle("configio.csv_read")
    estimate_layers = [tracer.leaf_seconds(tracer.find_under(c, "cli.estimate")[0])
                       for c in cycle_roots]
    out.per_layer.update({
        "rng.seed_ms": median(per_rep("rng.seed")) * ms,
        "dgp.sample_ms": sample_s * ms,
        "dgp.units_per_s": workload.n / sample_s,
        "nuisance.assign_folds_ms": median(per_rep("nuisance.assign_folds")) * ms,
        "nuisance.fit_crossfit_ms_p50": median(fits) * ms,
        "nuisance.fit_crossfit_ms_tail": fit_tail * ms,
        "nuisance.fit_share": sum(fits) / sum(rep_layers),
        "nuisance.clipped": counts.clipped,
        "nuisance.fallbacks": counts.fallbacks,
        "estimators.plm_ms": median(per_rep("estimators.plm")) * ms,
        "estimators.aipw_ms": median(per_rep("estimators.aipw")) * ms,
        "estimators.ipw_ms": median(per_rep("estimators.ipw")) * ms,
        "estimators.failures": counts.failures,
        "diagnostics.decompose_ms": per_cycle("diagnostics.decompose") * ms,
        "diagnostics.rank_ms": per_cycle("diagnostics.rank") * ms,
        "montecarlo.replicate_ms_p50": median(rep_layers) * ms,
        "montecarlo.replicate_ms_tail": rep_tail * ms,
        "montecarlo.engine_overhead_share": passes.engine_overhead_share(),
        "montecarlo.pool_efficiency": base.reps_per_s / (WORKERS * base.serial_reps_per_s),
        "configio.preset_load_ms": preset_load_s * ms,
        "configio.csv_write_ms": per_cycle("configio.csv_write") * ms,
        "configio.csv_read_ms": read_s * ms,
        "configio.csv_mb_per_s": cycles[0].csv_bytes / 1e6 / read_s,
        "cli.report_ms": (median([c.estimate_s for c in plain_cycles]) - median(estimate_layers)) * ms,
        "trace.overhead_share": passes.trace_overhead_share(),
    })
    out.notes.append(f"traced: {len(reps)} replicates ({rep_root}), {len(cycle_roots)} CLI cycles; "
                     f"fit tail = p{fit_level * 100:g}, replicate tail = p{rep_level * 100:g}")
    out.spans = tracer.to_list()
