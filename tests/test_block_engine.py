"""The Monte Carlo engine against the replicate-at-a-time loop.

``run_scenario`` samples and tables a block of replicates at once, and
fits and estimates a task's stacked tables at once. ``loop_reference``
below is the engine's former loop: one replicate at a time through
``sample``, ``assign_folds``, ``fit_crossfit`` and ``ESTIMATORS``. Every
point and every failure count must match it bit for bit, whatever the task
and block sizes and the worker count.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

import treatrank as tr
from treatrank import montecarlo, nuisance, rng
from treatrank.estimators import ESTIMATION_ERRORS, ESTIMATORS, Method, plm_estimate
from treatrank.montecarlo import BLOCK_UNITS, METHODS, TASK_REPLICATES, _blocks, _shares, _tasks

from unit_reference import FIELDS, unit_arrays

DATA_STREAM, FOLD_STREAM = 0, 1
CAP_200 = BLOCK_UNITS // 200  # replicates in a full block at n = 200


def replicate_inputs(config, r):
    data = tr.sample(config.dgp, config.n_per_rep, rng.child_seed(config.seed, r, DATA_STREAM))
    folds = tr.assign_folds(data.n, config.num_folds, rng.child_seed(config.seed, r, FOLD_STREAM))
    return data, folds


def loop_reference(config):
    """(points, failures by (method, treatment, exception type name)) of the
    replicate-at-a-time engine."""
    K = config.dgp.num_treatments
    points = np.full((config.num_reps, len(METHODS), K), np.nan)
    failures = Counter()
    for r in range(config.num_reps):
        data, folds = replicate_inputs(config, r)
        try:
            fit = tr.fit_crossfit(data, config.learner, folds, config.clip)
        except ESTIMATION_ERRORS as exc:
            failures.update((m, j, type(exc).__name__) for m in METHODS for j in range(1, K + 1))
            continue
        for m, (method, estimator) in enumerate(zip(METHODS, ESTIMATORS.values())):
            for j in range(1, K + 1):
                try:
                    points[r, m, j - 1] = estimator(data, fit, j).point
                except ESTIMATION_ERRORS as exc:
                    failures[method, j, type(exc).__name__] += 1
    return points, failures


def engine_points(result):
    return np.stack([result.estimates[m] for m in METHODS], axis=1)


def fit_counts(result):
    """The diagnostics that are counts; the rest are seconds."""
    return {key: result.diagnostics[key] for key in ("clipped_count", "fallback_count")}


def assert_engine_matches_loop(config, workers=1):
    result = tr.run_scenario(config, workers=workers)
    points, failures = loop_reference(config)
    assert engine_points(result).tobytes() == points.tobytes()
    assert result.failure_count == sum(failures.values())
    assert result.diagnostics["failures"] == failures
    return result


def multinomial_config(n, num_reps, learner=tr.LearnerSpec()):
    dgp = tr.random_dgp(7, num_treatments=3, min_strata=6, max_strata=6,
                        propensity_range=(0.05, 0.3), assignment_mode=tr.AssignmentMode.MULTINOMIAL)
    return tr.ScenarioConfig(name="multinomial", dgp=dgp, n_per_rep=n, num_reps=num_reps, seed=4,
                             learner=learner)


RIDGE_SPECS = [
    tr.LearnerSpec(kind=kind, ridge_penalty=penalty, basis=basis)
    for kind in (tr.LearnerKind.LINEAR_RIDGE, tr.LearnerKind.LOGISTIC_RIDGE)
    for basis in tr.Basis
    for penalty in (0.0, 0.5)
]


# ---------------------------------------------------------------------------
# the kernels: row b of a block is dataset b alone


class TestBlockKernels:
    @pytest.mark.parametrize("name", ["extreme_heterogeneity", "balanced", "multinomial"])
    def test_rows_equal_single_replicates(self, name):
        if name == "multinomial":
            config = multinomial_config(180, 7)
        else:
            config = tr.scaled(tr.preset(name), n_per_rep=150, num_reps=7, seed=9)
        seeds = [rng.child_seed(config.seed, r, DATA_STREAM) for r in range(config.num_reps)]
        fold_seeds = [rng.child_seed(config.seed, r, FOLD_STREAM) for r in range(config.num_reps)]
        block = tr.sample(config.dgp, config.n_per_rep, seeds)
        block_folds = tr.assign_folds(config.n_per_rep, config.num_folds, fold_seeds)
        assert block.y.shape == (config.num_reps, config.n_per_rep)
        fit = tr.fit_crossfit(block, config.learner, block_folds, config.clip)
        estimates = [estimator(block, fit, j) for estimator in ESTIMATORS.values()
                     for j in range(1, block.num_treatments + 1)]
        for b in range(config.num_reps):
            data, folds = replicate_inputs(config, b)
            assert block.replicate(b) == data
            assert np.array_equal(block.replicate(b).strata.codes, data.strata.codes)
            assert np.array_equal(block.replicate(b).strata.position, data.strata.position)
            assert np.array_equal(block_folds.fold_of[b], folds.fold_of)
            single = tr.fit_crossfit(data, config.learner, folds, config.clip)
            row = fit.replicate(b)
            got, want = unit_arrays(data, row, folds), unit_arrays(data, single, folds)
            for name_ in FIELDS:
                assert (got[name_] is None) if want[name_] is None else \
                    got[name_].tobytes() == want[name_].tobytes()
            # the row's table is the dataset's, on the DGP's strata: empty
            # cells for the strata it lacks
            assert np.array_equal(row.table.levels, single.table.levels)
            lacks = ~np.isin(single.table.levels, data.x)
            for name in ("count", "total", "m2"):
                assert getattr(row.table, name).tobytes() == getattr(single.table, name).tobytes()
                assert not getattr(single.table, name)[..., lacks].any()
            assert fit.clipped_count[b] == single.clipped_count
            assert fit.fallback_count[b] == single.fallback_count
            alone = [estimator(data, single, j) for estimator in ESTIMATORS.values()
                     for j in range(1, data.num_treatments + 1)]
            for est, one in zip(estimates, alone):
                assert (est.point[b], est.std_error[b], est.n_used[b]) == (
                    one.point, one.std_error, one.n_used)

    def test_block_grouping_covers_every_row(self):
        # stratum 3 is rare: at n=6 some rows lack it; every row's grouping,
        # like a single sample's, is the DGP's codes in ascending order
        dgp = tr.StratifiedDGP(strata=((5, 0.45), (-2, 0.45), (3, 0.1)), num_treatments=1,
                               propensity=[[0.5, 0.5, 0.5]], effect=[[1.0, 2.0, 3.0]],
                               baseline=[0.0, 0.0, 0.0])
        block = tr.sample(dgp, 6, list(range(40)))
        assert block.strata.codes.tolist() == [-2, 3, 5]
        assert np.array_equal(block.strata.codes[block.strata.position], block.x)
        for b in range(40):
            row = block.replicate(b)
            assert row.strata.codes.tolist() == [-2, 3, 5]
            assert np.array_equal(row.strata.codes[row.strata.position], row.x)
            assert tr.sample(dgp, 6, b).strata.codes.tolist() == [-2, 3, 5]
        assert any(3 not in block.x[b] for b in range(40))


# ---------------------------------------------------------------------------
# the engine against the loop


class TestEngineMatchesLoop:
    @pytest.mark.parametrize("name", list(tr.ScenarioName))
    def test_presets(self, name):
        assert_engine_matches_loop(tr.scaled(tr.preset(name), n_per_rep=200, num_reps=90, seed=5))

    def test_multinomial_random_dgp(self):
        assert_engine_matches_loop(multinomial_config(150, 60))

    @pytest.mark.parametrize(
        "spec", RIDGE_SPECS, ids=lambda s: f"{s.kind.value}-{s.basis.value}-{s.ridge_penalty}")
    def test_ridge_learners(self, spec):
        assert_engine_matches_loop(tr.scaled(
            tr.preset("extreme_heterogeneity"), n_per_rep=300, num_reps=30, seed=6, learner=spec))
        assert_engine_matches_loop(multinomial_config(120, 30, learner=spec))

    def test_empty_cell_fallbacks(self):
        config = tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=300, num_reps=40, seed=8)
        fallbacks = 0
        for r in range(config.num_reps):
            data, folds = replicate_inputs(config, r)
            fallbacks += tr.fit_crossfit(data, config.learner, folds, config.clip).fallback_count
        assert fallbacks > 0
        assert_engine_matches_loop(config)

    def test_unclipped_rows_lacking_strata(self):
        # stratum 9 is rare, so many rows lack it; unclipped, the block's
        # propensity for it is 0 in those rows, and their empty cells there
        # must leave the row's estimates as defined as the replicate's own
        dgp = tr.StratifiedDGP(strata=((0, 0.5), (4, 0.495), (9, 0.005)), num_treatments=1,
                               propensity=[[0.5, 0.4, 0.5]], effect=[[1.0, 2.0, 3.0]],
                               baseline=[0.0, 1.0, 2.0])
        config = tr.ScenarioConfig(name="rare", dgp=dgp, n_per_rep=200, num_reps=40, seed=3,
                                   clip=0.0)
        lacking = [9 not in replicate_inputs(config, r)[0].x for r in range(config.num_reps)]
        assert 0 < sum(lacking) < config.num_reps
        result = assert_engine_matches_loop(config)
        assert np.isfinite(engine_points(result)[lacking]).all()

    def test_failed_fits(self):
        # n=10 logistic fits hit single-class training splits in some replicates
        config = tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=10, num_reps=50,
                           learner=tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE))
        result = assert_engine_matches_loop(config)
        failed = np.isnan(engine_points(result)).all(axis=(1, 2))
        assert 0 < failed.sum() < config.num_reps

    @pytest.mark.parametrize("num_reps", [1, CAP_200 - 1, CAP_200, CAP_200 + 1, 2 * CAP_200 + 1])
    def test_replicate_counts_around_the_block_size(self, num_reps):
        assert_engine_matches_loop(tr.scaled(tr.preset("balanced"), n_per_rep=200,
                                             num_reps=num_reps, seed=2))

    @pytest.mark.parametrize("n", [BLOCK_UNITS // 2 - 1, BLOCK_UNITS // 2, BLOCK_UNITS // 2 + 1,
                                   BLOCK_UNITS - 1, BLOCK_UNITS, BLOCK_UNITS + 1])
    def test_unit_counts_around_the_block_cap(self, n):
        assert_engine_matches_loop(tr.scaled(tr.preset("selection_on_gains"), n_per_rep=n,
                                             num_reps=3, seed=1))

    # 1 and 3 replicates ask for more processes than there are replicates
    @pytest.mark.parametrize("num_reps", [1, 3, 100])
    def test_worker_counts(self, num_reps):
        config = tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=200, num_reps=num_reps,
                           seed=3)
        serial = assert_engine_matches_loop(config)
        for workers in (2, 3, 5):
            assert tr.run_scenario(config, workers=workers).canonical_bytes() == \
                serial.canonical_bytes()


def assert_even_split(parts, reps):
    """``parts`` are ``reps`` in consecutive runs whose sizes differ by at most one."""
    assert [r for part in parts for r in part] == list(reps)
    sizes = [len(part) for part in parts]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


class TestBlocks:
    @pytest.mark.parametrize("num_reps", [1, 3, 7, CAP_200, CAP_200 + 1, 500, 1000])
    @pytest.mark.parametrize("n", [10, 200, 10_000, 20_000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_partition(self, num_reps, n, workers):
        shares = _shares(num_reps, workers)
        assert len(shares) == min(workers, num_reps)
        assert_even_split(shares, range(num_reps))
        for share in shares:
            tasks = _tasks(share)
            assert_even_split(tasks, share)
            assert max(len(task) for task in tasks) <= TASK_REPLICATES
            assert len(tasks) == -(-len(share) // TASK_REPLICATES)
            for task in tasks:
                blocks = _blocks(task, n)
                assert_even_split(blocks, task)
                assert max(len(block) for block in blocks) <= max(1, BLOCK_UNITS // n)
                assert len(blocks) == -(-len(task) // max(1, BLOCK_UNITS // n))


class TestTaskAndBlockSplits:
    """Rows do not depend on how replicates are split into tasks and blocks."""

    @pytest.mark.parametrize("block_units", [200, 1_000, 10**6])
    @pytest.mark.parametrize("task_replicates", [1, 7, 250])
    def test_splits(self, monkeypatch, block_units, task_replicates):
        config = tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=200, num_reps=30, seed=12)
        want = tr.run_scenario(config)
        monkeypatch.setattr(montecarlo, "BLOCK_UNITS", block_units)
        monkeypatch.setattr(montecarlo, "TASK_REPLICATES", task_replicates)
        for workers in (1, 2):
            got = tr.run_scenario(config, workers=workers)
            assert engine_points(got).tobytes() == engine_points(want).tobytes()
            assert got.canonical_bytes() == want.canonical_bytes()
            assert fit_counts(got) == fit_counts(want)

    @pytest.mark.parametrize("name, n, num_reps", [("extreme_heterogeneity", 10_000, 6),
                                                   ("balanced", 200, 125)])
    def test_benchmark_presets_match_the_loop(self, name, n, num_reps):
        # the sizes of the benchmark's Monte Carlo workloads: one replicate
        # per block at n = 10,000, and a task of several blocks at n = 200
        config = tr.scaled(tr.preset(name), n_per_rep=n, num_reps=num_reps, seed=21)
        assert len(_blocks(range(num_reps), n)) > 1
        assert_engine_matches_loop(config)


def edge_design(name):
    """A DGP that takes one of the sampler's less common paths."""
    base = tr.random_dgp(31, num_treatments=2, min_strata=4, max_strata=4,
                         propensity_range=(0.1, 0.9))
    strata = base.strata
    tables = dict(num_treatments=2, propensity=base.propensity, effect=base.effect,
                  baseline=base.baseline)
    if name == "five_treatments":  # two pattern chunks
        return tr.random_dgp(32, num_treatments=5, min_strata=4, max_strata=4,
                             propensity_range=(0.1, 0.9))
    if name == "many_strata":  # one counting pass per stratum
        return tr.random_dgp(33, min_strata=70, max_strata=70, propensity_range=(0.1, 0.9))
    if name == "unsorted_codes":
        strata = tuple((code, p) for code, (_, p) in zip([7, -3, 12, 0], strata))
    if name == "zero_probability_stratum":
        strata = ((0, 0.5), (1, 0.0), (2, 0.3), (3, 0.2))
    return tr.StratifiedDGP(strata=strata, noise_sd=0.0 if name == "no_noise" else 1.0,
                            **tables)


EDGE_DESIGNS = ["five_treatments", "unsorted_codes", "zero_probability_stratum", "no_noise",
                "many_strata"]


class TestEdgeDesigns:
    @pytest.mark.parametrize("n, num_reps", [(BLOCK_UNITS // 2 + 1, 3), (200, 50)],
                             ids=["one_per_block", "several_per_block"])
    @pytest.mark.parametrize("name", EDGE_DESIGNS)
    def test_engine_matches_the_loop(self, name, n, num_reps):
        dgp = edge_design(name)
        config = tr.ScenarioConfig(name=name, dgp=dgp, n_per_rep=n, num_reps=num_reps, seed=23)
        blocks = _blocks(range(num_reps), n)
        assert len(blocks) > 1 and max(map(len, blocks)) == (1 if n > 200 else 25)
        assert_engine_matches_loop(config)

    def test_designs_take_their_paths(self):
        tables = {name: edge_design(name)._sampling for name in EDGE_DESIGNS}
        assert tables["five_treatments"].means.shape[0] == 2**tr.dgp.PATTERN_TREATMENTS
        assert not np.array_equal(tables["unsorted_codes"].rank, np.arange(4))
        assert np.diff(tables["zero_probability_stratum"].cum).min() == 0.0
        assert edge_design("no_noise").noise_sd == 0.0
        assert tables["many_strata"].cum.shape[0] == 70


class TestDiagnostics:
    @pytest.mark.parametrize("config", [
        tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=300, num_reps=40, seed=8),
        # n=10 logistic fits fail in some replicates, which add no counts
        tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=10, num_reps=50,
                  learner=tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE)),
    ], ids=["fallbacks", "failed_fits"])
    def test_totals_are_the_replicate_fits(self, config):
        clipped = fallbacks = 0
        for r in range(config.num_reps):
            data, folds = replicate_inputs(config, r)
            try:
                fit = tr.fit_crossfit(data, config.learner, folds, config.clip)
            except ESTIMATION_ERRORS:
                continue
            clipped += fit.clipped_count
            fallbacks += fit.fallback_count
        assert clipped > 0
        assert (fallbacks > 0) == (config.learner.kind is tr.LearnerKind.STRATUM_MEAN)
        result = tr.run_scenario(config)
        assert fit_counts(result) == {"clipped_count": clipped, "fallback_count": fallbacks}
        assert fit_counts(tr.run_scenario(config, workers=2)) == fit_counts(result)
        assert "diagnostics" not in result.to_dict()
        assert b"diagnostics" not in result.canonical_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_layer_seconds(self, workers):
        # the fit fails in some replicates, so the task redoes it one by one
        config = tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=10, num_reps=50,
                           learner=tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE))
        result = tr.run_scenario(config, workers=workers)
        assert set(result.diagnostics) == {"clipped_count", "fallback_count", "failures",
                                           *montecarlo.LAYER_SECONDS}
        for key in montecarlo.LAYER_SECONDS:
            assert isinstance(result.diagnostics[key], float) and result.diagnostics[key] >= 0
        assert result.diagnostics["unit_seconds"] > 0
        if workers == 1:
            assert sum(result.diagnostics[k] for k in montecarlo.LAYER_SECONDS) <= \
                result.runtime_seconds
        # seconds are volatile: the canonical bytes are those of another run
        again = tr.run_scenario(config, workers=3 - workers)
        assert again.canonical_bytes() == result.canonical_bytes()
        assert "seconds" not in json.dumps(result.to_dict(include_volatile=False))


# ---------------------------------------------------------------------------
# failures inside a stacked task


def replicate_table(config, r):
    """Replicate ``r``'s cell table, on the DGP's strata as in the engine; it identifies ``r``."""
    data, folds = replicate_inputs(config, r)
    return tr.cell_table(data, folds)


class TestFailureInsideTask:
    CONFIG = tr.scaled(tr.preset("balanced"), n_per_rep=200, num_reps=12, seed=7)

    def test_estimator_failure_in_one_row(self, monkeypatch):
        marker = replicate_table(self.CONFIG, 5).total[:, 0]
        calls = []

        def flaky(data, fit, j):
            total = fit.table.total
            calls.append(fit.table.block)
            if any(np.array_equal(total[:, b], marker) for b in range(total.shape[1])):
                raise tr.NoVariationError("row 5")
            return plm_estimate(data, fit, j)

        reference, _ = loop_reference(self.CONFIG)
        monkeypatch.setitem(ESTIMATORS, Method.PLM, flaky)
        result = tr.run_scenario(self.CONFIG)
        points = engine_points(result)
        K = self.CONFIG.dgp.num_treatments
        assert result.failure_count == K
        assert np.isnan(points[5, 0]).all()
        keep = np.ones(points.shape, dtype=bool)
        keep[5, 0] = False
        assert points[keep].tobytes() == reference[keep].tobytes()
        # one stacked call per treatment, then each replicate of the task alone
        assert calls.count(True) == K and calls.count(False) == K * self.CONFIG.num_reps

    def test_fit_failure_in_one_row(self, monkeypatch):
        # blocks of five replicates: the task stacks three block tables
        monkeypatch.setattr(montecarlo, "BLOCK_UNITS", 5 * self.CONFIG.n_per_rep)
        marker = replicate_table(self.CONFIG, 9).total[:, 0]
        reference, _ = loop_reference(self.CONFIG)
        fits = []

        def flaky_fit(table, *args):
            fits.append(table.count.shape[1])
            if any(np.array_equal(table.total[:, b], marker) for b in range(table.total.shape[1])):
                raise tr.SingularFitError("row 9")
            return tr.fit_table(table, *args)

        monkeypatch.setattr(montecarlo, "fit_table", flaky_fit)
        result = tr.run_scenario(self.CONFIG)
        points = engine_points(result)
        assert fits == [self.CONFIG.num_reps] + [1] * self.CONFIG.num_reps
        assert result.failure_count == points[9].size
        assert np.isnan(points[9]).all()
        assert np.delete(points, 9, axis=0).tobytes() == np.delete(reference, 9, axis=0).tobytes()


# ---------------------------------------------------------------------------
# failures counted by cause


class TestFailureCauses:
    """``diagnostics["failures"]`` splits ``failure_count`` by (method, treatment,
    exception type name), summed over tasks and child processes."""

    CONFIG = tr.scaled(tr.preset("balanced"), n_per_rep=200, num_reps=12, seed=7)

    @staticmethod
    def run_both(config):
        serial, pooled = (tr.run_scenario(config, workers=w) for w in (1, 2))
        causes = serial.diagnostics["failures"]
        assert sum(causes.values()) == serial.failure_count
        assert pooled.diagnostics["failures"] == causes
        assert pooled.failure_count == serial.failure_count
        assert "failures" not in json.dumps(serial.to_dict())
        assert serial.canonical_bytes() == pooled.canonical_bytes()
        return causes

    def test_chosen_replicates(self, monkeypatch):
        # AIPW fails for treatment 2 in replicates 3 and 10 (one in each
        # process at workers 2), and the fit of replicate 8 fails
        aipw_rows = [replicate_table(self.CONFIG, r).total[:, 0] for r in (3, 10)]
        fit_row = replicate_table(self.CONFIG, 8).total[:, 0]

        def holds(table, rows):
            return any(np.array_equal(table.total[:, b], row)
                       for b in range(table.total.shape[1]) for row in rows)

        def flaky_aipw(data, fit, j):
            if j == 2 and holds(fit.table, aipw_rows):
                raise tr.NoVariationError("chosen replicate")
            return tr.aipw_estimate(data, fit, j)

        def flaky_fit(table, *args):
            if holds(table, [fit_row]):
                raise tr.SingularFitError("chosen replicate")
            return tr.fit_table(table, *args)

        monkeypatch.setitem(ESTIMATORS, Method.AIPW, flaky_aipw)
        monkeypatch.setattr(montecarlo, "fit_table", flaky_fit)
        causes = self.run_both(self.CONFIG)
        K = self.CONFIG.dgp.num_treatments
        want = {(m, j, "SingularFitError"): 1 for m in METHODS for j in range(1, K + 1)}
        want["aipw", 2, "NoVariationError"] = 2
        assert causes == want
        assert list(causes) == sorted(want)

    def test_newton_cap(self, monkeypatch):
        # one Newton step converges nowhere: every fit fails, once per method and treatment
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", 1)
        config = tr.scaled(self.CONFIG, num_reps=6,
                           learner=tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE))
        causes = self.run_both(config)
        K = config.dgp.num_treatments
        assert causes == {(m, j, "SingularFitError"): config.num_reps
                          for m in METHODS for j in range(1, K + 1)}

    def test_none_when_nothing_fails(self):
        assert self.run_both(tr.scaled(self.CONFIG, num_reps=4)) == {}
