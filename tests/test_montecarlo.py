from __future__ import annotations

import itertools
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import treatrank as tr
from treatrank import montecarlo, nuisance
from treatrank.diagnostics import descending_order
from treatrank.estimators import ESTIMATORS, Method
from treatrank.montecarlo import METHODS


class TestPresets:
    @pytest.mark.parametrize("name", list(tr.ScenarioName))
    def test_presets_load_and_validate(self, name):
        config = tr.preset(name)
        assert config.name == name.value
        assert config.n_per_rep == 10_000
        assert config.num_reps == 1_000
        tr.validate_scenario(config)  # idempotent

    def test_extreme_heterogeneity_embeds_reference_tables(self, reversal_dgp):
        config = tr.preset(tr.ScenarioName.EXTREME_HETEROGENEITY)
        assert config.dgp == reversal_dgp

    def test_constant_effects_has_zero_covariance(self):
        dgp = tr.preset(tr.ScenarioName.CONSTANT_EFFECTS).dgp
        for j in (1, 2):
            assert tr.oracle_report(dgp, j).cov_tau_gamma == pytest.approx(0.0, abs=1e-12)

    def test_selection_on_gains_has_same_sign_covariances(self):
        dgp = tr.preset(tr.ScenarioName.SELECTION_ON_GAINS).dgp
        covs = [tr.oracle_report(dgp, j).cov_tau_gamma for j in (1, 2)]
        assert all(c < -0.01 for c in covs)

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ValueError, match="balanced"):
            tr.preset("not_a_preset")

    def test_tampered_scenario_fails_validation(self):
        config = tr.preset(tr.ScenarioName.CONSTANT_EFFECTS)
        broken = replace(
            config,
            dgp=tr.StratifiedDGP(
                strata=config.dgp.strata,
                num_treatments=2,
                propensity=config.dgp.propensity,
                effect=np.array([[1.0, 2.0], [0.5, 0.5]]),
                baseline=config.dgp.baseline,
            ),
        )
        with pytest.raises(ValueError, match="constant"):
            tr.validate_scenario(broken)

    def test_reversal_only_in_extreme_heterogeneity(self):
        for name in tr.ScenarioName:
            dgp = tr.preset(name).dgp
            r1, r2 = tr.oracle_report(dgp, 1), tr.oracle_report(dgp, 2)
            flipped = tr.check_reversal(r1, r2).reversed
            assert flipped == (name is tr.ScenarioName.EXTREME_HETEROGENEITY)


class TestScenarioConfigIO:
    def test_round_trip(self, tmp_path):
        config = tr.preset(tr.ScenarioName.BALANCED)
        path = tmp_path / "scenario.yaml"
        tr.write_scenario_config(config, path)
        assert tr.load_scenario_config(path) == config

    def test_missing_dgp_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: custom\nn_per_rep: 10\n")
        with pytest.raises(tr.ConfigError, match="dgp"):
            tr.load_scenario_config(path)


def small(name=tr.ScenarioName.EXTREME_HETEROGENEITY, **kwargs) -> tr.ScenarioConfig:
    defaults = dict(num_reps=12, n_per_rep=600)
    defaults.update(kwargs)
    return tr.scaled(tr.preset(name), **defaults)


class TestRunScenario:
    def test_single_replicate_deterministic(self):
        config = small(num_reps=1)
        a = tr.run_scenario(config)
        b = tr.run_scenario(config)
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_worker_count_does_not_change_results(self):
        config = small(num_reps=12)
        serial = tr.run_scenario(config, workers=1)
        pooled = tr.run_scenario(config, workers=2)
        assert serial.canonical_bytes() == pooled.canonical_bytes()
        # of the diagnostics, only the seconds are volatile
        counts = [{k: v for k, v in r.diagnostics.items() if not k.endswith("_seconds")}
                  for r in (serial, pooled)]
        assert counts[0] == counts[1] and counts[0]["clipped_count"] > 0

    def test_result_shapes_and_rates(self):
        config = small(num_reps=8)
        result = tr.run_scenario(config)
        assert result.methods == ("plm", "aipw", "ipw")
        assert result.methods == METHODS == tuple(m.value for m in ESTIMATORS)
        for arr in result.estimates.values():
            assert arr.shape == (8, 2)
        for rate in result.correct_ranking_rate.values():
            assert 0.0 <= rate <= 1.0
        assert result.failure_count == 0

    def test_estimation_failures_recorded_not_raised(self, monkeypatch):
        def explode(data, fit, j):
            raise tr.NoVariationError("boom")

        monkeypatch.setitem(ESTIMATORS, Method.PLM, explode)
        result = tr.run_scenario(small(num_reps=3))
        assert result.failure_count == 6  # 3 replicates x 2 treatments
        assert np.all(np.isnan(result.estimates["plm"]))
        assert result.correct_ranking_rate["plm"] is None  # no replicate estimated every treatment
        assert not np.any(np.isnan(result.estimates["aipw"]))

    def test_one_failed_estimate_drops_only_its_replicate_from_the_rate(self, monkeypatch):
        # AIPW fails for treatment 2 in one replicate: the block call fails, so each
        # replicate is estimated alone, and the third of those calls fails
        aipw, calls = ESTIMATORS[Method.AIPW], itertools.count()

        def flaky(data, fit, j):
            if j == 2 and (fit.table.block or next(calls) == 2):
                raise tr.NoVariationError("flaky")
            return aipw(data, fit, j)

        monkeypatch.setitem(ESTIMATORS, Method.AIPW, flaky)
        reps = 12
        result = tr.run_scenario(small(num_reps=reps))
        assert result.failure_count == 1
        assert result.diagnostics["failures"] == {("aipw", 2, "NoVariationError"): 1}
        oracle = descending_order(dict(zip(result.treatments, result.oracle_ate)))
        for method, points in result.estimates.items():
            complete = [row for row in points if not np.isnan(row).any()]
            assert len(complete) == (reps - 1 if method == "aipw" else reps), method
            hits = sum(descending_order(dict(zip(result.treatments, row))) == oracle
                       for row in complete)
            assert result.correct_ranking_rate[method] == hits / len(complete), method
        assert 0 < result.correct_ranking_rate["aipw"] < 1  # so the count of replicates shows

    def test_failed_fit_recorded_for_every_method_and_treatment(self):
        # n=10 logistic fits hit single-class training splits
        config = tr.scaled(
            tr.preset(tr.ScenarioName.EXTREME_HETEROGENEITY), num_reps=50, n_per_rep=10,
            learner=tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE),
        )
        serial = tr.run_scenario(config, workers=1)
        assert serial.failure_count > 0
        failed_reps = np.all(np.isnan(serial.estimates["plm"]), axis=1)
        for points in serial.estimates.values():
            assert np.all(np.isnan(points[failed_reps]))
        assert serial.canonical_bytes() == tr.run_scenario(config, workers=2).canonical_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_undefined_estimates_recorded(self):
        # clip=0 at n=10 leaves estimated propensities of 0 or 1: non-finite SEs
        config = small(tr.ScenarioName.BALANCED, num_reps=10, n_per_rep=10, clip=0.0)
        assert tr.run_scenario(config).failure_count > 0
        with pytest.raises(tr.UndefinedEstimateError):
            tr.EffectEstimate(treatment=1, method=tr.Method.IPW, point=0.0,
                              std_error=float("nan"), n_used=10)

    def test_newton_cap_recorded_as_failure(self, monkeypatch):
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", 1)
        config = small(num_reps=4, learner=tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE))
        result = tr.run_scenario(config)
        assert result.failure_count == 4 * 3 * 2
        assert all(np.isnan(points).all() for points in result.estimates.values())
        assert result.correct_ranking_rate == dict.fromkeys(METHODS)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(data, fit, j):
            raise TypeError("not a data problem")

        monkeypatch.setitem(ESTIMATORS, Method.AIPW, broken)
        with pytest.raises(TypeError, match="not a data problem"):
            tr.run_scenario(small(num_reps=2))

    def test_oracle_targeting_all_presets(self):
        # mean PLM estimate tracks the weighted target, mean AIPW the ATE
        for name in tr.ScenarioName:
            config = tr.scaled(tr.preset(name), num_reps=40, n_per_rep=2_500)
            result = tr.run_scenario(config, workers=2)
            for idx in (0, 1):
                plm = result.estimates["plm"][:, idx]
                se = plm.std(ddof=1) / np.sqrt(len(plm))
                assert abs(plm.mean() - result.oracle_wate[idx]) < 5 * se, name
                aipw = result.estimates["aipw"][:, idx]
                se = aipw.std(ddof=1) / np.sqrt(len(aipw))
                assert abs(aipw.mean() - result.oracle_ate[idx]) < 5 * se, name

    def test_balanced_preset_plm_and_aipw_estimate_the_same_thing(self):
        # flat weights make the weighted and unweighted targets coincide
        config = small(tr.ScenarioName.BALANCED, num_reps=40, n_per_rep=2_000)
        result = tr.run_scenario(config, workers=2)
        for idx in (0, 1):
            plm = result.estimates["plm"][:, idx]
            aipw = result.estimates["aipw"][:, idx]
            spread = np.sqrt(
                plm.var(ddof=1) / len(plm) + aipw.var(ddof=1) / len(aipw)
            )
            assert abs(plm.mean() - aipw.mean()) < 2 * spread

    def test_bias_fields_consistent(self):
        result = tr.run_scenario(small(num_reps=6))
        bias = result.bias()
        mean = float(np.nanmean(result.estimates["aipw"][:, 0]))
        assert bias["aipw"]["vs_ate"][0] == pytest.approx(mean - result.oracle_ate[0])

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            tr.run_scenario(small(num_reps=2), workers=0)


SPAWN_PROBE = """
import multiprocessing
import treatrank as tr
multiprocessing.set_start_method("spawn")
config = tr.scaled(tr.preset("balanced"), num_reps=6, n_per_rep=200, seed=4)
serial = tr.run_scenario(config, workers=1).canonical_bytes()
print(tr.run_scenario(config, workers=2).canonical_bytes() == serial,
      multiprocessing.active_children())
"""


# the children must inherit the patched ``_run_task``, which only a forked child does
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="needs the fork start method")
class TestChildProcesses:
    """A child's failure reaches the caller, and no child outlives ``run_scenario``."""

    @staticmethod
    def failing_share(monkeypatch, share, fail):
        """A 4-replicate study whose tasks call ``fail`` on the replicates of ``share``."""
        config = small(num_reps=4)
        reps = montecarlo._shares(config.num_reps, 2)[share]
        run_task = montecarlo._run_task

        def task(config, task_reps):
            if task_reps.start in reps:
                fail()
            return run_task(config, task_reps)

        monkeypatch.setattr(montecarlo, "_run_task", task)
        return config

    def test_child_error_keeps_its_type(self, monkeypatch):
        def fail():
            raise TypeError("not a data problem")

        config = self.failing_share(monkeypatch, 1, fail)
        with pytest.raises(TypeError, match="not a data problem"):
            tr.run_scenario(config, workers=2)
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_outcomes(self, monkeypatch):
        config = self.failing_share(monkeypatch, 1, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="replicates 2-3 exited with code 3"):
            tr.run_scenario(config, workers=2)
        assert multiprocessing.active_children() == []

    def test_unpicklable_child_error(self, monkeypatch):
        class Local(Exception):  # a local class cannot be pickled
            pass

        def fail():
            raise Local("cannot travel")

        config = self.failing_share(monkeypatch, 1, fail)
        with pytest.raises(RuntimeError, match="replicates 2-3 exited with code 1"):
            tr.run_scenario(config, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [TypeError, KeyboardInterrupt])
    def test_error_in_own_share_stops_the_children(self, monkeypatch, error):
        # the child would sleep for a minute; the caller's error must end it
        config = self.failing_share(monkeypatch, 1, lambda: time.sleep(60))
        run_share = montecarlo._run_share

        def own_share(config, reps):
            if reps.start == 0:
                raise error("own share")
            return run_share(config, reps)

        monkeypatch.setattr(montecarlo, "_run_share", own_share)
        start = time.perf_counter()
        with pytest.raises(error):
            tr.run_scenario(config, workers=2)
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - start < 30


def test_spawn_start_method():
    src = str(Path(tr.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SPAWN_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["True", "[]"]


class TestRankingRates:
    def test_every_row_ordered_as_descending_order(self):
        gen = np.random.default_rng(0)
        points = gen.integers(-1, 2, size=(300, 3, 3)).astype(float)  # many ties
        points[gen.random(points.shape) < 0.05] = np.nan
        points[gen.random((300, 3)) < 0.02] *= -0.0
        oracle = (2, 1, 3)
        rates = montecarlo._ranking_rates(points, oracle)
        for m in range(3):
            rows = [row for row in points[:, m] if not np.isnan(row).any()]
            correct = sum(descending_order(dict(zip((1, 2, 3), row))) == oracle for row in rows)
            assert rates[m] == correct / len(rows)

    def test_rate_over_complete_replicates_only(self):
        points = np.array([[[2.0, 1.0]], [[np.nan, 1.0]], [[0.0, 1.0]], [[3.0, 3.0]]])
        assert montecarlo._ranking_rates(points, (1, 2)) == [2 / 3]
        assert montecarlo._ranking_rates(points[1:2], (1, 2)) == [None]


class TestSummaries:
    def test_single_replicate_quantiles_collapse(self):
        result = tr.run_scenario(small(num_reps=1))
        for row in tr.summarize(result):
            assert row["q025"] == row["q500"] == row["q975"] == row["mean"]
            assert row["sd"] == 0.0

    def test_summary_row_count_and_keys(self):
        result = tr.run_scenario(small(num_reps=4))
        rows = tr.summarize(result)
        assert len(rows) == 6  # 3 methods x 2 treatments
        assert {r["method"] for r in rows} == {"plm", "aipw", "ipw"}
        # nothing that result holds: no scenario, targets, biases or ranking rates
        assert {tuple(r) for r in rows} == {
            ("method", "treatment", "mean", "sd", "q025", "q500", "q975", "failures")}

    def test_mean_minus_target_is_the_bias(self):
        result = tr.run_scenario(small(num_reps=4))
        plm = result.estimates["plm"].copy()
        plm[1, 0] = np.nan
        result = replace(result, estimates={**result.estimates, "plm": plm})
        bias = result.bias()
        for row in tr.summarize(result):
            idx = result.treatments.index(row["treatment"])
            assert row["mean"] - result.oracle_ate[idx] == bias[row["method"]]["vs_ate"][idx]

    def test_failures_counted_per_method_and_treatment(self):
        result = tr.run_scenario(small(num_reps=4))
        aipw = result.estimates["aipw"].copy()
        aipw[1, 1] = np.nan
        injected = replace(result, estimates={**result.estimates, "aipw": aipw})
        failures = {(r["method"], r["treatment"]): r["failures"] for r in tr.summarize(injected)}
        assert failures == {
            (m, j): int(m == "aipw" and j == 2) for m in ("plm", "aipw", "ipw") for j in (1, 2)
        }

    def test_failed_column_keeps_its_row(self):
        result = tr.run_scenario(small(num_reps=3))
        plm = result.estimates["plm"].copy()
        plm[:, 0] = np.nan
        injected = replace(result, estimates={**result.estimates, "plm": plm})
        rows = {(r["method"], r["treatment"]): r for r in tr.summarize(injected)}
        assert len(rows) == 6
        failed = rows[("plm", 1)]
        assert failed["failures"] == 3
        for key in ("mean", "sd", "q025", "q500", "q975"):
            assert failed[key] is None, key
        assert rows[("plm", 2)]["mean"] == float(plm[:, 1].mean())
        assert rows[("plm", 2)]["failures"] == 0

    def test_every_replicate_failed(self):
        result = tr.run_scenario(small(num_reps=2))
        hollow = replace(
            result, estimates={m: np.full_like(a, np.nan) for m, a in result.estimates.items()}
        )
        rows = tr.summarize(hollow)
        assert len(rows) == 6
        assert all(r["failures"] == 2 and r["mean"] is None for r in rows)

    def test_empty_result_rejected(self):
        result = tr.run_scenario(small(num_reps=2))
        hollow = replace(result, estimates={})
        with pytest.raises(ValueError):
            tr.summarize(hollow)

    def test_canonical_bytes_exclude_runtime(self):
        result = tr.run_scenario(small(num_reps=2))
        slower = replace(result, runtime_seconds=result.runtime_seconds + 99.0, workers=8)
        assert result.canonical_bytes() == slower.canonical_bytes()
        assert result.to_dict()["runtime_seconds"] != slower.to_dict()["runtime_seconds"]
