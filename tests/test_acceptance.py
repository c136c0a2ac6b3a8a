"""Acceptance suite.

Each test pins one release criterion at its stated tolerance and prints one
pass/fail line (run with ``pytest -s`` to see the lines as they happen).
The heavyweight replication criteria run the full 1,000 x 10,000 study.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import treatrank as tr
from treatrank import rng

from conftest import reversal_prone_dgp


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


WORKERS = 2


def test_criterion_01_oracle_reproduction(reversal_dgp):
    wate1 = tr.oracle_wate(reversal_dgp, 1)
    wate2 = tr.oracle_wate(reversal_dgp, 2)
    ate1 = tr.oracle_ate(reversal_dgp, 1)
    ate2 = tr.oracle_ate(reversal_dgp, 2)
    ok = (
        abs(wate1 - 2.7714) < 1e-4
        and abs(wate2 - (-1.8095)) < 1e-4
        and ate1 == 0.0
        and ate2 == 0.5
    )
    report(1, "closed-form WATE/ATE reproduction", ok,
           f"wate=({wate1:.6f}, {wate2:.6f}) ate=({ate1}, {ate2})")


def test_criterion_02_rank_reversal_detection(reversal_dgp):
    r1 = tr.oracle_report(reversal_dgp, 1)
    r2 = tr.oracle_report(reversal_dgp, 2)
    res = tr.check_reversal(r1, r2)
    report(2, "reversal flagged for the reference pair", res.reversed,
           f"margin={res.margin:.4f}")


def _sweep_dgps(seed: int, count: int) -> list[tr.StratifiedDGP]:
    gen = rng.substream(seed)
    return [
        tr.random_dgp(gen, min_strata=2, max_strata=10, propensity_range=(0.01, 0.99))
        for _ in range(count)
    ]


def test_criterion_03_decomposition_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for dgp in _sweep_dgps(seed=3001, count=1_000):
        for j in (1, 2):
            q = tr.oracle_decomposition(dgp, j)
            worst = max(worst, abs(q.wate - q.ate - q.cov_tau_gamma))
    ok = worst < 1e-10
    report(3, "additive identity over 1,000 random DGPs", ok,
           f"max |wate-ate-cov| = {worst:.2e}, {time.perf_counter()-t0:.1f}s")


def test_criterion_04_necessary_and_sufficient_condition():
    t0 = time.perf_counter()
    agree = 0
    total = 0
    for dgp in _sweep_dgps(seed=3002, count=1_000):
        q1 = tr.oracle_decomposition(dgp, 1)
        q2 = tr.oracle_decomposition(dgp, 2)
        condition = (q1.ate + q1.cov_tau_gamma) < (q2.ate + q2.cov_tau_gamma)
        direct = tr.oracle_wate(dgp, 1) < tr.oracle_wate(dgp, 2)
        # orient on the higher-ATE treatment: with that premise, the
        # condition is exactly the reversal event the checker flags
        high, low = (q1, q2) if q1.ate > q2.ate else (q2, q1)
        condition_oriented = (high.ate + high.cov_tau_gamma) < (low.ate + low.cov_tau_gamma)
        flagged = tr.check_reversal(
            tr.oracle_report(dgp, 1), tr.oracle_report(dgp, 2)
        ).reversed
        total += 1
        agree += int(condition == direct and flagged == condition_oriented)
    ok = agree == total
    report(4, "covariance condition == direct WATE ordering", ok,
           f"{agree}/{total} agree, {time.perf_counter()-t0:.1f}s")


def test_criterion_05_sufficient_conditions_imply_reversal():
    t0 = time.perf_counter()
    gen = rng.substream(3003)
    hits = 0
    counterexamples = 0
    for i in range(10_000):
        dgp = tr.random_dgp(gen, max_strata=6) if i % 2 else reversal_prone_dgp(gen)
        high, low = sorted(
            (tr.oracle_report(dgp, 1), tr.oracle_report(dgp, 2)), key=lambda r: -r.ate
        )
        delta = float(gen.uniform(0.01, 0.5))
        if tr.sufficient_condition_check(high, low, delta):
            hits += 1
            if not tr.check_reversal(high, low).reversed:
                counterexamples += 1
    ok = counterexamples == 0 and hits > 200
    report(5, "delta-sufficient conditions imply reversal", ok,
           f"{hits} hits, {counterexamples} counterexamples, {time.perf_counter()-t0:.1f}s")


def test_criterion_06_fwl_equivalence(reversal_dgp):
    t0 = time.perf_counter()
    spec = tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=0.0)
    worst = 0.0
    for r in range(100):
        data = tr.sample(reversal_dgp, 2_000, seed=rng.child_seed(3004, r))
        fit = tr.fit_insample(data, spec, clip=0.0)
        levels = np.unique(data.x)
        dummies = (data.x[:, None] == levels[None, :]).astype(float)
        for j in (1, 2):
            design = np.column_stack([data.w[:, j - 1].astype(float), dummies])
            coef, *_ = np.linalg.lstsq(design, data.y, rcond=None)
            gap = abs(tr.plm_estimate(data, fit, j).point - float(coef[0]))
            worst = max(worst, gap)
    ok = worst < 1e-8
    report(6, "residual regression equals saturated OLS coefficient", ok,
           f"max gap = {worst:.2e} over 100 datasets, {time.perf_counter()-t0:.1f}s")


@pytest.fixture(scope="module")
def full_scale_extreme():
    return tr.run_scenario(tr.preset(tr.ScenarioName.EXTREME_HETEROGENEITY), workers=WORKERS)


def test_criterion_07_extreme_heterogeneity_study(full_scale_extreme):
    result = full_scale_extreme
    rate_aipw = result.correct_ranking_rate["aipw"]
    rate_plm = result.correct_ranking_rate["plm"]
    plm_means = np.nanmean(result.estimates["plm"], axis=0)
    aipw_means = np.nanmean(result.estimates["aipw"], axis=0)
    plm_gap = np.max(np.abs(plm_means - np.array(result.oracle_wate)))
    aipw_gap = np.max(np.abs(aipw_means - np.array(result.oracle_ate)))
    ok = rate_aipw > 0.95 and rate_plm < 0.05 and plm_gap < 0.05 and aipw_gap < 0.05
    report(
        7, "full-scale extreme-heterogeneity study", ok,
        f"aipw rate={rate_aipw:.3f}, plm rate={rate_plm:.3f}, "
        f"plm gap={plm_gap:.4f}, aipw gap={aipw_gap:.4f}, "
        f"runtime={result.runtime_seconds:.0f}s",
    )
    assert result.runtime_seconds < 300


def test_criterion_08_remaining_presets_rank_correctly():
    t0 = time.perf_counter()
    rates = {}
    ok = True
    for name in (
        tr.ScenarioName.CONSTANT_EFFECTS,
        tr.ScenarioName.UNCORRELATED,
        tr.ScenarioName.SELECTION_ON_GAINS,
        tr.ScenarioName.BALANCED,
    ):
        result = tr.run_scenario(tr.preset(name), workers=WORKERS)
        rates[name.value] = (
            result.correct_ranking_rate["plm"],
            result.correct_ranking_rate["aipw"],
        )
        ok = ok and all(r > 0.95 for r in rates[name.value])
    elapsed = time.perf_counter() - t0
    report(8, "remaining presets rank consistently", ok,
           f"(plm, aipw) rates: {rates}, {elapsed:.0f}s")
    assert elapsed < 1200


def test_criterion_09_double_robustness():
    t0 = time.perf_counter()
    worst_z = 0.0
    for i, name in enumerate(tr.ScenarioName):
        dgp = tr.preset(name).dgp
        data = tr.sample(dgp, 100_000, seed=rng.child_seed(3005, i))
        exact = tr.oracle_nuisance(data, dgp)
        bias = {int(c): 0.9 * (i + 1) * (-1) ** i for i, c in enumerate(dgp.stratum_codes)}
        corrupted = {
            "outcome+bias": tr.corrupt_outcome(exact, bias),
            "propensity*odds2": tr.corrupt_propensity(exact, odds_factor=2.0),
        }
        for fit in corrupted.values():
            for j in (1, 2):
                est = tr.aipw_estimate(data, fit, j)
                z = abs(est.point - tr.oracle_ate(dgp, j)) / est.std_error
                worst_z = max(worst_z, z)
    ok = worst_z < 5.0
    report(9, "doubly robust under one corrupted nuisance", ok,
           f"worst |z| = {worst_z:.2f}, {time.perf_counter()-t0:.1f}s")


def test_criterion_10_worker_determinism():
    t0 = time.perf_counter()
    config = tr.scaled(
        tr.preset(tr.ScenarioName.EXTREME_HETEROGENEITY), num_reps=64, n_per_rep=2_000
    )
    single = tr.run_scenario(config, workers=1).canonical_bytes()
    pooled = tr.run_scenario(config, workers=4).canonical_bytes()
    ok = single == pooled
    report(10, "identical result bytes for worker counts {1, 4}", ok,
           f"{len(single)} bytes each, {time.perf_counter()-t0:.1f}s")
