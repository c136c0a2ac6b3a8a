from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treatrank as tr
from treatrank import rng

from conftest import exact_cell_dataset, round_propensity_dgp
from test_corruption import corrupt_outcome, corrupt_propensity
from unit_reference import indicators, unit_arrays


def crossfit(data, seed=0, **kwargs):
    folds = tr.assign_folds(data.n, 5, seed=seed)
    return tr.fit_crossfit(data, tr.LearnerSpec(), folds, **kwargs)


def in_comparison(data, j):
    """Units entering treatment ``j``'s comparison: arm j or control."""
    treated, control = indicators(data, j)
    return (treated == 1) | (control == 1)


class TestPlm:
    def test_reversal_example_recovers_weighted_target(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=101)
        fit = crossfit(data, seed=102)
        est = tr.plm_estimate(data, fit, 1)
        assert est.estimand is tr.Estimand.WATE
        assert est.n_used == 10_000
        assert est.point == pytest.approx(2.7714, abs=0.15)
        assert tr.plm_estimate(data, fit, 2).point == pytest.approx(-1.8095, abs=0.15)

    def test_constant_effect_recovers_effect(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=1,
            propensity=np.array([[0.2, 0.7]]),
            effect=np.array([[2.0, 2.0]]),
            baseline=np.array([0.0, 1.0]),
        )
        data = tr.sample(dgp, 10_000, seed=103)
        est = tr.plm_estimate(data, crossfit(data, seed=104), 1)
        assert abs(est.point - 2.0) < 5 * est.std_error

    def test_noiseless_single_stratum_exact(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 1.0),),
            num_treatments=1,
            propensity=np.array([[0.5]]),
            effect=np.array([[1.0]]),
            baseline=np.array([0.0]),
            noise_sd=0.0,
        )
        data = exact_cell_dataset(dgp, 20)
        fit = tr.fit_insample(data, tr.LearnerSpec())
        est = tr.plm_estimate(data, fit, 1)
        assert est.point == pytest.approx(1.0, abs=1e-8)

    def test_no_variation_error(self):
        data = tr.Dataset(
            y=np.arange(10, dtype=float),
            w=np.ones((10, 1), dtype=np.int8),
            x=np.zeros(10, dtype=np.int64),
        )
        fit = tr.fit_insample(data, tr.LearnerSpec(), clip=0.0)
        with pytest.raises(tr.NoVariationError):
            tr.plm_estimate(data, fit, 1)

    def test_multinomial_restriction(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=2,
            propensity=np.array([[0.25, 0.4], [0.25, 0.2]]),
            effect=np.array([[1.0, 1.0], [-1.0, -1.0]]),
            baseline=np.array([0.0, 1.0]),
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        data = tr.sample(dgp, 20_000, seed=105)
        fit = crossfit(data, seed=106)
        est = tr.plm_estimate(data, fit, 1)
        assert est.n_used == int(in_comparison(data, 1).sum())
        assert abs(est.point - 1.0) < 5 * est.std_error


def subsample_regression(d, p, y, m, mask):
    """(slope, sandwich SE, units) of ``y - m`` on ``d - p`` through the origin,
    fitted on the units in ``mask`` alone."""
    keep = np.flatnonzero(mask)
    w_res, y_res = d[keep] - p[keep], y[keep] - m[keep]
    slope = np.linalg.lstsq(w_res[:, None], y_res, rcond=None)[0][0]
    resid = y_res - slope * w_res
    se = np.sqrt(np.sum(w_res**2 * resid**2)) / np.sum(w_res**2)
    return slope, se, keep.size


class TestPlmMultinomialReference:
    """PLM under multinomial assignment is the {control, j} subsample regression."""

    DGP = tr.random_dgp(12, num_treatments=3, max_strata=5, propensity_range=(0.1, 0.4),
                        assignment_mode=tr.AssignmentMode.MULTINOMIAL)

    @staticmethod
    def inputs(data, fit, folds, j):
        units = unit_arrays(data, fit, folds)
        return (data.w[:, j - 1].astype(float), units["plm_rate"][:, j - 1], data.y,
                units["plm_outcome"][:, j - 1], in_comparison(data, j))

    @staticmethod
    def check(point, se, used, reference):
        slope, ref_se, ref_used = reference
        assert point == pytest.approx(slope, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-12)
        assert used == ref_used

    def test_single_dataset(self):
        data = tr.sample(self.DGP, 3_000, seed=131)
        folds = tr.assign_folds(data.n, 5, seed=132)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        for j in (1, 2, 3):
            est = tr.plm_estimate(data, fit, j)
            self.check(est.point, est.std_error, est.n_used,
                       subsample_regression(*self.inputs(data, fit, folds, j)))

    def test_every_row_of_a_block(self):
        seeds = [141, 142, 143, 144]
        data = tr.sample(self.DGP, 400, seeds)
        folds = tr.assign_folds(400, 5, seeds)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        for j in (1, 2, 3):
            est = tr.plm_estimate(data, fit, j)
            for b in range(len(seeds)):
                inputs = self.inputs(data.replicate(b), fit.replicate(b), folds.replicate(b), j)
                self.check(est.point[b], est.std_error[b], est.n_used[b],
                           subsample_regression(*inputs))


class TestAipw:
    def test_reversal_example_recovers_ates(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=107)
        fit = crossfit(data, seed=108)
        est1 = tr.aipw_estimate(data, fit, 1)
        est2 = tr.aipw_estimate(data, fit, 2)
        assert est1.estimand is tr.Estimand.ATE
        assert abs(est1.point - 0.0) < 5 * est1.std_error
        assert abs(est2.point - 0.5) < 5 * est2.std_error

    def test_treatment_bounds(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        for j in (0, 3):
            with pytest.raises(ValueError, match=r"treatment index must be in 1\.\.2"):
                tr.aipw_estimate(data, fit, j)

    def test_noiseless_exact_cells_recover_ate_exactly(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        for j in (1, 2):
            est = tr.aipw_estimate(data, fit, j)
            assert est.point == pytest.approx(tr.oracle_ate(dgp, j), abs=1e-8)

    def test_oracle_nuisances_target_ate_at_scale(self):
        for name in tr.ScenarioName:
            dgp = tr.preset(name).dgp
            data = tr.sample(dgp, 100_000, seed=111)
            fit = tr.oracle_nuisance(data, dgp)
            for j in (1, 2):
                est = tr.aipw_estimate(data, fit, j)
                assert abs(est.point - tr.oracle_ate(dgp, j)) < 5 * est.std_error, name

    def test_double_robustness_light(self):
        dgp = tr.preset(tr.ScenarioName.SELECTION_ON_GAINS).dgp
        data = tr.sample(dgp, 20_000, seed=112)
        exact = tr.oracle_nuisance(data, dgp)
        bad_mu = corrupt_outcome(exact, bias={0: 0.7, 1: -1.3})
        bad_p = corrupt_propensity(exact, odds_factor=2.0)
        for fit in (bad_mu, bad_p):
            for j in (1, 2):
                est = tr.aipw_estimate(data, fit, j)
                assert abs(est.point - tr.oracle_ate(dgp, j)) < 5 * est.std_error


class TestIpw:
    def test_noiseless_exact_cells_recover_ate_exactly(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        for j in (1, 2):
            est = tr.ipw_estimate(data, fit, j)
            assert est.point == pytest.approx(tr.oracle_ate(dgp, j), abs=1e-8)
            assert est.estimand is tr.Estimand.ATE

    def test_balanced_propensity_reduces_to_scaled_arm_means(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=1,
            propensity=np.array([[0.5, 0.5]]),
            effect=np.array([[1.0, 2.0]]),
            baseline=np.array([0.0, 1.0]),
        )
        data = tr.sample(dgp, 5_000, seed=113)
        fit = tr.oracle_nuisance(data, dgp)
        est = tr.ipw_estimate(data, fit, 1)
        d = data.w[:, 0]
        mechanical = 2 * float(np.mean(d * data.y)) - 2 * float(np.mean((1 - d) * data.y))
        assert est.point == pytest.approx(mechanical, abs=1e-12)

    def test_reversal_example_recovers_ate(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=114)
        fit = crossfit(data, seed=115)
        est = tr.ipw_estimate(data, fit, 2)
        assert abs(est.point - 0.5) < 5 * est.std_error


class TestFwlEquivalence:
    @pytest.mark.parametrize("kind", [tr.LearnerKind.STRATUM_MEAN, tr.LearnerKind.LINEAR_RIDGE])
    def test_residual_regression_equals_full_ols(self, reversal_dgp, kind):
        data = tr.sample(reversal_dgp, 2_000, seed=116)
        fit = tr.fit_insample(data, tr.LearnerSpec(kind=kind), clip=0.0)
        levels = np.unique(data.x)
        dummies = (data.x[:, None] == levels[None, :]).astype(float)
        for j in (1, 2):
            design = np.column_stack([data.w[:, j - 1].astype(float), dummies])
            coef, *_ = np.linalg.lstsq(design, data.y, rcond=None)
            est = tr.plm_estimate(data, fit, j)
            assert est.point == pytest.approx(float(coef[0]), abs=1e-8)


class TestConditionalVarianceWeighting:
    def test_oracle_nuisances_converge_to_wate(self, reversal_dgp):
        gen = rng.substream(117)
        dgps = [reversal_dgp] + [tr.random_dgp(gen, max_strata=5) for _ in range(2)]
        for i, dgp in enumerate(dgps):
            data = tr.sample(dgp, 100_000, seed=118 + i)
            fit = tr.oracle_nuisance(data, dgp)
            for j in (1, 2):
                est = tr.plm_estimate(data, fit, j)
                assert abs(est.point - tr.oracle_wate(dgp, j)) < 5 * est.std_error


class TestRankingFaithfulness:
    def test_aipw_follows_ate_and_plm_follows_wate(self, reversal_dgp):
        reps, n = 120, 6_000
        aipw_ok = plm_ok = 0
        wate_gap_sign = np.sign(
            tr.oracle_wate(reversal_dgp, 2) - tr.oracle_wate(reversal_dgp, 1)
        )
        for r in range(reps):
            data = tr.sample(reversal_dgp, n, seed=rng.child_seed(119, r))
            fit = crossfit(data, seed=rng.child_seed(120, r))
            a1 = tr.aipw_estimate(data, fit, 1).point
            a2 = tr.aipw_estimate(data, fit, 2).point
            p1 = tr.plm_estimate(data, fit, 1).point
            p2 = tr.plm_estimate(data, fit, 2).point
            aipw_ok += int(np.sign(a2 - a1) == 1.0)  # oracle ATE order: 2 above 1
            plm_ok += int(np.sign(p2 - p1) == wate_gap_sign)
        assert aipw_ok / reps > 0.95
        assert plm_ok / reps > 0.95


class TestEstimateContainers:
    def test_estimand_method_pairing_enforced(self):
        # the estimand is the method's: WATE for PLM and for PLM only
        for method in tr.Method:
            est = tr.EffectEstimate(treatment=1, method=method, point=0.0, std_error=0.0,
                                    n_used=10)
            assert (est.estimand is tr.Estimand.WATE) == (method is tr.Method.PLM)
        with pytest.raises(ValueError):
            tr.EffectEstimate(
                treatment=1, method=tr.Method.PLM, point=0.0, std_error=np.inf,
                n_used=10,
            )


# Prints one hash of a 20,000-unit study's canonical bytes and of PLM on a
# 50,000-unit multinomial sample: sums that long are where a threaded BLAS
# splits its work and rounds differently.
THREAD_PROBE = """
import hashlib
import treatrank as tr
h = hashlib.sha256()
config = tr.scaled(tr.preset("extreme_heterogeneity"), n_per_rep=20_000, num_reps=6, seed=5)
h.update(tr.run_scenario(config).canonical_bytes())
dgp = tr.random_dgp(3, num_treatments=4, min_strata=24, max_strata=24,
                    propensity_range=(0.03, 0.2), assignment_mode=tr.AssignmentMode.MULTINOMIAL)
data = tr.sample(dgp, 50_000, seed=6)
fit = tr.fit_crossfit(data, tr.LearnerSpec(), tr.assign_folds(data.n, 5, seed=7))
for j in range(1, 5):
    est = tr.plm_estimate(data, fit, j)
    h.update(repr((est.point, est.std_error)).encode())
print(h.hexdigest())
"""


def test_results_do_not_depend_on_blas_threads():
    src = str(Path(tr.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
