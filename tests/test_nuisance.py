from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treatrank as tr
from treatrank import nuisance

from conftest import exact_cell_dataset, round_propensity_dgp
from unit_reference import unit_arrays


class TestAssignFolds:
    def test_even_split(self):
        folds = tr.assign_folds(10, 5, seed=1)
        sizes = np.bincount(folds.fold_of, minlength=5)
        assert list(sizes) == [2, 2, 2, 2, 2]

    def test_uneven_split(self):
        folds = tr.assign_folds(11, 5, seed=1)
        sizes = sorted(np.bincount(folds.fold_of, minlength=5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = tr.assign_folds(100, 4, seed=3)
        b = tr.assign_folds(100, 4, seed=3)
        assert np.array_equal(a.fold_of, b.fold_of)
        c = tr.assign_folds(100, 4, seed=4)
        assert not np.array_equal(a.fold_of, c.fold_of)

    def test_too_few_units(self):
        with pytest.raises(ValueError):
            tr.assign_folds(3, 5, seed=0)
        with pytest.raises(ValueError):
            tr.assign_folds(10, 1, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 500))
    def test_balance_property(self, num_folds, extra):
        n = num_folds + extra
        folds = tr.assign_folds(n, num_folds, seed=11)
        sizes = np.bincount(folds.fold_of, minlength=num_folds)
        assert sizes.min() >= 1
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n


class TestStratumMean:
    def test_noiseless_outcome_recovered_exactly(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=1,
            propensity=np.array([[0.5, 0.5]]),
            effect=np.zeros((1, 2)),
            baseline=np.array([3.0, -1.0]),
            noise_sd=0.0,
        )
        data = tr.sample(dgp, 500, seed=2)
        folds = tr.assign_folds(500, 5, seed=3)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        assert fit.fallback_count == 0
        idx = dgp.stratum_index(data.x)
        assert np.allclose(unit_arrays(data, fit, folds)["y_hat"], dgp.baseline[idx], atol=0)

    def test_crossfit_propensity_near_truth(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=5)
        folds = tr.assign_folds(data.n, 5, seed=6)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        cell = data.x == 1
        p_bar = float(unit_arrays(data, fit, folds)["p_hat"][cell, 0].mean())
        sigma = np.sqrt(0.25 / cell.sum())
        assert abs(p_bar - 0.5) < 3 * sigma

    def test_empty_treated_cell_clips_and_counts(self):
        # stratum 1 has no treated units at all
        y = np.arange(40, dtype=float)
        w = np.zeros((40, 1), dtype=np.int8)
        x = np.repeat([0, 1], 20)
        w[:10, 0] = 1  # treated only in stratum 0
        data = tr.Dataset(y=y, w=w, x=x)
        folds = tr.assign_folds(40, 4, seed=8)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds, clip=0.01)
        assert np.all(unit_arrays(data, fit, folds)["p_hat"][x == 1, 0] == 0.01)
        assert fit.clipped_count > 0
        assert fit.fallback_count > 0  # mu_treated cells in stratum 1 are empty

    def test_converges_to_cell_means_at_scale(self, reversal_dgp):
        n = 100_000
        data = tr.sample(reversal_dgp, n, seed=31)
        folds = tr.assign_folds(n, 5, seed=32)
        y_hat = unit_arrays(data, tr.fit_crossfit(data, tr.LearnerSpec(), folds), folds)["y_hat"]
        idx = reversal_dgp.stratum_index(data.x)
        p, tau, mu0 = reversal_dgp.propensity, reversal_dgp.effect, reversal_dgp.baseline
        truth = mu0[idx] + (p[:, idx] * tau[:, idx]).sum(axis=0)
        for s in (0, 1):
            cell = data.x == s
            resid = y_hat[cell] - truth[cell]
            se = float(data.y[cell].std(ddof=1) / np.sqrt(cell.sum()))
            assert abs(float(resid.mean())) < 5 * se


class TestOutOfFoldPurity:
    def test_fold_predictions_ignore_own_fold(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 2_000, seed=13)
        folds = tr.assign_folds(data.n, 5, seed=14)
        fit = unit_arrays(data, tr.fit_crossfit(data, tr.LearnerSpec(), folds), folds)
        k = 2
        mutated = tr.Dataset(y=data.y.copy(), w=data.w.copy(), x=data.x.copy())
        mutated.y[folds.fold_of == k] += 100.0
        refit = unit_arrays(mutated, tr.fit_crossfit(mutated, tr.LearnerSpec(), folds), folds)
        inside = folds.fold_of == k
        for name in ("y_hat", "mu_treated", "mu_control"):
            assert np.array_equal(fit[name][inside], refit[name][inside])
        # outcome perturbation never touches propensities anywhere
        assert np.array_equal(fit["p_hat"], refit["p_hat"])
        # but it must move outcome predictions in the other folds
        assert not np.allclose(fit["y_hat"][~inside], refit["y_hat"][~inside])


class TestRidgeLearners:
    def test_saturated_zero_penalty_reproduces_cell_means(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 3_000, seed=17)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=0.0)
        fit = unit_arrays(data, tr.fit_insample(data, spec))
        for s in (0, 1):
            cell = data.x == s
            assert np.allclose(fit["y_hat"][cell], data.y[cell].mean(), atol=1e-8)
            assert np.allclose(fit["p_hat"][cell, 0], data.w[cell, 0].mean(), atol=1e-8)

    def test_penalty_shrinks_toward_zero(self):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 2_000, seed=18)
        loose = tr.fit_insample(data, tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE))
        tight = tr.fit_insample(
            data, tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=1e6)
        )
        assert np.all(np.abs(tight.y_hat) < np.abs(loose.y_hat).max())

    def test_raw_code_basis_runs(self):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 1_000, seed=19)
        spec = tr.LearnerSpec(
            kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=1e-8, basis=tr.Basis.RAW_CODE
        )
        fit = tr.fit_crossfit(data, spec, tr.assign_folds(data.n, 5, seed=20))
        assert np.all(np.isfinite(fit.y_hat))

    def test_logistic_matches_cell_rates_when_saturated(self):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 4_000, seed=21)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=0.0)
        p_hat = unit_arrays(data, tr.fit_insample(data, spec))["p_hat"]
        for s in (0, 1):
            cell = data.x == s
            assert p_hat[cell, 0].mean() == pytest.approx(
                data.w[cell, 0].mean(), abs=1e-6
            )

    def test_logistic_single_class_split_raises(self):
        y = np.arange(20, dtype=float)
        w = np.zeros((20, 1), dtype=np.int8)  # nobody treated anywhere
        x = np.repeat([0, 1], 10)
        data = tr.Dataset(y=y, w=w, x=x)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=0.0)
        with pytest.raises(tr.SingularFitError, match="ridge_penalty"):
            tr.fit_insample(data, spec)

    def test_logistic_single_class_with_penalty_is_fine(self):
        y = np.arange(20, dtype=float)
        w = np.zeros((20, 1), dtype=np.int8)
        x = np.repeat([0, 1], 10)
        data = tr.Dataset(y=y, w=w, x=x)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=1.0)
        fit = tr.fit_insample(data, spec, clip=0.01)
        assert np.all(fit.p_hat <= 0.5)

    def test_newton_cap_raises(self, monkeypatch):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 400, seed=22)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE)
        folds = tr.assign_folds(data.n, 5, seed=23)
        tr.fit_crossfit(data, spec, folds)
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", 1)
        with pytest.raises(tr.SingularFitError, match="did not converge in 1 Newton steps"):
            tr.fit_crossfit(data, spec, folds)

    def test_newton_converging_on_the_last_step_is_kept(self, monkeypatch):
        X, count = np.eye(3), np.array([10.0, 20.0, 30.0])
        total = np.array([3.0, 11.0, 25.0])
        beta = nuisance._logistic_ridge_beta(X, count, total, 0.0)
        for cap in range(1, nuisance.NEWTON_MAX_ITER):
            monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", cap)
            try:
                capped = nuisance._logistic_ridge_beta(X, count, total, 0.0)
            except tr.SingularFitError:
                continue
            break
        assert cap > 1 and capped.tobytes() == beta.tobytes()
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", cap - 1)
        with pytest.raises(tr.SingularFitError, match="did not converge"):
            nuisance._logistic_ridge_beta(X, count, total, 0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            tr.LearnerSpec(ridge_penalty=-1.0)


class TestOracleNuisance:
    def test_parallel_binary_closed_forms(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        oracle = tr.oracle_nuisance(data, dgp)
        fit = unit_arrays(data, oracle)
        idx = dgp.stratum_index(data.x)
        p1, p2 = dgp.propensity[0, idx], dgp.propensity[1, idx]
        t1, t2 = dgp.effect[0, idx], dgp.effect[1, idx]
        mu0 = dgp.baseline[idx]
        assert np.allclose(fit["y_hat"], mu0 + p1 * t1 + p2 * t2, atol=1e-12)
        assert np.allclose(fit["mu_treated"][:, 0], mu0 + t1 + p2 * t2, atol=1e-12)
        assert np.allclose(fit["mu_control"][:, 0], mu0 + p2 * t2, atol=1e-12)
        assert np.allclose(fit["p_hat"][:, 1], p2, atol=0)
        p, q = oracle.propensities(2)
        assert np.allclose(q, 1 - p, atol=0) and np.allclose(p[0, 0], dgp.propensity[1], atol=0)

    def test_multinomial_closed_forms(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=2,
            propensity=np.array([[0.25, 0.4], [0.25, 0.2]]),
            effect=np.array([[1.0, 2.0], [-1.0, 0.5]]),
            baseline=np.array([0.0, 1.0]),
            noise_sd=0.0,
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        data = exact_cell_dataset(dgp, 20)
        fit = unit_arrays(data, tr.oracle_nuisance(data, dgp))
        idx = dgp.stratum_index(data.x)
        p0 = 1 - dgp.propensity[:, idx].sum(axis=0)
        assert np.allclose(fit["control_p"], p0, atol=1e-12)
        q1 = dgp.propensity[0, idx] / (dgp.propensity[0, idx] + p0)
        assert np.allclose(fit["restricted_p"][:, 0], q1, atol=1e-12)
        assert np.allclose(fit["mu_control"][:, 1], dgp.baseline[idx], atol=0)

    def test_mode_mismatch_rejected(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        other = tr.StratifiedDGP(
            strata=dgp.strata,
            num_treatments=2,
            propensity=np.array([[0.2, 0.3], [0.3, 0.25]]),
            effect=dgp.effect,
            baseline=dgp.baseline,
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        with pytest.raises(ValueError, match="mode"):
            tr.oracle_nuisance(data, other)


class TestCorruption:
    def test_outcome_bias_shifts_outcome_models_only(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        bad = unit_arrays(data, tr.corrupt_outcome(fit, bias={0: 1.0, 1: -2.0}))
        fit = unit_arrays(data, fit)
        offset = np.where(data.x == 0, 1.0, -2.0)
        assert np.allclose(bad["y_hat"], fit["y_hat"] + offset)
        assert np.allclose(bad["mu_treated"], fit["mu_treated"] + offset[:, None])
        assert np.array_equal(bad["p_hat"], fit["p_hat"])

    def test_outcome_bias_needs_every_stratum(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        with pytest.raises(ValueError, match="unknown stratum code 1"):
            tr.corrupt_outcome(fit, bias={0: 1.0})

    def test_propensity_odds_shift_formula(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        bad = tr.corrupt_propensity(fit, odds_factor=2.0)
        p = fit.p_hat
        assert np.allclose(bad.p_hat, 2 * p / (1 - p + 2 * p))
        assert np.array_equal(bad.mu_treated, fit.mu_treated)
        with pytest.raises(ValueError):
            tr.corrupt_propensity(fit, odds_factor=0.0)


class TestFitValidation:
    def test_clip_range(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 100, seed=1)
        folds = tr.assign_folds(100, 5, seed=1)
        with pytest.raises(ValueError):
            tr.fit_crossfit(data, tr.LearnerSpec(), folds, clip=0.5)

    def test_fold_size_mismatch(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 100, seed=1)
        folds = tr.assign_folds(99, 5, seed=1)
        with pytest.raises(ValueError):
            tr.fit_crossfit(data, tr.LearnerSpec(), folds)

    def test_messages_from_both_entry_points(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 100, seed=1)
        empty = tr.Dataset(y=np.zeros(0), w=np.zeros((0, 2)), x=np.zeros(0))
        folds = tr.assign_folds(100, 5, seed=1)
        spec = tr.LearnerSpec()
        # the empty-dataset check comes before the fold-size check
        with pytest.raises(ValueError, match="^dataset is empty$"):
            tr.fit_crossfit(empty, spec, folds)
        with pytest.raises(ValueError, match="^dataset is empty$"):
            tr.fit_insample(empty, spec)
        with pytest.raises(ValueError, match=r"^fold assignment covers 99 units, dataset has 100$"):
            tr.fit_crossfit(data, spec, tr.assign_folds(99, 5, seed=1), clip=0.7)
        for clip in (-0.1, 0.5):
            message = rf"^clip must be in \[0, 0\.5\), got {clip}$"
            with pytest.raises(ValueError, match=message):
                tr.fit_crossfit(data, spec, folds, clip=clip)
            with pytest.raises(ValueError, match=message):
                tr.fit_insample(data, spec, clip=clip)
