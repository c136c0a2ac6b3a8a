from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treatrank as tr
from treatrank import nuisance

from conftest import exact_cell_dataset, round_propensity_dgp
from unit_reference import FIELDS, unit_arrays


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
        assert np.allclose(unit_arrays(data, fit, folds)["plm_outcome"][:, 0], dgp.baseline[idx], atol=0)

    def test_crossfit_propensity_near_truth(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=5)
        folds = tr.assign_folds(data.n, 5, seed=6)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        cell = data.x == 1
        p_bar = float(unit_arrays(data, fit, folds)["p_treated"][cell, 0].mean())
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
        assert np.all(unit_arrays(data, fit, folds)["p_treated"][x == 1, 0] == 0.01)
        assert fit.clipped_count > 0
        assert fit.fallback_count > 0  # mu_treated cells in stratum 1 are empty

    def test_converges_to_cell_means_at_scale(self, reversal_dgp):
        n = 100_000
        data = tr.sample(reversal_dgp, n, seed=31)
        folds = tr.assign_folds(n, 5, seed=32)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        y_hat = unit_arrays(data, fit, folds)["plm_outcome"][:, 0]
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
        for name in ("plm_outcome", "mu_treated", "mu_control"):
            assert np.array_equal(fit[name][inside], refit[name][inside])
        # outcome perturbation never touches propensities anywhere
        assert np.array_equal(fit["p_treated"], refit["p_treated"])
        # but it must move outcome predictions in the other folds
        assert not np.allclose(fit["plm_outcome"][~inside], refit["plm_outcome"][~inside])


class TestRidgeLearners:
    def test_saturated_zero_penalty_reproduces_cell_means(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 3_000, seed=17)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=0.0)
        fit = unit_arrays(data, tr.fit_insample(data, spec))
        for s in (0, 1):
            cell = data.x == s
            assert np.allclose(fit["plm_outcome"][cell], data.y[cell].mean(), atol=1e-8)
            assert np.allclose(fit["p_treated"][cell, 0], data.w[cell, 0].mean(), atol=1e-8)

    def test_penalty_shrinks_toward_zero(self):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 2_000, seed=18)
        loose = tr.fit_insample(data, tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE))
        tight = tr.fit_insample(
            data, tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=1e6)
        )
        assert np.all(np.abs(tight.plm_outcome) < np.abs(loose.plm_outcome).max())

    def test_raw_code_basis_runs(self):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 1_000, seed=19)
        spec = tr.LearnerSpec(
            kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=1e-8, basis=tr.Basis.RAW_CODE
        )
        fit = tr.fit_crossfit(data, spec, tr.assign_folds(data.n, 5, seed=20))
        assert np.all(np.isfinite(fit.plm_outcome))

    def test_logistic_matches_cell_rates_when_saturated(self):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 4_000, seed=21)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=0.0)
        p_hat = unit_arrays(data, tr.fit_insample(data, spec))["p_treated"]
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
        assert np.all(fit.p_treated <= 0.5)

    def test_newton_cap_raises(self, monkeypatch):
        data = tr.sample(round_propensity_dgp(noise_sd=1.0), 400, seed=22)
        spec = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE)
        folds = tr.assign_folds(data.n, 5, seed=23)
        tr.fit_crossfit(data, spec, folds)
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", 1)
        with pytest.raises(tr.SingularFitError, match="did not converge in 1 Newton steps"):
            tr.fit_crossfit(data, spec, folds)

    def test_newton_converging_on_the_last_step_is_kept(self, monkeypatch):
        X, count = np.eye(3), np.array([[10.0, 20.0, 30.0]])
        total = np.array([[3.0, 11.0, 25.0]])
        beta, _, errors = nuisance._newton(X, count, total, 0.0)
        assert not errors
        for cap in range(1, nuisance.NEWTON_MAX_ITER):
            monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", cap)
            capped, _, errors = nuisance._newton(X, count, total, 0.0)
            if not errors:
                break
        assert cap > 1 and capped.tobytes() == beta.tobytes()
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", cap - 1)
        _, _, errors = nuisance._newton(X, count, total, 0.0)
        assert list(errors) == [0] and isinstance(errors[0], tr.SingularFitError)
        assert "did not converge" in str(errors[0])

    @pytest.mark.parametrize("basis", list(tr.Basis))
    @pytest.mark.parametrize("n", [1e7, 1e8, 1e9])
    def test_logistic_converges_at_large_n(self, basis, n):
        # a 5-stratum (count, total) table scaled up: the gradient's rounding floor
        # grows with the counts past NEWTON_GRAD_TOL, so the stall test ends the fit
        count = np.array([7.0, 11.0, 13.0, 5.0, 9.0]) * (n / 45.0)
        total = np.round(np.array([2.0, 5.0, 6.0, 1.0, 3.0]) * (n / 45.0))
        X = nuisance._basis(np.arange(5), basis)
        beta, _, errors = nuisance._newton(X, count[None], total[None], 0.0)
        assert not errors
        mu = nuisance._sigmoid(X @ beta[0])
        # the score is zero up to the rounding of its sums of about n terms
        assert np.max(np.abs(X.T @ (total - count * mu))) <= 1e-13 * n * np.abs(X).max()
        if basis is tr.Basis.STRATUM_DUMMIES:  # saturated: the cell rates
            np.testing.assert_allclose(mu, total / count, rtol=1e-12)

    def test_logistic_converges_on_close_raw_codes(self):
        # codes 32 and 34: the intercept and the code nearly cancel, and the
        # gradient's floor is above NEWTON_GRAD_TOL already at n = 120,000
        X = nuisance._basis(np.array([32, 34]), tr.Basis.RAW_CODE)
        count, total = np.array([55_000.0, 65_000.0]), np.array([35_000.0, 22_000.0])
        beta, _, errors = nuisance._newton(X, count[None], total[None], 0.0)
        assert not errors
        mu = nuisance._sigmoid(X @ beta[0])
        np.testing.assert_allclose(mu, total / count, rtol=1e-12)

    def test_stall_test_never_ends_a_fit_later(self, monkeypatch):
        # up to n = 10,000, on the tables the gradient test alone ends, the fit
        # with the stall test takes no more Newton steps and returns the same bits
        solve, calls = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        stall_tol, compared = nuisance.NEWTON_STALL_TOL, 0

        def fit(tol):
            monkeypatch.setattr(nuisance, "NEWTON_STALL_TOL", tol)
            calls.clear()
            beta, _, errors = nuisance._newton(X, count[None], total[None], penalty)
            return (None if errors else beta.tobytes()), len(calls)

        gen = np.random.default_rng(24)
        for i in range(400):
            S = int(gen.integers(2, 9))
            count = np.maximum(np.round(gen.dirichlet(np.ones(S)) * 10 ** gen.uniform(1, 4)), 2)
            total = np.clip(np.round(gen.uniform(0.02, 0.98, size=S) * count), 1, count - 1)
            levels = np.sort(gen.choice(60, S, replace=False)) if i % 2 else np.arange(S)
            X = nuisance._basis(levels, tr.Basis.RAW_CODE if i % 4 < 2 else tr.Basis.STRATUM_DUMMIES)
            penalty = 0.5 if i % 3 == 0 else 0.0
            (beta, steps), (alone, alone_steps) = fit(stall_tol), fit(-1.0)  # -1: never stalls
            assert beta is not None
            if alone is not None:
                assert beta == alone and steps <= alone_steps
                compared += 1
        assert compared > 350

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
        for j in (0, 1):
            assert np.allclose(fit["plm_outcome"][:, j], mu0 + p1 * t1 + p2 * t2, atol=1e-12)
        assert np.allclose(fit["mu_treated"][:, 0], mu0 + t1 + p2 * t2, atol=1e-12)
        assert np.allclose(fit["mu_control"][:, 0], mu0 + p2 * t2, atol=1e-12)
        assert np.allclose(fit["p_treated"][:, 1], p2, atol=0)
        assert np.array_equal(fit["plm_rate"], fit["p_treated"])
        p, q = oracle.p_treated[1], oracle.p_control[1]
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
        for j in (0, 1):
            assert np.allclose(fit["p_control"][:, j], p0, atol=1e-12)
            assert np.allclose(fit["mu_control"][:, j], dgp.baseline[idx], atol=0)
        q1 = dgp.propensity[0, idx] / (dgp.propensity[0, idx] + p0)
        assert np.allclose(fit["plm_rate"][:, 0], q1, atol=1e-12)
        assert np.allclose(fit["plm_outcome"][:, 0], dgp.baseline[idx] + q1 * dgp.effect[0, idx],
                           atol=1e-12)

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

    @pytest.mark.parametrize("mode", list(tr.AssignmentMode))
    def test_one_fold_table_is_fitted_in_sample(self, mode):
        # the table's folds decide the fit: one fold predicts itself, as fit_insample does
        dgp = tr.random_dgp(7, num_treatments=2, max_strata=5, propensity_range=(0.1, 0.4),
                            assignment_mode=mode)
        data = tr.sample(dgp, 200, seed=3)
        table = tr.cell_table(data, tr.FoldAssignment(1, np.zeros(data.n, dtype=np.int64)))
        for spec in (tr.LearnerSpec(),
                     tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=1.0)):
            fit, reference = tr.fit_table(table, spec, clip=0.01), tr.fit_insample(data, spec, 0.01)
            for name in FIELDS:
                a, b = getattr(fit, name), getattr(reference, name)
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
                assert np.isfinite(a).all(), name
            assert (fit.clipped_count, fit.fallback_count) == (
                reference.clipped_count, reference.fallback_count)

    def test_table_stacking(self, reversal_dgp):
        # sampled tables are on the DGP's strata and stack into the block's table
        tables = [tr.cell_table(tr.sample(reversal_dgp, 100, seed),
                                tr.assign_folds(100, 5, seed + 10)) for seed in (1, 2)]
        block = tr.cell_table(tr.sample(reversal_dgp, 100, [1, 2]), tr.assign_folds(100, 5, [11, 12]))
        stacked = nuisance.stack_tables(tables)
        assert stacked.block and np.array_equal(stacked.levels, block.levels)
        for name in ("count", "total", "m2"):
            assert getattr(stacked, name).tobytes() == getattr(block, name).tobytes()
        # the same units grouped on the codes that occur, without the first stratum
        data = tr.sample(reversal_dgp, 100, seed=1)
        codes = data.strata.codes
        merged = tr.Dataset(data.y, data.w, np.where(data.x == codes[0], codes[1], data.x))
        with pytest.raises(ValueError, match="stratum axis"):
            nuisance.stack_tables([tables[0], tr.cell_table(merged, tr.assign_folds(100, 5, seed=11))])
        other = tr.sample(reversal_dgp, 99, seed=2)
        with pytest.raises(ValueError, match="stratum axis"):
            nuisance.stack_tables([tables[0], tr.cell_table(other, tr.assign_folds(99, 5, seed=2))])

    def test_estimators_check_the_data_against_the_fit(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 100, seed=1)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), tr.assign_folds(100, 5, seed=1))
        other = tr.sample(reversal_dgp, 99, seed=1)
        for estimator in (tr.plm_estimate, tr.aipw_estimate, tr.ipw_estimate):
            assert estimator(None, fit, 1) == estimator(data, fit, 1)
            with pytest.raises(ValueError, match="other data"):
                estimator(other, fit, 1)
