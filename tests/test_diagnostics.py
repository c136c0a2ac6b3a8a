from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import treatrank as tr
from treatrank import rng

from conftest import dgp_sweep, exact_cell_dataset, reversal_prone_dgp, round_propensity_dgp


def oracle_estimates(dgp) -> list[tr.EffectEstimate]:
    """EffectEstimate rows carrying the oracle WATE (as PLM) and ATE (as AIPW)."""
    out = []
    for j in range(1, dgp.num_treatments + 1):
        out.append(
            tr.EffectEstimate(
                treatment=j, method=tr.Method.PLM, point=tr.oracle_wate(dgp, j),
                std_error=0.0, n_used=0,
            )
        )
        out.append(
            tr.EffectEstimate(
                treatment=j, method=tr.Method.AIPW, point=tr.oracle_ate(dgp, j),
                std_error=0.0, n_used=0,
            )
        )
    return out


class TestDecompose:
    def test_reversal_example_triple(self, reversal_dgp):
        rep = tr.oracle_report(reversal_dgp, 1)
        assert rep.ate == pytest.approx(0.0, abs=1e-12)
        assert rep.wate == pytest.approx(2.7714, abs=1e-4)
        assert rep.cov_tau_gamma == pytest.approx(2.7714, abs=1e-4)
        assert rep.wate == tr.oracle_wate(reversal_dgp, 1)

    def test_unit_weights_mean_zero_covariance(self):
        rep = tr.decompose(
            {0: 1.0, 1: 3.0}, {0: 1.0, 1: 1.0}, {0: 0.5, 1: 0.5}
        )
        assert rep.cov_tau_gamma == pytest.approx(0.0, abs=1e-15)
        assert rep.wate == pytest.approx(rep.ate, abs=1e-15)

    def test_constant_effect_zero_covariance(self):
        rep = tr.decompose(
            {0: 2.5, 1: 2.5}, {0: 0.3, 1: 1.7}, {0: 0.5, 1: 0.5}
        )
        assert rep.cov_tau_gamma == pytest.approx(0.0, abs=1e-12)
        assert rep.wate == pytest.approx(2.5, abs=1e-12)

    def test_weights_renormalized_to_unit_mean(self):
        rep = tr.decompose({0: 1.0, 1: 2.0}, {0: 4.0, 1: 8.0}, {0: 0.5, 1: 0.5})
        mean_gamma = sum(r.probability * r.gamma for r in rep.per_stratum)
        assert mean_gamma == pytest.approx(1.0, abs=1e-12)

    def test_misaligned_tables_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            tr.decompose({0: 1.0}, {1: 1.0}, {0: 1.0})
        with pytest.raises(ValueError, match="sum to 1"):
            tr.decompose({0: 1.0}, {0: 1.0}, {0: 0.9})

    @pytest.mark.parametrize("probs", [{0: 1.5, 1: -0.5}, {0: np.nan, 1: 0.5},
                                       {0: np.inf, 1: 0.5}])
    def test_bad_probabilities_rejected(self, probs):
        # {1.5, -0.5} sums to one; a NaN fails the sum check's comparison
        with pytest.raises(ValueError, match="finite and non-negative"):
            tr.decompose({0: 1.0, 1: 2.0}, {0: 1.0, 1: 1.0}, probs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_effects_and_weights_rejected(self, value):
        probs = {0: 0.5, 1: 0.5}
        with pytest.raises(ValueError, match="effects must be finite"):
            tr.decompose({0: value, 1: 2.0}, {0: 1.0, 1: 1.0}, probs)
        with pytest.raises(ValueError, match="weights must be finite"):
            tr.decompose({0: 1.0, 1: 2.0}, {0: value, 1: 1.0}, probs)


class TestEstimateDecomposition:
    def test_reversal_example_close_to_oracle(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=201)
        folds = tr.assign_folds(data.n, 5, seed=202)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        rep = tr.estimate_decomposition(data, fit, 1)
        assert rep.source is tr.Source.ESTIMATED
        assert rep.wate == pytest.approx(2.7714, abs=0.2)
        assert rep.ate == pytest.approx(0.0, abs=0.2)

    @pytest.mark.parametrize("mode", list(tr.AssignmentMode))
    def test_noiseless_exact_cells_reproduce_oracle(self, mode):
        # under MULTINOMIAL the control arm keeps 0.3 and 0.25 of the strata
        dgp = dataclasses.replace(round_propensity_dgp(), assignment_mode=mode)
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        for j in (1, 2):
            rep = tr.estimate_decomposition(data, fit, j)
            oracle = tr.oracle_report(dgp, j)
            assert (oracle.remainder, rep.strata) == (0.0, oracle.strata)
            # both sides are the residual regression's point on these cells
            assert oracle.wate == pytest.approx(tr.plm_estimate(data, fit, j).point, abs=1e-10)
            for name in ("ate", "wate", "cov_tau_gamma", "remainder"):
                assert getattr(rep, name) == pytest.approx(getattr(oracle, name), abs=1e-10), name
            for row, want in zip(rep.per_stratum, oracle.per_stratum):
                for name in ("probability", "tau", "gamma"):
                    assert getattr(row, name) == pytest.approx(getattr(want, name), abs=1e-10)

    def test_balanced_design_small_covariance(self):
        dgp = tr.preset(tr.ScenarioName.BALANCED).dgp
        data = tr.sample(dgp, 10_000, seed=203)
        folds = tr.assign_folds(data.n, 5, seed=204)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        rep = tr.estimate_decomposition(data, fit, 1)
        assert abs(rep.cov_tau_gamma) < 0.1

    def test_additivity_is_exact_for_estimated_reports(self, reversal_dgp):
        for seed in range(5):
            data = tr.sample(reversal_dgp, 4_000, seed=205 + seed)
            folds = tr.assign_folds(data.n, 5, seed=300 + seed)
            fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
            for j in (1, 2):
                rep = tr.estimate_decomposition(data, fit, j)
                assert rep.wate == tr.plm_estimate(data, fit, j).point
                assert rep.ate == tr.aipw_estimate(data, fit, j).point
                assert abs(rep.wate - rep.ate - rep.cov_tau_gamma - rep.remainder) < 1e-12
                assert 0.0 < abs(rep.remainder) < 0.05  # cross-fitted: small, not zero

    @pytest.mark.parametrize("mode", list(tr.AssignmentMode))
    def test_in_sample_stratum_mean_remainder_is_zero(self, mode):
        # in-sample, a stratum's residual-regression slope is its mean score
        dgp = tr.random_dgp(12, num_treatments=3, max_strata=5, propensity_range=(0.1, 0.4),
                            assignment_mode=mode)
        data = tr.sample(dgp, 2_000, seed=1)
        fit = tr.fit_insample(data, tr.LearnerSpec(), clip=0.0)
        for j in (1, 2, 3):
            assert abs(tr.estimate_decomposition(data, fit, j).remainder) < 1e-12

    def test_strata_without_both_arms_are_kept(self):
        y = np.arange(30, dtype=float)
        w = np.zeros((30, 1), dtype=np.int8)
        x = np.repeat([0, 1, 2], 10)
        w[:5, 0] = 1   # stratum 0 mixed
        w[10:15, 0] = 1  # stratum 1 mixed
        # stratum 2 has no treated units; PLM and AIPW still take its units
        data = tr.Dataset(y=y, w=w, x=x)
        fit = tr.fit_insample(data, tr.LearnerSpec(), clip=0.01)
        rep = tr.estimate_decomposition(data, fit, 1)
        assert rep.strata == (0, 1, 2)
        assert [r.probability for r in rep.per_stratum] == [1 / 3] * 3
        assert (rep.ate, rep.wate) == (tr.aipw_estimate(data, fit, 1).point,
                                       tr.plm_estimate(data, fit, 1).point)

    @pytest.mark.parametrize("clip", [0.0, 0.01])
    def test_not_estimable_exactly_when_plm_raises(self, clip):
        # every unit treated: unclipped, PLM's residuals are all 0
        data = tr.Dataset(
            y=np.arange(10, dtype=float),
            w=np.ones((10, 1), dtype=np.int8),
            x=np.zeros(10, dtype=np.int64),
        )
        fit = tr.fit_insample(data, tr.LearnerSpec(), clip=clip)
        if clip == 0.0:
            with pytest.raises(tr.NoVariationError):
                tr.plm_estimate(data, fit, 1)
            with pytest.raises(tr.NotEstimableError, match="zero variation") as exc:
                tr.estimate_decomposition(data, fit, 1)
            assert isinstance(exc.value.__cause__, tr.NoVariationError)
        else:
            rep = tr.estimate_decomposition(data, fit, 1)
            assert rep.wate == tr.plm_estimate(data, fit, 1).point

    @pytest.mark.parametrize("mode", list(tr.AssignmentMode))
    def test_non_finite_outcome_is_not_estimable(self, mode):
        dgp = tr.random_dgp(3, num_treatments=2, max_strata=3, propensity_range=(0.2, 0.4),
                            assignment_mode=mode)
        data = tr.sample(dgp, 400, seed=1)
        # a unit that takes no treatment is in every treatment's control cells
        data.y[np.flatnonzero(data.w.sum(axis=1) == 0)[0]] = np.nan
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), tr.assign_folds(data.n, 5, seed=2))
        for j in (1, 2):
            with pytest.raises(tr.NotEstimableError, match="not finite"):
                tr.estimate_decomposition(data, fit, j)


class TestCovariancePanels:
    """The three shipped single-treatment panel DGPs span the covariance signs."""

    @pytest.mark.parametrize(
        "name, sign",
        [
            ("panel_negative_covariance", -1),
            ("panel_zero_covariance", 0),
            ("panel_positive_covariance", 1),
        ],
    )
    def test_covariance_sign_and_identity(self, name, sign):
        dgp = tr.load_dgp_config(tr.packaged_config_path(f"{name}.yaml"))
        q = tr.oracle_report(dgp, 1)
        assert np.sign(round(q.cov_tau_gamma, 6)) == sign
        assert abs(q.wate - q.ate - q.cov_tau_gamma) < 1e-12
        # brute-force recomputation straight from the tables
        probs, tau, p = dgp.stratum_probs, dgp.effect[0], dgp.propensity[0]
        v = p * (1 - p)
        gamma = v / float(probs @ v)
        assert q.ate == pytest.approx(float(probs @ tau), abs=1e-12)
        assert q.wate == pytest.approx(float(probs @ (gamma * tau)), abs=1e-12)

    def test_rederived_panel_values(self):
        negative = tr.load_dgp_config(
            tr.packaged_config_path("panel_negative_covariance.yaml")
        )
        q = tr.oracle_report(negative, 1)
        assert q.ate == pytest.approx(1.56, abs=1e-12)
        assert q.cov_tau_gamma == pytest.approx(-0.2914, abs=1e-3)
        positive = tr.load_dgp_config(
            tr.packaged_config_path("panel_positive_covariance.yaml")
        )
        q = tr.oracle_report(positive, 1)
        assert q.ate == pytest.approx(0.64, abs=1e-12)
        assert q.cov_tau_gamma == pytest.approx(0.2914, abs=1e-3)


def _packaged_dgps() -> dict[str, tr.StratifiedDGP]:
    """Every DGP the package ships: the scenario presets' and the panels'."""
    configs = tr.packaged_config_path("balanced.yaml").parent
    return {path.stem: tr.load_dgp_config(path) for path in sorted(configs.glob("*.yaml"))}


def _unsorted_codes(dgp: tr.StratifiedDGP, seed: int) -> tr.StratifiedDGP:
    """``dgp`` with its strata relabelled by shuffled, spread-out codes, in the same rows."""
    codes = 7 * np.random.default_rng(seed).permutation(dgp.num_strata) - 3
    return tr.StratifiedDGP(
        strata=tuple((int(c), p) for c, (_, p) in zip(codes, dgp.strata)),
        num_treatments=dgp.num_treatments, propensity=dgp.propensity, effect=dgp.effect,
        baseline=dgp.baseline, assignment_mode=dgp.assignment_mode,
    )


def _random_dgps() -> list[tr.StratifiedDGP]:
    """Random DGPs in both modes, with 1-4 treatments and up to 40 strata, half with unsorted codes."""
    dgps = []
    for i in range(150):
        for mode in tr.AssignmentMode:
            dgp = tr.random_dgp(400 + i, num_treatments=1 + i % 4, max_strata=2 + i % 39,
                                assignment_mode=mode)
            dgps.append(_unsorted_codes(dgp, i) if i % 2 else dgp)
    return dgps


class TestOracleReport:
    """The oracle report is the one closed-form decomposition: bit for bit the dgp oracles."""

    @staticmethod
    def assert_bitwise_oracle(dgp):
        for j in range(1, dgp.num_treatments + 1):
            rep = tr.oracle_report(dgp, j)
            assert rep.source is tr.Source.ORACLE and rep.treatment == j
            assert rep.ate == tr.oracle_ate(dgp, j)
            assert rep.wate == tr.oracle_wate(dgp, j)
            assert rep.strata == tuple(dgp.stratum_codes.tolist())
            assert [row.gamma for row in rep.per_stratum] == tr.oracle_weights(dgp, j).tolist()
            assert [row.probability for row in rep.per_stratum] == dgp.stratum_probs.tolist()
            assert [row.tau for row in rep.per_stratum] == dgp.effect[j - 1].tolist()

    @pytest.mark.parametrize("name", sorted(_packaged_dgps()))
    def test_packaged_configs(self, name):
        self.assert_bitwise_oracle(_packaged_dgps()[name])

    def test_random_dgps_in_both_modes(self):
        for dgp in _random_dgps():
            self.assert_bitwise_oracle(dgp)

    def test_treatment_checked(self, reversal_dgp):
        for j in (0, 3):
            with pytest.raises(ValueError, match="treatment index"):
                tr.oracle_report(reversal_dgp, j)


class TestCheckReversal:
    def test_reversal_example_pair_flagged(self, reversal_dgp):
        r1 = tr.oracle_report(reversal_dgp, 1)
        r2 = tr.oracle_report(reversal_dgp, 2)
        res = tr.check_reversal(r1, r2)
        assert res.reversed
        assert res.margin < 0
        assert tr.check_reversal(r2, r1).reversed  # symmetric

    def test_identical_reports_not_reversed(self, reversal_dgp):
        r1 = tr.oracle_report(reversal_dgp, 1)
        res = tr.check_reversal(r1, r1)
        assert not res.reversed
        assert res.margin == 0.0

    def test_mismatched_strata_rejected(self, reversal_dgp):
        r1 = tr.oracle_report(reversal_dgp, 1)
        other = tr.decompose({5: 1.0}, {5: 1.0}, {5: 1.0}, treatment=2)
        with pytest.raises(ValueError, match="strata"):
            tr.check_reversal(r1, other)

    def test_unsorted_codes_compare_as_a_set(self, reversal_dgp):
        # an oracle report keeps the DGP's stratum order, an estimated one ascending codes
        shuffled = tr.StratifiedDGP(
            strata=((1, 0.5), (0, 0.5)), num_treatments=2,
            propensity=reversal_dgp.propensity[:, ::-1], effect=reversal_dgp.effect[:, ::-1],
            baseline=reversal_dgp.baseline[::-1],
        )
        r1 = tr.oracle_report(shuffled, 1)
        rows = sorted(tr.oracle_report(shuffled, 2).per_stratum, key=lambda row: row.stratum)
        sorted_r2 = tr.decompose({r.stratum: r.tau for r in rows}, {r.stratum: r.gamma for r in rows},
                                 {r.stratum: r.probability for r in rows}, treatment=2)
        assert r1.strata == (1, 0) and sorted_r2.strata == (0, 1)
        res = tr.check_reversal(r1, sorted_r2)
        expected = tr.check_reversal(tr.oracle_report(reversal_dgp, 1),
                                     tr.oracle_report(reversal_dgp, 2))
        assert res.reversed and res.margin == pytest.approx(expected.margin, abs=1e-12)

    def test_sweep_matches_direct_ordering_comparison(self):
        for dgp in dgp_sweep(seed=206, count=200):
            r1, r2 = tr.oracle_report(dgp, 1), tr.oracle_report(dgp, 2)
            flagged = tr.check_reversal(r1, r2).reversed
            a1, a2 = tr.oracle_ate(dgp, 1), tr.oracle_ate(dgp, 2)
            w1, w2 = tr.oracle_wate(dgp, 1), tr.oracle_wate(dgp, 2)
            direct = (a1 > a2 and w1 < w2) or (a2 > a1 and w2 < w1)
            assert flagged == direct


class TestSufficientConditions:
    def test_reversal_example_at_unit_delta(self, reversal_dgp):
        # treatment 2 carries the higher ATE, so it plays the leading role
        r1 = tr.oracle_report(reversal_dgp, 1)
        r2 = tr.oracle_report(reversal_dgp, 2)
        assert tr.sufficient_condition_check(r2, r1, delta=1.0)

    def test_zero_covariances_never_sufficient(self):
        rep_a = tr.decompose({0: 2.0, 1: 2.0}, {0: 0.5, 1: 1.5}, {0: 0.5, 1: 0.5}, treatment=1)
        rep_b = tr.decompose({0: 1.0, 1: 1.0}, {0: 1.2, 1: 0.8}, {0: 0.5, 1: 0.5}, treatment=2)
        for delta in (0.01, 0.5, 3.0):
            assert not tr.sufficient_condition_check(rep_a, rep_b, delta)

    def test_delta_must_be_positive(self, reversal_dgp):
        r1 = tr.oracle_report(reversal_dgp, 1)
        for delta in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="delta must be > 0"):
                tr.sufficient_condition_check(r1, r1, delta=delta)

    def test_tied_ates_never_sufficient(self, tied_dgp):
        r1, r2 = tr.oracle_report(tied_dgp, 1), tr.oracle_report(tied_dgp, 2)
        assert r1.ate == r2.ate
        assert r1.cov_tau_gamma < -0.1 and r2.cov_tau_gamma > 0.1
        assert not tr.check_reversal(r1, r2).reversed
        assert not tr.sufficient_condition_check(r1, r2, delta=0.1)

    def test_sufficient_implies_reversed_sweep(self):
        gen = rng.substream(207)
        hits = 0
        for i in range(2_000):
            dgp = tr.random_dgp(gen, max_strata=6) if i % 2 else reversal_prone_dgp(gen)
            # a tied copy: treatment 2 takes treatment 1's effects, so equal ATEs
            tied = dataclasses.replace(dgp, effect=dgp.effect[[0, 0]])
            delta = float(gen.uniform(0.01, 0.5))
            for d in (dgp, tied):
                high, low = sorted(
                    (tr.oracle_report(d, 1), tr.oracle_report(d, 2)),
                    key=lambda r: -r.ate,
                )
                if tr.sufficient_condition_check(high, low, delta):
                    hits += 1
                    assert tr.check_reversal(high, low).reversed
            assert tr.oracle_report(tied, 1).ate == tr.oracle_report(tied, 2).ate
        assert hits > 100  # the sweep must actually exercise the implication


class TestRankTreatments:
    def test_reversal_example_orderings(self, reversal_dgp):
        result = tr.rank_treatments(oracle_estimates(reversal_dgp))
        assert result.ordering_by_ate == (2, 1)
        assert result.ordering_by_wate == (1, 2)
        assert result.reversed_pairs == ((1, 2),)
        assert result.agreement == 0.0

    def test_single_treatment_trivially_agrees(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 1.0),),
            num_treatments=1,
            propensity=np.array([[0.4]]),
            effect=np.array([[1.0]]),
            baseline=np.zeros(1),
        )
        result = tr.rank_treatments(oracle_estimates(dgp))
        assert result.ordering_by_ate == (1,)
        assert result.ordering_by_wate == (1,)
        assert result.agreement == 1.0
        assert result.reversed_pairs == ()

    def test_equal_points_tie_break_by_index(self):
        ests = []
        for j in (1, 2):
            ests.append(
                tr.EffectEstimate(treatment=j, method=tr.Method.PLM, point=1.0,
                                  std_error=0.0, n_used=0)
            )
            ests.append(
                tr.EffectEstimate(treatment=j, method=tr.Method.AIPW, point=1.0,
                                  std_error=0.0, n_used=0)
            )
        result = tr.rank_treatments(ests)
        assert result.ordering_by_ate == (1, 2)
        assert result.ordering_by_wate == (1, 2)
        assert result.reversed_pairs == ()

    def test_missing_treatment_rejected(self, reversal_dgp):
        ests = [e for e in oracle_estimates(reversal_dgp) if not (
            e.treatment == 2 and e.estimand is tr.Estimand.ATE
        )]
        with pytest.raises(ValueError, match="differ"):
            tr.rank_treatments(ests)

    def test_mixed_ate_methods_rejected(self, reversal_dgp):
        ests = oracle_estimates(reversal_dgp)
        ests.append(
            tr.EffectEstimate(treatment=1, method=tr.Method.IPW, point=0.1,
                              std_error=0.0, n_used=0)
        )
        with pytest.raises(ValueError):
            tr.rank_treatments(ests)

    def test_reversed_pairs_agree_with_check_reversal(self):
        # one reversal rule: on the same numbers, a pair is reversed in the ranking
        # iff check_reversal flags it; the draws come from a few values, so ties occur
        gen = rng.substream(209)
        for _ in range(300):
            K = int(gen.integers(2, 6))
            ate, wate = gen.choice([-1.0, 0.0, 0.5, 2.0], size=(2, K))
            ests = [tr.EffectEstimate(treatment=j, method=method, point=float(points[j - 1]),
                                      std_error=0.0, n_used=0)
                    for j in range(1, K + 1)
                    for method, points in ((tr.Method.AIPW, ate), (tr.Method.PLM, wate))]
            reports = {j: tr.DecompositionReport(treatment=j, ate=float(ate[j - 1]),
                                                 cov_tau_gamma=float(wate[j - 1] - ate[j - 1]),
                                                 wate=float(wate[j - 1]), per_stratum=(),
                                                 source=tr.Source.ESTIMATED)
                       for j in range(1, K + 1)}
            flagged = tuple((i, j) for i in range(1, K + 1) for j in range(i + 1, K + 1)
                            if tr.check_reversal(reports[i], reports[j]).reversed)
            assert tr.rank_treatments(ests).reversed_pairs == flagged

    def test_agreement_one_when_weights_flat(self):
        gen = rng.substream(208)
        for _ in range(50):
            S = int(gen.integers(2, 6))
            probs = gen.dirichlet(np.ones(S))
            # constant propensity per treatment: weights are exactly flat
            p = np.repeat(gen.uniform(0.1, 0.9, size=(2, 1)), S, axis=1)
            dgp = tr.StratifiedDGP(
                strata=tuple((i, float(q)) for i, q in enumerate(probs / probs.sum())),
                num_treatments=2,
                propensity=p,
                effect=gen.uniform(-3, 3, size=(2, S)),
                baseline=np.zeros(S),
            )
            result = tr.rank_treatments(oracle_estimates(dgp))
            assert result.reversed_pairs == ()
            assert result.agreement == 1.0

    def test_same_sign_covariances_never_flip_large_gaps(self):
        gen = rng.substream(209)
        for _ in range(100):
            S = int(gen.integers(2, 7))
            probs = gen.dirichlet(np.ones(S))
            probs = probs / probs.sum()
            p = gen.uniform(0.05, 0.95, size=(2, S))
            # effects proportional to the conditional variance force same-sign
            # covariances; a constant shift then sets the ATE gap
            scale = gen.uniform(0.5, 2.0, size=2)
            effect = scale[:, None] * (p * (1 - p))
            dgp = tr.StratifiedDGP(
                strata=tuple((i, float(q)) for i, q in enumerate(probs)),
                num_treatments=2,
                propensity=p,
                effect=effect,
                baseline=np.zeros(S),
            )
            d1, d2 = tr.oracle_report(dgp, 1), tr.oracle_report(dgp, 2)
            assert np.sign(d1.cov_tau_gamma) == np.sign(d2.cov_tau_gamma) != 0
            gap_needed = abs(d1.cov_tau_gamma - d2.cov_tau_gamma) + 0.05
            shifted = tr.StratifiedDGP(
                strata=dgp.strata,
                num_treatments=2,
                propensity=p,
                effect=np.vstack([effect[0] + (d2.ate - d1.ate) + gap_needed, effect[1]]),
                baseline=dgp.baseline,
            )
            s1, s2 = tr.oracle_report(shifted, 1), tr.oracle_report(shifted, 2)
            assert s1.ate - s2.ate == pytest.approx(gap_needed, abs=1e-9)
            assert not tr.check_reversal(s1, s2).reversed
