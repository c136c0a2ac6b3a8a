from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import treatrank as tr
from treatrank import cli, rng

from conftest import dgp_sweep, dgp_tables, exact_cell_dataset


def numpy_stream(*path: int) -> np.random.Generator:
    """The Philox generator of ``path``, derived by numpy itself, not by ``rng``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(path))))


def reference_sample(dgp: tr.StratifiedDGP, n: int, seed: int):
    """(x, w, y) of ``sample(dgp, n, seed)``, by its formula and numpy's streams."""
    K = dgp.num_treatments
    cum = np.cumsum(dgp.stratum_probs)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, numpy_stream(seed, rng.STRATUM).random(n), side="right")
    p = dgp.propensity[:, idx]
    treatment_rng = numpy_stream(seed, rng.TREATMENT)
    if dgp.assignment_mode is tr.AssignmentMode.PARALLEL_BINARY:
        w = (treatment_rng.random((K, n)) < p).T.astype(np.int8)
    else:
        below = np.sum(treatment_rng.random(n)[None, :] >= np.cumsum(p, axis=0), axis=0)
        arm = np.where(below < K, below + 1, 0)
        w = np.zeros((n, K), dtype=np.int8)
        w[np.nonzero(arm > 0)[0], arm[arm > 0] - 1] = 1
    y = dgp.baseline[idx] + (dgp.effect[:, idx] * w.T).sum(axis=0)
    if dgp.noise_sd > 0:
        y = y + numpy_stream(seed, rng.NOISE).normal(0.0, dgp.noise_sd, size=n)
    return dgp.stratum_codes[idx], w, y


class TestOracleWeights:
    def test_reversal_example_treatment_1(self, reversal_dgp):
        # hand computation: p(1-p) = (0.0099, 0.25), mean 0.12995
        expected = np.array([0.0099, 0.25]) / 0.12995
        gamma = tr.oracle_weights(reversal_dgp, 1)
        assert gamma == pytest.approx(expected, abs=1e-12)
        assert gamma == pytest.approx([0.0762, 1.9238], abs=1e-3)

    def test_constant_half_propensity_gives_unit_weights(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.3), (1, 0.7)),
            num_treatments=1,
            propensity=np.array([[0.5, 0.5]]),
            effect=np.array([[1.0, 2.0]]),
            baseline=np.zeros(2),
        )
        assert tr.oracle_weights(dgp, 1) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_single_stratum_normalizes_to_one(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 1.0),),
            num_treatments=1,
            propensity=np.array([[0.123]]),
            effect=np.array([[2.0]]),
            baseline=np.zeros(1),
        )
        assert tr.oracle_weights(dgp, 1) == pytest.approx([1.0], abs=1e-15)

    def test_bad_treatment_index(self, reversal_dgp):
        with pytest.raises(ValueError):
            tr.oracle_weights(reversal_dgp, 0)
        with pytest.raises(ValueError):
            tr.oracle_weights(reversal_dgp, 3)


class TestOracleEstimands:
    def test_ate_values(self, reversal_dgp):
        assert tr.oracle_ate(reversal_dgp, 1) == 0.0
        assert tr.oracle_ate(reversal_dgp, 2) == 0.5

    def test_wate_values(self, reversal_dgp):
        assert tr.oracle_wate(reversal_dgp, 1) == pytest.approx(2.7714, abs=1e-4)
        assert tr.oracle_wate(reversal_dgp, 2) == pytest.approx(-1.8095, abs=1e-4)

    def test_constant_effect_collapses_to_ate(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.25), (1, 0.75)),
            num_treatments=1,
            propensity=np.array([[0.9, 0.2]]),
            effect=np.array([[1.7, 1.7]]),
            baseline=np.zeros(2),
        )
        assert tr.oracle_ate(dgp, 1) == pytest.approx(1.7, abs=1e-12)
        assert tr.oracle_wate(dgp, 1) == pytest.approx(1.7, abs=1e-12)

    def test_decomposition_triples(self, reversal_dgp):
        q1 = tr.oracle_report(reversal_dgp, 1)
        q2 = tr.oracle_report(reversal_dgp, 2)
        assert (q1.ate, q1.wate) == (0.0, pytest.approx(2.7714, abs=1e-4))
        assert q1.cov_tau_gamma == pytest.approx(2.7714, abs=1e-4)
        assert q2.cov_tau_gamma == pytest.approx(-1.8095 - 0.5, abs=1e-4)

    def test_multinomial_wate_weights_the_control_and_j_units(self):
        # heterogeneous effects and asymmetric arms: PLM regresses on the
        # {0, j} units, so a stratum weighs p_j p_0 / (p_j + p_0), not p_j (1 - p_j)
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=2,
            propensity=np.array([[0.05, 0.6], [0.45, 0.1]]),
            effect=np.array([[-3.0, -1.0], [3.0, 2.0]]),
            baseline=np.zeros(2),
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        assert tr.oracle_wate(dgp, 1) == pytest.approx(-1.3703703703703702, abs=1e-12)
        assert tr.oracle_wate(dgp, 2) == pytest.approx(2.7594936708860756, abs=1e-12)
        # the residual regression on the population's exact noiseless cells
        data = exact_cell_dataset(dgp, 100)
        fit = tr.oracle_nuisance(data, dgp)
        for j in (1, 2):
            assert tr.oracle_report(dgp, j).wate == tr.oracle_wate(dgp, j)
            assert tr.plm_estimate(data, fit, j).point == pytest.approx(
                tr.oracle_wate(dgp, j), abs=1e-12)

    def test_balanced_propensity_zero_covariance(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=1,
            propensity=np.array([[0.5, 0.5]]),
            effect=np.array([[-1.0, 5.0]]),
            baseline=np.zeros(2),
        )
        q = tr.oracle_report(dgp, 1)
        assert q.cov_tau_gamma == pytest.approx(0.0, abs=1e-15)
        assert q.wate == pytest.approx(q.ate, abs=1e-15)


class TestOracleProperties:
    @settings(max_examples=100, deadline=None)
    @given(dgp_tables())
    def test_decomposition_identity(self, dgp):
        for j in (1, 2):
            q = tr.oracle_report(dgp, j)
            assert abs(q.wate - q.ate - q.cov_tau_gamma) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(dgp_tables())
    def test_weight_normalization(self, dgp):
        for j in (1, 2):
            gamma = tr.oracle_weights(dgp, j)
            assert abs(float(dgp.stratum_probs @ gamma) - 1.0) < 1e-12

    def test_constant_effect_collapse_sweep(self):
        for dgp in dgp_sweep(seed=42, count=50):
            flat = tr.StratifiedDGP(
                strata=dgp.strata,
                num_treatments=dgp.num_treatments,
                propensity=dgp.propensity,
                effect=np.full_like(dgp.effect, 0.8),
                baseline=dgp.baseline,
                noise_sd=dgp.noise_sd,
            )
            for j in (1, 2):
                assert abs(tr.oracle_wate(flat, j) - tr.oracle_ate(flat, j)) < 1e-12


class TestValidation:
    def test_degenerate_propensity_rejected(self):
        with pytest.raises(tr.OverlapError):
            tr.StratifiedDGP(
                strata=((0, 0.5), (1, 0.5)),
                num_treatments=1,
                propensity=np.array([[0.0, 0.5]]),
                effect=np.zeros((1, 2)),
                baseline=np.zeros(2),
            )

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            tr.StratifiedDGP(
                strata=((0, 0.5), (1, 0.4)),
                num_treatments=1,
                propensity=np.array([[0.5, 0.5]]),
                effect=np.zeros((1, 2)),
                baseline=np.zeros(2),
            )

    def test_multinomial_needs_control_mass(self):
        with pytest.raises(tr.OverlapError, match="control mass"):
            tr.StratifiedDGP(
                strata=((0, 1.0),),
                num_treatments=2,
                propensity=np.array([[0.6], [0.5]]),
                effect=np.zeros((2, 1)),
                baseline=np.zeros(1),
                assignment_mode=tr.AssignmentMode.MULTINOMIAL,
            )

    GOOD = dict(strata=((0, 0.5), (1, 0.5)), num_treatments=1, propensity=[[0.3, 0.6]],
                effect=[[1.0, 2.0]], baseline=[0.0, 1.0], noise_sd=1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("strata", ((0, np.nan), (1, 0.5)), "stratum probabilities must be finite"),
        ("strata", ((0, np.inf), (1, 0.5)), "stratum probabilities must be finite"),
        ("propensity", [[np.nan, 0.6]], r"strictly in \(0, 1\)"),
        ("noise_sd", np.nan, "noise_sd must be finite"),
        ("noise_sd", np.inf, "noise_sd must be finite"),
        ("effect", [[np.nan, 2.0]], "effect table must be finite"),
        ("effect", [[1.0, -np.inf]], "effect table must be finite"),
        ("baseline", [np.nan, 1.0], "baseline table must be finite"),
        ("baseline", [0.0, np.inf], "baseline table must be finite"),
    ])
    def test_non_finite_tables_rejected(self, field, value, message):
        # NaN passes every comparison-based check, so each field is checked for finiteness
        tr.StratifiedDGP(**self.GOOD)
        with pytest.raises(ValueError, match=message):
            tr.StratifiedDGP(**{**self.GOOD, field: value})

    def test_nan_propensity_rejected_under_multinomial(self):
        with pytest.raises(tr.OverlapError):
            tr.StratifiedDGP(**{**self.GOOD, "propensity": [[np.nan, 0.6]],
                                "assignment_mode": tr.AssignmentMode.MULTINOMIAL})

    def test_random_dgps_are_valid(self):
        for dgp in dgp_sweep(seed=7, count=30):
            assert 2 <= dgp.num_strata <= 10
            assert np.all((dgp.propensity > 0) & (dgp.propensity < 1))
        for dgp in dgp_sweep(seed=8, count=10, assignment_mode=tr.AssignmentMode.MULTINOMIAL):
            assert np.all(dgp.propensity.sum(axis=0) < 1)


class TestSampling:
    def test_stratum_share_three_sigma(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=123)
        share = float(np.mean(data.x == 1))
        sigma = np.sqrt(0.25 / 10_000)
        assert abs(share - 0.5) < 3 * sigma

    def test_rare_propensity_three_sigma(self, reversal_dgp):
        data = tr.sample(reversal_dgp, 10_000, seed=123)
        cell = data.x == 0
        rate = float(data.w[cell, 0].mean())
        sigma = np.sqrt(0.01 * 0.99 / cell.sum())
        assert abs(rate - 0.01) < 3 * sigma

    def test_same_seed_bit_identical(self, reversal_dgp):
        a = tr.sample(reversal_dgp, 500, seed=9)
        b = tr.sample(reversal_dgp, 500, seed=9)
        assert a == b
        c = tr.sample(reversal_dgp, 500, seed=10)
        assert a != c

    @pytest.mark.parametrize("mode, design", [
        pytest.param(mode, design, id=mode.value if design == "200_unsorted"
                     else f"{mode.value}-{design}")
        for mode in tr.AssignmentMode
        for design in ("200_unsorted", "24_unsorted", "zero_probability", "one_stratum",
                       "five_treatments")])
    def test_matches_fancy_index_formula(self, mode, design):
        # ``sample`` against the fancy-indexing formula its gathers replaced,
        # bit for bit, with K = 3 (three terms summed per unit), and with
        # streams that numpy derives itself, at one-, two- and three-word
        # seeds. The designs: unsorted codes (200 and 24 strata), a stratum of
        # probability zero (a repeated cumulative entry), one stratum, and
        # K = 5 (two pattern chunks under parallel assignment)
        S = {"200_unsorted": 200, "24_unsorted": 24, "zero_probability": 6, "one_stratum": 1,
             "five_treatments": 8}[design]
        K = 5 if design == "five_treatments" else 3
        base = tr.random_dgp(5, num_treatments=K, min_strata=S, max_strata=S,
                             propensity_range=(0.02, 0.6 if K == 3 else 0.19),
                             assignment_mode=mode)
        codes = np.random.default_rng(1).permutation(S) * 1_000 - 2**40
        probs = base.stratum_probs
        if design == "zero_probability":
            codes = np.arange(S)
            probs = np.array([0.3, 0.0, 0.2, 0.0, 0.5, 0.0])
        dgp = tr.StratifiedDGP(
            strata=tuple((int(c), float(p)) for c, p in zip(codes, probs)),
            num_treatments=K, propensity=base.propensity, effect=base.effect,
            baseline=base.baseline, noise_sd=0.7, assignment_mode=mode,
        )
        for seed in (21, 2**32, 2**70):
            x, w, y = reference_sample(dgp, 5_000, seed)
            data = tr.sample(dgp, 5_000, seed)
            assert np.array_equal(data.x, x)
            assert np.array_equal(data.w, w) and data.w.dtype == np.int8
            assert data.y.tobytes() == y.tobytes()
            if design == "zero_probability":
                assert not np.isin(data.x, [1, 3, 5]).any()

    @pytest.mark.parametrize("S", [1, 2, 5, 64, 256, 257])
    def test_stratum_index_is_searchsorted(self, S):
        # draws on and next to every edge, with repeated (zero-probability) edges
        probs = np.random.default_rng(S).dirichlet(np.ones(S))
        probs[1::3] = 0.0
        cum = np.cumsum(probs / probs.sum())
        cum[-1] = 1.0
        edges = cum[:-1]
        u = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1), [0.0],
                            np.random.default_rng(0).random(500)])
        u = u[u < 1.0]
        got = tr.dgp._stratum_index(cum, u.reshape(1, -1))
        assert got.dtype == np.min_scalar_type(S - 1)  # 257 strata need 16 bits
        assert np.array_equal(got[0], np.searchsorted(cum, u, side="right"))

    @pytest.mark.parametrize("mode, K, S, dtype", [
        (tr.AssignmentMode.PARALLEL_BINARY, 2, 4, np.int8),
        (tr.AssignmentMode.PARALLEL_BINARY, 5, 24, np.int16),  # 32 cells
        (tr.AssignmentMode.MULTINOMIAL, 3, 40, np.int16),  # 4 cells, 160 keys
        (tr.AssignmentMode.MULTINOMIAL, 2, 1, np.int8)])
    def test_sampled_cell_keys_are_derived_ones(self, mode, K, S, dtype):
        # the keys ``sample`` passes are those a dataset of the same units
        # derives, in the smallest signed type that holds every key
        dgp = tr.random_dgp(9, num_treatments=K, min_strata=S, max_strata=S,
                            propensity_range=(0.05, 0.3), assignment_mode=mode)
        block = tr.sample(dgp, 300, [4, 5, 6])
        for b in range(3):
            keys = block.replicate(b).cell_keys
            derived = tr.Dataset(block.y[b], block.w[b], block.x[b], mode).cell_keys
            assert keys.dtype == derived.dtype == dtype
            if np.unique(block.x[b]).size == S:  # the same stratum list
                assert np.array_equal(keys, derived)
            assert np.array_equal(keys, tr.sample(dgp, 300, 4 + b).cell_keys)

    def test_cli_sample_at_a_seed_past_64_bits(self, tmp_path, reversal_dgp):
        config = tmp_path / "dgp.yaml"
        tr.write_dgp_config(reversal_dgp, config)
        out = tmp_path / "out"
        assert cli.main(["sample", "--config", str(config), "--n", "300",
                         "--seed", "1180591620717411303424", "--out", str(out)]) == 0
        data = tr.load_dataset_csv(out / "dataset.csv")
        x, w, y = reference_sample(reversal_dgp, 300, 2**70)
        assert np.array_equal(data.x, x) and np.array_equal(data.w, w)
        assert data.y.tobytes() == y.tobytes()

    def test_outcome_assembly_noiseless(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=2,
            propensity=np.array([[0.4, 0.6], [0.3, 0.2]]),
            effect=np.array([[1.0, -1.0], [2.0, 0.5]]),
            baseline=np.array([10.0, 20.0]),
            noise_sd=0.0,
        )
        data = tr.sample(dgp, 2_000, seed=4)
        idx = dgp.stratum_index(data.x)
        expected = (
            dgp.baseline[idx]
            + data.w[:, 0] * dgp.effect[0, idx]
            + data.w[:, 1] * dgp.effect[1, idx]
        )
        assert np.allclose(data.y, expected, atol=0)

    def test_stratum_index_matches_lookup_and_rejects_unknown_codes(self):
        dgp = tr.StratifiedDGP(
            strata=((7, 0.25), (-3, 0.25), (40, 0.5)),
            num_treatments=1,
            propensity=np.array([[0.4, 0.6, 0.5]]),
            effect=np.zeros((1, 3)),
            baseline=np.zeros(3),
        )
        codes = np.array([40, 7, 7, -3, 40, -3])
        lookup = {7: 0, -3: 1, 40: 2}
        assert dgp.stratum_index(codes).tolist() == [lookup[c] for c in codes.tolist()]
        assert dgp.stratum_index(codes.reshape(2, 3)).tolist() == [2, 0, 0, 1, 2, 1]
        for bad, first_unknown in (([7, 8, 40, 41], 8), ([41], 41), ([-4, 7], -4)):
            with pytest.raises(ValueError, match=f"unknown stratum code {first_unknown}$"):
                dgp.stratum_index(np.array(bad))

    def test_multinomial_arms_exclusive_and_calibrated(self):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=2,
            propensity=np.array([[0.3, 0.1], [0.2, 0.4]]),
            effect=np.array([[1.0, 2.0], [0.5, -0.5]]),
            baseline=np.zeros(2),
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        data = tr.sample(dgp, 100_000, seed=21)
        assert np.all(data.w.sum(axis=1) <= 1)
        arm = data.arm
        for s in (0, 1):
            cell = data.x == s
            n_cell = cell.sum()
            for j in (1, 2):
                p = dgp.propensity[j - 1, s]
                sigma = np.sqrt(p * (1 - p) / n_cell)
                assert abs(float(np.mean(arm[cell] == j)) - p) < 5 * sigma

    def test_consistency_at_scale(self, reversal_dgp):
        n = 100_000
        data = tr.sample(reversal_dgp, n, seed=77)
        # stratum frequencies
        share = float(np.mean(data.x == 0))
        assert abs(share - 0.5) < 5 * np.sqrt(0.25 / n)
        # treatment frequencies and within-cell outcome means
        for s in (0, 1):
            cell = data.x == s
            n_cell = int(cell.sum())
            for j in (1, 2):
                p = reversal_dgp.propensity[j - 1, s]
                rate = float(data.w[cell, j - 1].mean())
                assert abs(rate - p) < 5 * np.sqrt(p * (1 - p) / n_cell)
            y_cell = data.y[cell]
            expected = reversal_dgp.baseline[s] + sum(
                reversal_dgp.propensity[j - 1, s] * reversal_dgp.effect[j - 1, s]
                for j in (1, 2)
            )
            se = float(y_cell.std(ddof=1) / np.sqrt(n_cell))
            assert abs(float(y_cell.mean()) - expected) < 5 * se

    def test_n_must_be_positive(self, reversal_dgp):
        with pytest.raises(ValueError):
            tr.sample(reversal_dgp, 0, seed=1)


class TestDatasetGrouping:
    @pytest.mark.parametrize("num_codes", [1, 2, 300, 70_000])
    def test_strata_group_the_codes(self, num_codes):
        gen = np.random.default_rng(num_codes)
        codes = np.arange(num_codes) * 12_345_679 - 2**40
        x = gen.permutation(np.append(codes, gen.choice(codes, size=1_000)))
        data = tr.Dataset(y=np.zeros(x.size), w=np.zeros((x.size, 1)), x=x)
        groups = data.strata
        assert data.strata is groups
        assert np.array_equal(groups.codes, codes)
        assert np.array_equal(groups.codes[groups.position], x)
        assert np.bincount(groups.position).min() >= 1

    def test_arm_labels(self):
        w = np.array([[0, 0], [1, 0], [0, 1], [0, 0]])
        data = tr.Dataset(y=np.zeros(4), w=w, x=np.zeros(4),
                          assignment_mode=tr.AssignmentMode.MULTINOMIAL)
        assert data.arm.tolist() == [0, 1, 2, 0]

    def test_multinomial_rows_must_be_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            tr.Dataset(y=np.zeros(2), w=np.array([[1, 1], [0, 0]]), x=np.zeros(2),
                       assignment_mode=tr.AssignmentMode.MULTINOMIAL)

    @pytest.mark.parametrize("w, x, message", [
        # a 2 would key the unit into another fold's cell
        (np.array([[2, 0], [0, 1]], dtype=np.int8), np.zeros(2), "treatment indicators must be 0/1"),
        (np.array([[0.7], [1.0]]), np.zeros(2), "treatment indicators must be 0/1"),
        (np.array([[0], [1]]), np.array([0.5, 1.0]), "stratum codes must be integers"),
        (np.zeros((2, 0)), np.zeros(2), "w must have at least one treatment column"),
    ], ids=["indicator-2", "indicator-0.7", "code-0.5", "no-treatment-column"])
    def test_bad_indicators_and_codes_rejected(self, w, x, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tr.Dataset(y=np.zeros(2), w=w, x=x)


class TestRngDerivation:
    def test_substreams_differ(self):
        a = rng.substream(3, 0).random(4)
        b = rng.substream(3, 1).random(4)
        assert not np.allclose(a, b)

    def test_child_seed_stable(self):
        assert rng.child_seed(5, 2, 0) == rng.child_seed(5, 2, 0)
        assert rng.child_seed(5, 2, 0) != rng.child_seed(5, 2, 1)

    def test_negative_path_rejected(self):
        with pytest.raises(ValueError):
            rng.substream(-1)
