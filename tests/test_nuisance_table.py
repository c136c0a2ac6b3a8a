"""The stratum-table nuisance engine against a unit-level reference.

The reference below fits each target the direct way: gather the target's
training units, then ``bincount`` them (stratum mean), solve least squares
on the dense design, or run Newton on the dense design. Stratum means must
match it bit for bit; the ridge learners solve the same equations in a
different summation order and must match to rounding. A fit holds
prediction tables; ``unit_arrays`` gathers them to the units
for the comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import treatrank as tr
from treatrank.nuisance import DEFAULT_CLIP, NEWTON_GRAD_TOL, NEWTON_MAX_ITER

from unit_reference import FIELDS, indicators, unit_arrays

RIDGE_SPECS = [
    tr.LearnerSpec(kind=kind, ridge_penalty=penalty, basis=basis)
    for kind in (tr.LearnerKind.LINEAR_RIDGE, tr.LearnerKind.LOGISTIC_RIDGE)
    for basis in tr.Basis
    for penalty in (0.0, 0.5)
]


# ---------------------------------------------------------------------------
# unit-level reference


def _design(codes, levels, basis):
    if basis is tr.Basis.STRATUM_DUMMIES:
        X = np.zeros((codes.shape[0], levels.shape[0]))
        X[np.arange(codes.shape[0]), np.searchsorted(levels, codes)] = 1.0
        return X
    return np.column_stack([np.ones(codes.shape[0]), codes.astype(np.float64)])


def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -30.0, 30.0)))


def _newton(X, t, penalty):
    if penalty == 0.0 and t.min() == t.max():
        raise tr.SingularFitError("single class")
    beta = np.zeros(X.shape[1])
    for _ in range(NEWTON_MAX_ITER):
        mu = _sigmoid(X @ beta)
        grad = X.T @ (t - mu) - penalty * beta
        if np.max(np.abs(grad)) <= NEWTON_GRAD_TOL:
            break
        H = (X * (mu * (1.0 - mu))[:, None]).T @ X + penalty * np.eye(X.shape[1])
        try:
            beta = beta + np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise tr.SingularFitError("singular Hessian") from exc
    return beta


def _reference_target(spec, levels, binary, codes_tr, t_tr, codes_pred, empty_value):
    """(predictions for codes_pred, fallback count) from the target's own units."""
    kind = spec.kind
    if kind is tr.LearnerKind.LOGISTIC_RIDGE and not binary:
        kind = tr.LearnerKind.LINEAR_RIDGE
    if t_tr.shape[0] == 0:
        return np.full(codes_pred.shape[0], empty_value), codes_pred.shape[0]
    t = t_tr.astype(np.float64)
    if kind is tr.LearnerKind.STRATUM_MEAN:
        pos = np.searchsorted(levels, codes_tr)
        counts = np.bincount(pos, minlength=levels.shape[0])
        sums = np.bincount(pos, weights=t, minlength=levels.shape[0])
        has_cell = counts > 0
        means = np.where(has_cell, sums / np.maximum(counts, 1), float(t_tr.mean()))
        pred_pos = np.searchsorted(levels, codes_pred)
        return means[pred_pos], int(np.sum(~has_cell[pred_pos]))
    X_tr = _design(codes_tr, levels, spec.basis)
    X_pred = _design(codes_pred, levels, spec.basis)
    if kind is tr.LearnerKind.LOGISTIC_RIDGE:
        return _sigmoid(X_pred @ _newton(X_tr, t, spec.ridge_penalty)), 0
    if spec.ridge_penalty == 0.0:
        beta = np.linalg.lstsq(X_tr, t, rcond=None)[0]
    else:
        d = X_tr.shape[1]
        beta = np.linalg.solve(X_tr.T @ X_tr + spec.ridge_penalty * np.eye(d), X_tr.T @ t)
    return X_pred @ beta, 0


def reference_fit(data, spec, folds=None):
    """Per-target fit over (train, predict) splits; ``folds=None`` fits in-sample.

    Clips as the engine does by default: at ``DEFAULT_CLIP`` when cross-fitting
    and not at all in-sample.
    """
    clip = 0.0 if folds is None else DEFAULT_CLIP
    n, K = data.n, data.num_treatments
    levels = np.unique(data.x)
    multinomial = data.assignment_mode is tr.AssignmentMode.MULTINOMIAL
    if folds is None:
        splits = [(np.ones(n, dtype=bool), np.ones(n, dtype=bool))]
    else:
        splits = [(folds.fold_of != k, folds.fold_of == k) for k in range(folds.num_folds)]
    out = {name: np.empty((n, K)) for name in FIELDS}
    out["y_hat"], out["control_p"] = np.empty(n), np.empty(n)
    fallbacks = 0

    def fit(binary, train, member, t, pred, empty_value):
        nonlocal fallbacks
        keep = train & member
        values, fb = _reference_target(
            spec, levels, binary, data.x[keep], t[keep], data.x[pred], empty_value
        )
        fallbacks += fb
        return values

    everyone = np.ones(n, dtype=bool)
    for train, pred in splits:
        pooled = float(data.y[train].mean())
        out["y_hat"][pred] = fit(False, train, everyone, data.y, pred, pooled)
        for j in range(1, K + 1):
            arm, control = indicators(data, j)
            arm_rate = float(arm[train].mean())
            out["p_hat"][pred, j - 1] = fit(True, train, everyone, arm, pred, arm_rate)
            out["mu_treated"][pred, j - 1] = fit(False, train, arm == 1, data.y, pred, pooled)
            out["mu_control"][pred, j - 1] = fit(False, train, control == 1, data.y, pred, pooled)
            if multinomial:
                restrict = (arm == 1) | (control == 1)
                out["restricted_y"][pred, j - 1] = fit(False, train, restrict, data.y, pred, pooled)
                out["restricted_p"][pred, j - 1] = fit(True, train, restrict, arm, pred, 0.5)
        if multinomial:
            control = (data.w.sum(axis=1) == 0).astype(np.int8)
            control_rate = float(control[train].mean())
            out["control_p"][pred] = fit(True, train, everyone, control, pred, control_rate)
    if not multinomial:
        for name in ("restricted_y", "restricted_p", "control_p"):
            out[name] = None
    clipped = 0
    for name in ("p_hat", "restricted_p", "control_p"):
        if out[name] is not None:
            clipped += int(np.sum((out[name] < clip) | (out[name] > 1.0 - clip)))
            out[name] = np.clip(out[name], clip, 1.0 - clip)
    return out, clipped, fallbacks


# ---------------------------------------------------------------------------
# datasets


def make_dataset(x, arm_or_w, y, mode):
    """Dataset from arm labels (multinomial) or an indicator matrix (parallel)."""
    if mode is tr.AssignmentMode.MULTINOMIAL:
        arm, K = np.asarray(arm_or_w), int(np.max(arm_or_w))
        w = (arm[:, None] == np.arange(1, max(K, 1) + 1)).astype(np.int8)
    else:
        w = np.asarray(arm_or_w, dtype=np.int8).reshape(len(x), -1)
    return tr.Dataset(y=np.asarray(y, dtype=float), w=w, x=np.asarray(x), assignment_mode=mode)


def random_case(seed, mode):
    """A small dataset with skewed strata and arms, so empty cells occur."""
    gen = np.random.default_rng(seed)
    K = int(gen.integers(1, 4))
    n = int(gen.integers(10, 150))
    S = int(gen.integers(1, 7))
    codes = np.sort(gen.choice(np.arange(-3, 20), size=S, replace=False))
    x = gen.choice(codes, size=n, p=gen.dirichlet(np.ones(S)))
    if mode is tr.AssignmentMode.MULTINOMIAL:
        arm = gen.choice(K + 1, size=n, p=gen.dirichlet(np.full(K + 1, 0.7)))
        arm[0] = K  # K arms, even if the last one is nearly empty
        treatment = arm
    else:
        treatment = (gen.random((n, K)) < gen.uniform(0.02, 0.98, K)).astype(np.int8)
    y = gen.normal(size=n) * gen.uniform(0.1, 50.0) + x
    data = make_dataset(x, treatment, y, mode)
    return data, tr.assign_folds(n, int(gen.integers(2, 6)), seed=seed)


def engine_fit(data, spec, folds=None):
    if folds is None:
        return tr.fit_insample(data, spec)
    return tr.fit_crossfit(data, spec, folds)


def assert_matches(data, spec, folds=None, exact=True, check_clipped=True):
    """The engine's fit equals the reference's (to rounding unless ``exact``)."""
    fit = engine_fit(data, spec, folds)
    arrays, clipped, fallbacks = reference_fit(data, spec, folds)
    units = unit_arrays(data, fit, folds)
    for name in FIELDS:
        got, want = units[name], arrays[name]
        if want is None:
            assert got is None, name
        elif exact:
            assert np.array_equal(got, want), name
        else:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, err_msg=name)
    assert fit.fallback_count == fallbacks
    if check_clipped:
        assert fit.clipped_count == clipped


MODES = list(tr.AssignmentMode)


# ---------------------------------------------------------------------------
# stratum mean: bit for bit


class TestStratumMeanBitwise:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(15))
    def test_random_cases(self, mode, seed):
        data, folds = random_case(seed, mode)
        assert_matches(data, tr.LearnerSpec(), folds)
        assert_matches(data, tr.LearnerSpec())

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_cell(self, mode):
        # stratum 7 has a single unit, so its fold's training split lacks it
        x = np.array([0, 1] * 12 + [7])
        treatment = np.array([0, 1, 1, 0, 2, 1] * 4 + [1])
        if mode is tr.AssignmentMode.PARALLEL_BINARY:
            treatment = treatment[:, None] > 0
        data = make_dataset(x, treatment, np.linspace(-2.0, 3.0, x.size) ** 3, mode)
        folds = tr.assign_folds(data.n, 3, seed=4)
        assert tr.fit_crossfit(data, tr.LearnerSpec(), folds).fallback_count > 0
        assert_matches(data, tr.LearnerSpec(), folds)

    @pytest.mark.parametrize("mode", MODES)
    def test_arm_absent_from_training_split(self, mode):
        # arm 1 has a single treated unit: one training split has none
        n = 30
        x = np.arange(n) % 3
        treatment = np.zeros((n, 2), dtype=np.int8)
        treatment[5, 0] = 1
        treatment[::2, 1] = 1
        treatment[5, 1] = 0
        if mode is tr.AssignmentMode.MULTINOMIAL:
            treatment = treatment[:, 0] + 2 * treatment[:, 1]
        data = make_dataset(x, treatment, np.sin(np.arange(n)) * 10, mode)
        folds = tr.assign_folds(n, 5, seed=2)
        assert tr.fit_crossfit(data, tr.LearnerSpec(), folds).fallback_count >= n // 5
        assert_matches(data, tr.LearnerSpec(), folds)
        assert_matches(data, tr.LearnerSpec())

    def test_empty_restricted_set(self):
        # no control units and one unit on arm 2: that unit's fold trains the
        # {0, 2} models on nobody
        n = 20
        arm = np.ones(n, dtype=np.int64)
        arm[7] = 2
        data = make_dataset(
            np.arange(n) % 2, arm, np.cos(np.arange(n)), tr.AssignmentMode.MULTINOMIAL
        )
        folds = tr.assign_folds(n, 4, seed=1)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        held = folds.fold_of == folds.fold_of[7]
        assert np.all(unit_arrays(data, fit, folds)["restricted_p"][held, 1] == 0.5)
        assert_matches(data, tr.LearnerSpec(), folds)
        assert_matches(data, tr.LearnerSpec())


# ---------------------------------------------------------------------------
# ridge learners: to rounding


class TestRidgeToRounding:
    @pytest.mark.parametrize(
        "spec", RIDGE_SPECS, ids=lambda s: f"{s.kind.value}-{s.basis.value}-{s.ridge_penalty}"
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_random_cases(self, spec, mode):
        for seed in range(6):
            data, folds = random_case(100 + seed, mode)
            for split in (folds, None):
                try:
                    reference_fit(data, spec, split)
                except tr.SingularFitError:
                    with pytest.raises(tr.SingularFitError):
                        engine_fit(data, spec, split)
                    continue
                # a fitted rate of exactly 0 or 1 can land either side of an
                # in-sample clip bound of 0, so clip counts may differ
                assert_matches(data, spec, split, exact=False, check_clipped=False)

    def test_logistic_on_strata_matches_dense_newton(self):
        dgp = tr.random_dgp(
            3, num_treatments=3, min_strata=8, max_strata=8, propensity_range=(0.1, 0.4),
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        data = tr.sample(dgp, 4_000, seed=5)
        folds = tr.assign_folds(data.n, 5, seed=6)
        assert_matches(data, tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE), folds, exact=False)


class TestSingularFits:
    LOGISTIC = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=0.0)

    def test_single_class_split(self):
        data = make_dataset(np.arange(20) % 2, np.zeros(20), np.arange(20.0),
                            tr.AssignmentMode.PARALLEL_BINARY)
        for split in (None, tr.assign_folds(20, 4, seed=0)):
            for fit in (engine_fit, reference_fit):
                with pytest.raises(tr.SingularFitError, match="single class"):
                    fit(data, self.LOGISTIC, split)

    def test_absent_stratum_without_penalty(self):
        # stratum 5 has one unit; the split that holds it out has a zero
        # Hessian row for it
        x = np.array([0, 1] * 10 + [5])
        data = make_dataset(x, (np.arange(21) % 3 == 0)[:, None], np.arange(21.0),
                            tr.AssignmentMode.PARALLEL_BINARY)
        folds = tr.assign_folds(21, 3, seed=0)
        for fit in (engine_fit, reference_fit):
            with pytest.raises(tr.SingularFitError, match="singular Hessian"):
                fit(data, self.LOGISTIC, folds)
        penalized = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=0.5)
        assert_matches(data, penalized, folds, exact=False)


# ---------------------------------------------------------------------------
# pinned studies

PINNED = {
    "extreme_heterogeneity": "67e7e5aa580d98048ab905d00340b560aedcf6288061ea97174dcb55e8121a4f",
    "constant_effects": "ec3f455475dd8d900a33d45a86d3c073b5bbf8f75292a91ef2b631d867d8bcd6",
    "uncorrelated": "e5d6dbe96420bce6e5cf784f469b1cf17ac48799be8b71f3961babf0b24f7d2a",
    "selection_on_gains": "c5f8b2ebd4c627ec9ce989dd4e38f5dcff3843fada1e2f6c419e7691d290176f",
    "balanced": "2e8c8404f4ca9257d26c8b917d0c07ff3660ba863bc52ba3952f141db590c9a3",
    "multinomial_random": "ce1483fd6057e670555424f52c046af257e12352beac8c94ef8d9f2b0bbb6943",
}


def pinned_config(name):
    if name != "multinomial_random":
        return tr.scaled(tr.preset(name), num_reps=20, n_per_rep=500)
    dgp = tr.random_dgp(7, num_treatments=3, min_strata=6, max_strata=6,
                        propensity_range=(0.05, 0.3), assignment_mode=tr.AssignmentMode.MULTINOMIAL)
    return tr.ScenarioConfig(name=name, dgp=dgp, n_per_rep=500, num_reps=20, seed=3)


@pytest.mark.parametrize("name", list(PINNED))
def test_canonical_bytes_pinned(name):
    result = tr.run_scenario(pinned_config(name))
    assert hashlib.sha256(result.canonical_bytes()).hexdigest() == PINNED[name]


# ---------------------------------------------------------------------------
# extreme stratum codes, many strata and clip bounds: bit for bit


def coded_case(seed, mode, codes):
    """``random_case`` on the given stratum codes, each of which occurs."""
    gen = np.random.default_rng(seed)
    K, S = 2, codes.shape[0]
    n = int(gen.integers(3 * S, 6 * S))
    x = gen.permutation(np.append(codes, gen.choice(codes, size=n - S, p=gen.dirichlet(np.ones(S)))))
    if mode is tr.AssignmentMode.MULTINOMIAL:
        treatment = gen.choice(K + 1, size=n, p=[0.5, 0.3, 0.2])
        treatment[0] = K
    else:
        treatment = (gen.random((n, K)) < [0.3, 0.05]).astype(np.int8)
    y = gen.normal(size=n) * 40.0 + (x % 7)
    return make_dataset(x, treatment, y, mode), tr.assign_folds(n, 5, seed=seed)


class TestKeysBitwise:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_codes_near_two_to_the_forty(self, mode, sign):
        codes = sign * 2**40 + np.array([-3, 0, 1, 5, 2**20])
        data, folds = coded_case(11, mode, codes)
        assert_matches(data, tr.LearnerSpec(), folds)
        assert_matches(data, tr.LearnerSpec())

    @pytest.mark.parametrize("mode", MODES)
    def test_two_hundred_strata(self, mode):
        # half indices times S overflow int8 once S >= 128
        codes = np.random.default_rng(3).permutation(np.arange(-50, 150)) * 3
        data, folds = coded_case(12, mode, codes)
        fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
        assert np.unique(data.x).shape[0] == 200 and fit.fallback_count > 0
        assert_matches(data, tr.LearnerSpec(), folds)
        assert_matches(data, tr.LearnerSpec())


def clipped_per_unit(units, clip):
    """Per-unit clip of an unclipped fit's per-unit propensities, and the units clipped."""
    count, arrays = 0, {}
    for name in ("p_hat", "restricted_p", "control_p"):
        raw = units[name]
        if raw is None:
            arrays[name] = None
            continue
        count += int(np.sum((raw < clip) | (raw > 1.0 - clip)))
        arrays[name] = np.clip(raw, clip, 1.0 - clip)
    return arrays, count


class TestClipOnTable:
    def test_predictions_exactly_on_the_bounds(self):
        # in-sample rates of 1/4 and 3/4 sit on the bounds of clip = 1/4 and
        # are not clipped; the rate of 1/8 is, for each of its eight units
        x = np.repeat([0, 1, 2], [4, 4, 8])
        treated = np.array([1, 0, 0, 0] + [1, 1, 1, 0] + [1] + [0] * 7)
        data = make_dataset(x, treated[:, None], np.arange(16.0), tr.AssignmentMode.PARALLEL_BINARY)
        fit = tr.fit_insample(data, tr.LearnerSpec(), clip=0.25)
        assert fit.clipped_count == 8
        assert np.array_equal(unit_arrays(data, fit)["p_hat"][:, 0],
                              np.repeat([0.25, 0.75, 0.25], [4, 4, 8]))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_clip_on_table_equals_clip_per_unit(self, mode, seed):
        # clip at a fitted value, so some predictions land exactly on a bound
        data, folds = random_case(seed, mode)
        for split in (folds, None):
            def fit_at(clip):
                if split is None:
                    return tr.fit_insample(data, tr.LearnerSpec(), clip)
                return tr.fit_crossfit(data, tr.LearnerSpec(), split, clip)

            raw = unit_arrays(data, fit_at(0.0), split)
            values = raw["p_hat"][(raw["p_hat"] > 0.0) & (raw["p_hat"] < 0.5)]
            for clip in np.unique(np.append(values, [0.0, 0.01, 0.3]))[:4]:
                fit = fit_at(clip)
                arrays, count = clipped_per_unit(raw, clip)
                assert fit.clipped_count == count
                units = unit_arrays(data, fit, split)
                for name, want in arrays.items():
                    got = units[name]
                    assert (got is None) if want is None else np.array_equal(got, want), name
