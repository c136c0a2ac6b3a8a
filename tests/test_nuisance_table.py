"""The stratum-table nuisance engine against a unit-level reference.

The reference below fits each target the direct way: gather the target's
training units, then ``bincount`` them (stratum mean), solve least squares
on the dense design, or run Newton on the dense design. Its stratum sums
add in the engine's stated order: the units of each (fold, base cell,
stratum) in unit order, then the target's base cells in ascending order,
then the training folds in ascending order. Stratum means must match it
bit for bit; the ridge learners solve the same equations in a different
summation order and must match to rounding. An empty cell falls back to
the target's training mean, which the reference takes as the engine does:
its stratum sums in that order, added over the strata in ascending order,
over the training count. A pairwise ``mean()`` of the training units
agrees with it to rounding. A fit holds prediction tables;
``unit_arrays`` gathers them to the units for the comparison.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

import treatrank as tr
from treatrank.dgp import PATTERN_TREATMENTS
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


def stratum_sums(pos, t, fold, cell, S, plain=False):
    """Per-stratum sums of ``t``: per (fold, base cell) in unit order, then cells, then folds.

    ``plain`` adds every unit in unit order instead.
    """
    if plain:
        return np.bincount(pos, weights=t, minlength=S)
    sums = np.zeros(S)
    for k in np.unique(fold):
        in_fold = np.zeros(S)
        for c in np.unique(cell):
            unit = (fold == k) & (cell == c)
            in_fold += np.bincount(pos[unit], weights=t[unit], minlength=S)
        sums += in_fold
    return sums


def training_mean(pos, t, fold, cell, S, plain=False, pairwise=False):
    """The fallback of an empty cell: ``stratum_sums`` added over strata in order, over the units.

    ``pairwise`` takes numpy's pairwise ``mean()`` of the units instead.
    """
    if pairwise:
        return float(t.mean())
    return float(np.cumsum(stratum_sums(pos, t, fold, cell, S, plain))[-1] / t.shape[0])


def _reference_target(spec, levels, binary, codes_tr, t_tr, codes_pred, empty_value,
                      fold_tr, cell_tr, plain=False, pairwise=False):
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
        sums = stratum_sums(pos, t, fold_tr, cell_tr, levels.shape[0], plain)
        has_cell = counts > 0
        fallback = training_mean(pos, t, fold_tr, cell_tr, levels.shape[0], plain, pairwise)
        means = np.where(has_cell, sums / np.maximum(counts, 1), fallback)
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


def base_cells(data, j):
    """Each unit's base cell for treatment ``j``'s targets (``j = 1`` for the pooled one).

    Its arm under MULTINOMIAL; under PARALLEL_BINARY its pattern of the
    treatments keyed with ``j``: the ``PATTERN_TREATMENTS`` chunk holding it.
    """
    if data.assignment_mode is tr.AssignmentMode.MULTINOMIAL:
        return data.w.astype(np.int64) @ np.arange(1, data.num_treatments + 1)
    first = (j - 1) // PATTERN_TREATMENTS * PATTERN_TREATMENTS
    chunk = data.w[:, first : first + PATTERN_TREATMENTS].astype(np.int64)
    return chunk @ (1 << np.arange(chunk.shape[1]))


def reference_fit(data, spec, folds=None, plain=False, pairwise=False):
    """Per-target fit over (train, predict) splits; ``folds=None`` fits in-sample.

    Fits each target once and counts its fallbacks once. Clips as the engine
    does by default: at ``DEFAULT_CLIP`` when cross-fitting and not at all
    in-sample. ``plain`` sums each stratum's training units in unit order
    (see ``stratum_sums``); ``pairwise`` takes the fallback training means
    as pairwise means (see ``training_mean``). Returns the per-unit role
    arrays, the clipped count and the fallback count.
    """
    clip = 0.0 if folds is None else DEFAULT_CLIP
    n, K = data.n, data.num_treatments
    levels = np.unique(data.x)
    multinomial = data.assignment_mode is tr.AssignmentMode.MULTINOMIAL
    fold = np.zeros(n, dtype=np.int64) if folds is None else folds.fold_of
    if folds is None:
        splits = [(np.ones(n, dtype=bool), np.ones(n, dtype=bool))]
    else:
        splits = [(folds.fold_of != k, folds.fold_of == k) for k in range(folds.num_folds)]
    # the fitted models: per treatment (n, K), and the shared ones (n,)
    fitted = {name: np.empty((n, K)) for name in ("p", "mu_treated", "mu_control", "pair_y",
                                                   "pair_p")}
    fitted.update(pooled=np.empty(n), control_p=np.empty(n), mu0=np.empty(n))
    fallbacks = 0

    def fit(binary, train, member, t, pred, empty_value, cell):
        nonlocal fallbacks
        keep = train & member
        values, fb = _reference_target(
            spec, levels, binary, data.x[keep], t[keep], data.x[pred], empty_value,
            fold[keep], cell[keep], plain, pairwise,
        )
        fallbacks += fb
        return values

    everyone = np.ones(n, dtype=bool)
    arm0 = (data.w.sum(axis=1) == 0).astype(np.int8)
    for train, pred in splits:
        pooled = training_mean(np.searchsorted(levels, data.x[train]), data.y[train], fold[train],
                               base_cells(data, 1)[train], levels.shape[0], plain, pairwise)
        if multinomial:
            fitted["control_p"][pred] = fit(True, train, everyone, arm0, pred,
                                            float(arm0[train].mean()), base_cells(data, 1))
            fitted["mu0"][pred] = fit(False, train, arm0 == 1, data.y, pred, pooled,
                                      base_cells(data, 1))
        else:
            fitted["pooled"][pred] = fit(False, train, everyone, data.y, pred, pooled,
                                         base_cells(data, 1))
        for j in range(1, K + 1):
            arm, control = indicators(data, j)
            cell = base_cells(data, j)
            arm_rate = float(arm[train].mean())
            fitted["p"][pred, j - 1] = fit(True, train, everyone, arm, pred, arm_rate, cell)
            fitted["mu_treated"][pred, j - 1] = fit(False, train, arm == 1, data.y, pred, pooled,
                                                    cell)
            if multinomial:
                restrict = (arm == 1) | (control == 1)
                fitted["pair_y"][pred, j - 1] = fit(False, train, restrict, data.y, pred, pooled,
                                                    cell)
                fitted["pair_p"][pred, j - 1] = fit(True, train, restrict, arm, pred, 0.5, cell)
            else:
                fitted["mu_control"][pred, j - 1] = fit(False, train, control == 1, data.y, pred,
                                                        pooled, cell)
    arrays, clipped = roles(data, fitted, clip)
    return arrays, clipped, fallbacks


def roles(data, fitted, clip):
    """The per-unit role arrays of the fitted models, clipped at ``clip``, and the units clipped.

    ``fitted`` holds the per-unit predictions of each model the engine
    fits: under PARALLEL_BINARY ``p``, ``mu_treated``, ``mu_control`` and
    ``pooled``; under MULTINOMIAL ``p``, ``mu_treated``, ``pair_y`` and
    ``pair_p`` (on arms 0 and j), ``control_p`` and ``mu0``. Each fitted
    rate's clipped predictions count once.
    """
    K = data.num_treatments
    rates = ("p", "pair_p", "control_p") if data.assignment_mode is tr.AssignmentMode.MULTINOMIAL \
        else ("p",)
    clipped, fitted = 0, dict(fitted)
    for name in rates:
        clipped += int(np.sum((fitted[name] < clip) | (fitted[name] > 1.0 - clip)))
        fitted[name] = np.clip(fitted[name], clip, 1.0 - clip)
    p = fitted["p"]
    if data.assignment_mode is tr.AssignmentMode.MULTINOMIAL:
        arrays = dict(p_treated=p, p_control=across(fitted["control_p"], K),
                      mu_treated=fitted["mu_treated"], mu_control=across(fitted["mu0"], K),
                      plm_outcome=fitted["pair_y"], plm_rate=fitted["pair_p"])
    else:
        arrays = dict(p_treated=p, p_control=1.0 - p, mu_treated=fitted["mu_treated"],
                      mu_control=fitted["mu_control"],
                      plm_outcome=across(fitted["pooled"], K), plm_rate=p)
    return arrays, clipped


def across(column, K):
    """One model's ``(n,)`` predictions as every treatment's, ``(n, K)``."""
    return np.repeat(column[:, None], K, axis=1)


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
        if exact:
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
        assert np.all(unit_arrays(data, fit, folds)["plm_rate"][held, 1] == 0.5)
        assert_matches(data, tr.LearnerSpec(), folds)
        assert_matches(data, tr.LearnerSpec())


class TestFallbackMean:
    """An empty cell's training mean from the table is the pairwise mean to rounding."""

    CASES = ([("random", mode, seed) for mode in MODES for seed in range(15)]
             + [("many_treatments", tr.AssignmentMode.PARALLEL_BINARY, 9)]
             + [("two_hundred_strata", mode, 12) for mode in MODES])

    @staticmethod
    def case(kind, mode, seed):
        if kind == "random":
            return random_case(seed, mode)
        if kind == "many_treatments":
            data = many_treatments(seed, 300, seed=1)
            return data, tr.assign_folds(data.n, 5, seed=2)
        codes = np.random.default_rng(3).permutation(np.arange(-50, 150)) * 3
        return coded_case(seed, mode, codes)

    @pytest.mark.parametrize("kind, mode, seed", CASES)
    def test_within_rounding_of_pairwise_mean(self, kind, mode, seed):
        data, folds = self.case(kind, mode, seed)
        for split in (folds, None):
            fit = engine_fit(data, tr.LearnerSpec(), split)
            arrays, _, fallbacks = reference_fit(data, tr.LearnerSpec(), split, pairwise=True)
            assert fit.fallback_count == fallbacks
            units = unit_arrays(data, fit, split)
            for name in FIELDS:
                np.testing.assert_allclose(units[name], arrays[name], rtol=1e-12, atol=0,
                                           err_msg=name)

    def test_cases_have_fallbacks(self):
        total = sum(tr.fit_crossfit(data, tr.LearnerSpec(), folds).fallback_count
                    for data, folds in (self.case(*c) for c in self.CASES))
        assert total > 0


# ---------------------------------------------------------------------------
# the summation order against plain unit-order sums


def two_pass_moments(data, folds, num_cells):
    """Held-out (count, mean, M2) of every base cell, ``[cell, fold, stratum]``.

    Each (base cell, fold, stratum) gathers its units: the mean is their
    unit-order sum over their count, M2 the sum of squared deviations from
    that mean. The dataset has at most ``PATTERN_TREATMENTS`` treatments.
    """
    levels, cell = np.unique(data.x), base_cells(data, 1)
    fold = np.zeros(data.n, dtype=np.int64) if folds is None else folds.fold_of
    F = 1 if folds is None else folds.num_folds
    out = np.zeros((3, num_cells, F, levels.shape[0]))
    for c in range(num_cells):
        for k in range(F):
            for s, code in enumerate(levels):
                y = data.y[(cell == c) & (fold == k) & (data.x == code)]
                if y.size:
                    mean = np.bincount(np.zeros(y.size, dtype=np.int64), y)[0] / y.size
                    out[:, c, k, s] = y.size, mean, np.sum((y - mean) ** 2)
    return out


class TestSummationOrder:
    """Sums in the stated order move only in the last bits; base-cell M2 stays centred."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(15))
    def test_close_to_unit_order_sums(self, seed, mode, offset):
        data, folds = random_case(seed, mode)
        data = tr.Dataset(data.y + offset, data.w, data.x, data.assignment_mode)
        for split in (folds, None):
            fit = engine_fit(data, tr.LearnerSpec(), split)
            arrays, _, _ = reference_fit(data, tr.LearnerSpec(), split, plain=True)
            units = unit_arrays(data, fit, split)
            for name in FIELDS:
                np.testing.assert_allclose(units[name], arrays[name], rtol=1e-13, atol=0,
                                           err_msg=name)
            cells = np.arange(fit.table.count.shape[0])
            count, mean, m2 = (a[:, 0] for a in fit.moments(cells))
            want_count, want_mean, want_m2 = two_pass_moments(data, split, cells.size)
            assert np.array_equal(count, want_count)
            np.testing.assert_allclose(mean, want_mean, rtol=1e-13, atol=0)
            np.testing.assert_allclose(m2, want_m2, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# many treatments: keyed in chunks, bit for bit


def many_treatments(K, n, seed):
    """A PARALLEL_BINARY dataset with ``K`` treatments, more patterns than units.

    The last treatment is taken by three units, so its treated cells are
    mostly empty and fall back to a mean over the last chunk's units.
    """
    gen = np.random.default_rng(seed)
    x = gen.choice([-2, 0, 5, 9], size=n, p=[0.4, 0.3, 0.2, 0.1])
    w = (gen.random((n, K)) < gen.uniform(0.05, 0.6, K)).astype(np.int8)
    w[:, -1] = 0
    w[:3, -1] = 1
    y = gen.normal(size=n) * 5.0 + x + w @ gen.normal(size=K)
    return make_dataset(x, w, y, tr.AssignmentMode.PARALLEL_BINARY)


class TestManyTreatments:
    def test_nine_treatments_match_reference(self):
        data = many_treatments(9, 300, seed=1)
        assert 2**9 > data.n and 9 > PATTERN_TREATMENTS
        folds = tr.assign_folds(data.n, 5, seed=2)
        assert tr.fit_crossfit(data, tr.LearnerSpec(), folds).fallback_count > 0
        assert_matches(data, tr.LearnerSpec(), folds)
        assert_matches(data, tr.LearnerSpec())

    def test_nine_treatments_block_rows(self):
        self.assert_block_rows(9, 300)

    @pytest.mark.parametrize("K, n", [(5, 200), (20, 500)])
    def test_block_rows_at_five_and_twenty_treatments(self, K, n):
        fit = self.assert_block_rows(K, n)
        assert fit.fallback_count.sum() > 0

    @staticmethod
    def assert_block_rows(K, n):
        """Each row of a (3, n) block's fit is bit for bit the fit of that dataset alone."""
        dgp = tr.random_dgp(4, num_treatments=K, min_strata=4, max_strata=4,
                            propensity_range=(0.05, 0.6))
        block = tr.sample(dgp, n, [1, 2, 3])
        folds = tr.assign_folds(n, 5, [4, 5, 6])
        fit = tr.fit_crossfit(block, tr.LearnerSpec(), folds)
        for b in range(3):
            data, own_folds = block.replicate(b), folds.replicate(b)
            single = tr.fit_crossfit(data, tr.LearnerSpec(), own_folds)
            row = fit.replicate(b)
            got, want = unit_arrays(data, row, own_folds), unit_arrays(data, single, own_folds)
            for name in FIELDS:
                assert got[name].tobytes() == want[name].tobytes(), name
            assert np.array_equal(row.table.levels, single.table.levels)
            for name in ("count", "total", "m2"):
                assert getattr(row.table, name).tobytes() == getattr(single.table, name).tobytes()
            assert fit.fallback_count[b] == single.fallback_count
            assert fit.clipped_count[b] == single.clipped_count
        return fit

    def test_twenty_treatments_build_no_pattern_table(self):
        # 2**20 patterns per (fold, stratum) would take hundreds of MB
        data = many_treatments(20, 500, seed=3)
        folds = tr.assign_folds(data.n, 5, seed=4)
        tracemalloc.start()
        try:
            fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        table, chunks = fit.table, 20 // PATTERN_TREATMENTS
        assert table.count.shape == (chunks << PATTERN_TREATMENTS, 1, 5, 4)
        # every unit lies in one base cell of each chunk
        assert np.array_equal(table.count.sum(axis=(0, 1, 3)), chunks * np.bincount(folds.fold_of))
        for j in range(1, 21):
            treated, control, others = fit.cells(j)
            assert treated.size == control.size == 1 << (PATTERN_TREATMENTS - 1)
            assert others.size == 0
            assert table.count[treated].sum() == data.w[:, j - 1].sum()
            assert table.count[treated].sum() + table.count[control].sum() == data.n


class TestCellLayout:
    @pytest.mark.parametrize("mode, K", [(tr.AssignmentMode.PARALLEL_BINARY, K) for K in
                                         (1, 3, 4, 5, 9)]
                             + [(tr.AssignmentMode.MULTINOMIAL, K) for K in (1, 3)])
    def test_units_base_cells_match_their_treatments(self, tmp_path, mode, K):
        dgp = tr.random_dgp(6, num_treatments=K, max_strata=5, propensity_range=(0.1, 0.5),
                            assignment_mode=mode)
        block = tr.sample(dgp, 300, [1, 2, 3])
        path = tmp_path / "data.csv"
        tr.write_dataset_csv(block.replicate(1), path)
        read_back = tr.load_dataset_csv(path)  # its keys are derived from w and x
        layout = tr.dgp.cell_layout(mode, K)
        parallel = mode is tr.AssignmentMode.PARALLEL_BINARY
        # 2**PATTERN_TREATMENTS per full chunk, then the last chunk's patterns; or the arms
        last = (K - 1) // PATTERN_TREATMENTS
        assert layout.num_cells == (
            (last << PATTERN_TREATMENTS) + (1 << K - last * PATTERN_TREATMENTS) if parallel
            else K + 1)
        for side in layout.sides:
            cells = np.concatenate(side)
            assert np.unique(cells).size == cells.size and cells.max() < layout.num_cells
        for data in (block, read_back):
            keys, S = data.cell_keys, data.strata.codes.shape[0]
            assert keys.dtype == np.min_scalar_type(-layout.num_cells * S)
            assert keys.min() >= 0 and keys.max() < layout.num_cells * S
            taken = data.w.astype(bool)
            arm0 = ~taken.any(axis=-1)
            for j in range(1, K + 1):
                cell = keys[(j - 1) // PATTERN_TREATMENTS if parallel else 0] // S
                treated, control, others = (np.isin(cell, cells) for cells in layout.sides[j - 1])
                takes_j = taken[..., j - 1]
                assert np.array_equal(treated, takes_j)
                assert np.array_equal(control, ~takes_j if parallel else arm0)
                assert np.array_equal(others, np.zeros_like(arm0) if parallel
                                      else ~takes_j & ~arm0)


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
# each learner target fitted once


class TestOneFitPerTarget:
    """Each distinct target is fitted once; a model that serves every treatment is shared."""

    K, F = 4, 5

    def fitted(self, mode, spec, monkeypatch):
        """A fit where every target's every training split has every stratum, and its lstsq calls."""
        dgp = tr.random_dgp(5, num_treatments=self.K, min_strata=4, max_strata=4,
                            propensity_range=(0.1, 0.2), assignment_mode=mode)
        data = tr.sample(dgp, 8_000, seed=6)
        table = tr.cell_table(data, tr.assign_folds(data.n, self.F, seed=7))
        # every fold holds every stratum, and no stratum-mean cell falls back
        assert table.count.sum(axis=0).all()
        assert tr.fit_table(table, tr.LearnerSpec()).fallback_count == 0
        lstsq, calls = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        return tr.fit_table(table, spec), len(calls)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", [tr.LearnerKind.LINEAR_RIDGE, tr.LearnerKind.LOGISTIC_RIDGE])
    def test_lstsq_calls(self, mode, kind, monkeypatch):
        # outcome targets: T_j and {0, j} per treatment and the control arm (MULTINOMIAL),
        # or T_j and C_j per treatment and every unit (PARALLEL_BINARY); each is a
        # least-squares fit per fold at zero penalty, as are the rates of LINEAR_RIDGE:
        # arm j among every unit and among {0, j}, and arm 0 (MULTINOMIAL), or T_j
        _, calls = self.fitted(mode, tr.LearnerSpec(kind=kind), monkeypatch)
        outcomes = 2 * self.K + 1
        rates = 2 * self.K + 1 if mode is tr.AssignmentMode.MULTINOMIAL else self.K
        linear = kind is tr.LearnerKind.LINEAR_RIDGE
        assert calls == (outcomes + (rates if linear else 0)) * self.F

    def test_multinomial_control_models_are_shared(self, monkeypatch):
        fit, _ = self.fitted(tr.AssignmentMode.MULTINOMIAL, tr.LearnerSpec(), monkeypatch)
        for name in ("p_control", "mu_control"):
            table = getattr(fit, name)
            assert table.strides[0] == 0  # one table, broadcast over the treatments
            assert all(np.array_equal(table[j], table[0]) for j in range(self.K)), name
        assert not np.array_equal(fit.mu_treated[0], fit.mu_treated[1])

    def test_parallel_control_side_is_the_complement(self, monkeypatch):
        fit, _ = self.fitted(tr.AssignmentMode.PARALLEL_BINARY, tr.LearnerSpec(), monkeypatch)
        assert fit.p_control.tobytes() == (1.0 - fit.p_treated).tobytes()
        assert fit.plm_rate.tobytes() == fit.p_treated.tobytes()
        assert fit.plm_outcome.strides[0] == 0  # the pooled model serves every treatment


# ---------------------------------------------------------------------------
# pinned studies

PINNED = {
    "extreme_heterogeneity": "e5d227aeb9a1824202aecaf54262fb27b60d3de0f9b4d5ffde7938f7d0cf555d",
    "constant_effects": "805939cbd048ddf851694a783904e2e1f84bf3c81aaaa785fe06fd620f72ac6e",
    "uncorrelated": "bc2f6d531d25abeffc4119c85fa708adf4ba47014344ee8cbe07e4cb51fa38ee",
    "selection_on_gains": "fe81238f2b3663898abbce4efcc40a977946a8db93caf4e0ccf78ce12af218dd",
    "balanced": "13f4276466f567796f996601aa4f0c4b54c2f901f7a1964dfb2f528b3a46a584",
    "multinomial_random": "521eda5596ed4a8372ced8d0e16145a1e7b789b5f74a290036b4b85490009de0",
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


def clipped_per_unit(data, units, clip):
    """Per-unit clip of an unclipped fit's per-unit propensities, and the units clipped.

    Each fitted rate counts once: under MULTINOMIAL the control arm's
    model serves every treatment, and under PARALLEL_BINARY both sides and
    the residual regression read the one treatment model.
    """
    rates = {"p_treated": units["p_treated"]}
    multinomial = data.assignment_mode is tr.AssignmentMode.MULTINOMIAL
    if multinomial:
        rates.update(plm_rate=units["plm_rate"], p_control=units["p_control"][:, 0])
    count = sum(int(np.sum((raw < clip) | (raw > 1.0 - clip))) for raw in rates.values())
    arrays = {name: np.clip(raw, clip, 1.0 - clip) for name, raw in rates.items()}
    if multinomial:
        arrays["p_control"] = across(arrays["p_control"], data.num_treatments)
    else:
        arrays.update(p_control=1.0 - arrays["p_treated"], plm_rate=arrays["p_treated"])
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
        assert np.array_equal(unit_arrays(data, fit)["p_treated"][:, 0],
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
            values = raw["p_treated"][(raw["p_treated"] > 0.0) & (raw["p_treated"] < 0.5)]
            for clip in np.unique(np.append(values, [0.0, 0.01, 0.3]))[:4]:
                fit = fit_at(clip)
                arrays, count = clipped_per_unit(data, raw, clip)
                assert fit.clipped_count == count
                units = unit_arrays(data, fit, split)
                for name, want in arrays.items():
                    assert np.array_equal(units[name], want), name
