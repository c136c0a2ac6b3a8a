"""The cell-moment estimators and decomposition against the per-unit reference.

PLM, AIPW, IPW and ``estimate_decomposition`` read a fit's (fold, stratum,
cell) moments. ``unit_reference`` keeps the per-unit formulas over the fit's
tables gathered to the units; the two must agree to 1e-12 relative (of
``max(1, |reference|)``), with equal units used, dropped strata and error
types, for every learner, both assignment modes, cross-fit and in-sample
fits, single datasets and every row of a block.
"""

from __future__ import annotations

import numpy as np
import pytest

import treatrank as tr
from treatrank.estimators import ESTIMATORS

from test_corruption import corrupt_outcome, corrupt_propensity
from unit_reference import REFERENCE, assert_reports_close, close, decomposition, unit_arrays

# the unclipped in-sample fits divide by propensities of 0 and 1 on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPECS = [
    tr.LearnerSpec(),
    tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE),
    tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=0.5),
    tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=0.5, basis=tr.Basis.RAW_CODE),
]
SPEC_IDS = ["stratum_mean", "linear_ridge", "logistic_ridge", "linear_ridge-raw_code"]
MODES = list(tr.AssignmentMode)
FAILURES = (tr.NoVariationError, tr.UndefinedEstimateError, tr.NotEstimableError)


def outcome(call):
    """The call's result, or the type of the estimation error it raised."""
    try:
        return call()
    except FAILURES as exc:
        return type(exc)


def dgp_for(mode, seed):
    """Many strata, some rare, so a small sample lacks some and has empty cells."""
    return tr.random_dgp(seed, num_treatments=3, min_strata=4, max_strata=9,
                         propensity_range=(0.05, 0.6), noise_sd=2.0, assignment_mode=mode)


def fits(data, spec, seed):
    """(fit, folds) pairs: cross-fit at the default clip, in-sample unclipped."""
    folds = tr.assign_folds(data.n, 5, seed)
    yield tr.fit_crossfit(data, spec, folds), folds
    yield tr.fit_insample(data, spec), None


def assert_agrees(data, fit, folds, j):
    """Every estimator and the decomposition of one dataset agree with the reference."""
    units = unit_arrays(data, fit, folds)
    for method, estimator in ESTIMATORS.items():
        got = outcome(lambda: estimator(data, fit, j))
        want = outcome(lambda: REFERENCE[method](data, units, j))
        if isinstance(want, type):
            assert got is want, (method, j)
            continue
        assert not isinstance(got, type), (method, j, got)
        point, se, n_used = want
        assert close(got.point, point), (method, j, got.point, point)
        assert close(got.std_error, se), (method, j, got.std_error, se)
        assert got.n_used == n_used
    got = outcome(lambda: tr.estimate_decomposition(data, fit, j))
    want = outcome(lambda: decomposition(data, units, j))
    if isinstance(want, type):
        assert got is want
    else:
        assert_reports_close(got, want)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("mode", MODES)
def test_single_datasets(spec, mode):
    for seed in range(4):
        data = tr.sample(dgp_for(mode, seed), 60 + 90 * seed, seed=seed)
        for fit, folds in fits(data, spec, seed):
            for j in (1, 2, 3):
                assert_agrees(data, fit, folds, j)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("mode", MODES)
def test_every_row_of_a_block(spec, mode):
    seeds = list(range(20, 26))
    block = tr.sample(dgp_for(mode, 3), 40, seeds)
    absent = [np.unique(block.x[b]).size < block.strata.codes.size for b in range(len(seeds))]
    assert any(absent)  # some rows lack a stratum of the block: their cells there are empty
    for fit, folds in fits(block, spec, seeds):
        for j in (1, 2, 3):
            rows = [(block.replicate(b), fit.replicate(b),
                     None if folds is None else folds.replicate(b)) for b in range(len(seeds))]
            for method, estimator in ESTIMATORS.items():
                got = outcome(lambda: estimator(block, fit, j))
                want = [outcome(lambda: REFERENCE[method](data, unit_arrays(data, row, f), j))
                        for data, row, f in rows]
                if isinstance(got, type):
                    assert got in want
                    continue
                for b, ref in enumerate(want):
                    point, se, n_used = ref
                    assert close(got.point[b], point) and close(got.std_error[b], se)
                    assert got.n_used[b] == n_used
            for data, row, f in rows:
                assert_agrees(data, row, f, j)


def test_clip_zero_errors_match():
    # unclipped in-sample rates of 0 and 1 leave inverse weights undefined
    dgp = dgp_for(tr.AssignmentMode.PARALLEL_BINARY, 1)
    data = tr.sample(dgp, 25, seed=4)
    fit = tr.fit_insample(data, tr.LearnerSpec())
    assert any(outcome(lambda: tr.aipw_estimate(data, fit, j)) is tr.UndefinedEstimateError
               for j in (1, 2, 3))
    for j in (1, 2, 3):
        assert_agrees(data, fit, None, j)


# ---------------------------------------------------------------------------
# second moments far from zero


@pytest.mark.parametrize("mode, K", [(mode, 2) for mode in MODES]
                         + [(tr.AssignmentMode.PARALLEL_BINARY, 4)],
                         ids=[mode.value for mode in MODES] + ["parallel_binary-four_treatments"])
def test_standard_errors_with_a_large_baseline(mode, K):
    """A baseline of 1e6 leaves every SE within 1e-9 of the per-unit one.

    Each base cell's sum of squares is centred on its mean; the shortcut
    ``sum(y**2) - sum(y)**2 / n`` loses about 1e-4 of it here. With four
    parallel treatments each half of a treatment is eight base cells, whose
    means differ, and the sums over them must stay as close.
    """
    base = tr.random_dgp(5, num_treatments=K, min_strata=3, max_strata=3,
                         propensity_range=(0.2, 0.5), assignment_mode=mode)
    dgp = tr.StratifiedDGP(strata=base.strata, num_treatments=K, propensity=base.propensity,
                           effect=base.effect, baseline=base.baseline + 1e6, noise_sd=1.0,
                           assignment_mode=mode)
    data = tr.sample(dgp, 3_000, seed=6)
    folds = tr.assign_folds(data.n, 5, seed=7)
    fit = tr.fit_crossfit(data, tr.LearnerSpec(), folds)
    units = unit_arrays(data, fit, folds)
    if K == 4:
        assert all(cells.size == 8 for j in range(1, K + 1) for cells in fit.cells(j)[:2])
    for j in range(1, K + 1):
        for method, estimator in ESTIMATORS.items():
            se = REFERENCE[method](data, units, j)[1]
            assert estimator(data, fit, j).std_error == pytest.approx(se, rel=1e-9, abs=0), method


# ---------------------------------------------------------------------------
# oracle and corrupted fits of a block


@pytest.mark.parametrize("mode", MODES)
def test_oracle_and_corrupted_fits_of_a_block(mode):
    dgp = dgp_for(mode, 2)
    seeds = [31, 32, 33]
    block = tr.sample(dgp, 50, seeds)
    oracle = tr.oracle_nuisance(block, dgp)
    bias = {int(code): 0.1 * code - 0.4 for code in dgp.stratum_codes}
    variants = [
        (lambda fit: fit),
        (lambda fit: corrupt_outcome(fit, bias)),
        (lambda fit: corrupt_propensity(fit, odds_factor=1.7)),
    ]
    for corrupt in variants:
        fit = corrupt(oracle)
        for j in (1, 2, 3):
            for estimator in ESTIMATORS.values():
                est = estimator(block, fit, j)
                assert np.shape(est.point) == (len(seeds),)
                for b, seed in enumerate(seeds):
                    data = tr.sample(dgp, 50, seed)
                    one = estimator(data, corrupt(tr.oracle_nuisance(data, dgp)), j)
                    assert (est.point[b], est.std_error[b], est.n_used[b]) == (
                        one.point, one.std_error, one.n_used)
            for b, seed in enumerate(seeds):
                data = tr.sample(dgp, 50, seed)
                row = outcome(lambda: tr.estimate_decomposition(data, fit.replicate(b), j))
                one = outcome(lambda: tr.estimate_decomposition(
                    data, corrupt(tr.oracle_nuisance(data, dgp)), j))
                assert row == one


def test_decomposition_needs_one_dataset():
    dgp = dgp_for(tr.AssignmentMode.PARALLEL_BINARY, 0)
    block = tr.sample(dgp, 40, [1, 2])
    fit = tr.fit_insample(block, tr.LearnerSpec(), clip=0.01)
    with pytest.raises(ValueError, match="replicate"):
        tr.estimate_decomposition(block, fit, 1)
