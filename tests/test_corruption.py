"""Controlled nuisance corruption for the double-robustness checks, and its tests.

``corrupt_outcome`` and ``corrupt_propensity`` turn a fit (usually
``oracle_nuisance``'s) into a "wrong outcome model, right propensity
model" or a "right outcome model, wrong propensity model" fit. Only tests
use them, so they live here; other test modules import them from this one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

import numpy as np
import pytest
from numpy.typing import NDArray

import treatrank as tr
from treatrank.dgp import code_positions

from conftest import exact_cell_dataset, round_propensity_dgp
from unit_reference import unit_arrays


def corrupt_outcome(fit: tr.NuisanceFit, bias: Mapping[int, float]) -> tr.NuisanceFit:
    """Shift every outcome-model prediction by a fixed per-stratum offset.

    Leaves propensities untouched. ``bias`` must cover every stratum of the
    fit.
    """
    codes = np.fromiter(bias.keys(), dtype=np.int64, count=len(bias))
    values = np.array([float(v) for v in bias.values()])
    offset = values[code_positions(codes, fit.table.levels)]
    return replace(fit, **{name: getattr(fit, name) + offset
                           for name in ("mu_treated", "mu_control", "plm_outcome")})


def corrupt_propensity(fit: tr.NuisanceFit, odds_factor: float) -> tr.NuisanceFit:
    """Multiply the odds of each treated side against its control side by a constant.

    ``p -> f p / (1 - p + f p)`` for the treated side's probabilities, and
    the control side's odds over ``f``. Under PARALLEL_BINARY the control
    side's probability stays one minus the treated side's, to rounding.
    Leaves outcome models untouched.
    """
    if odds_factor <= 0:
        raise ValueError(f"odds_factor must be > 0, got {odds_factor}")

    def shift(p: NDArray, f: float) -> NDArray:
        return f * p / (1.0 - p + f * p)

    return replace(fit, p_treated=shift(fit.p_treated, odds_factor),
                   p_control=shift(fit.p_control, 1.0 / odds_factor),
                   plm_rate=shift(fit.plm_rate, odds_factor))


class TestCorruption:
    def test_outcome_bias_shifts_outcome_models_only(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        bad = unit_arrays(data, corrupt_outcome(fit, bias={0: 1.0, 1: -2.0}))
        fit = unit_arrays(data, fit)
        offset = np.where(data.x == 0, 1.0, -2.0)
        for name in ("mu_treated", "mu_control", "plm_outcome"):
            assert np.allclose(bad[name], fit[name] + offset[:, None])
        for name in ("p_treated", "p_control", "plm_rate"):
            assert np.array_equal(bad[name], fit[name])

    def test_outcome_bias_needs_every_stratum(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        with pytest.raises(ValueError, match="unknown stratum code 1"):
            corrupt_outcome(fit, bias={0: 1.0})

    def test_propensity_odds_shift_formula(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        bad = corrupt_propensity(fit, odds_factor=2.0)
        p = fit.p_treated
        assert np.allclose(bad.p_treated, 2 * p / (1 - p + 2 * p))
        assert np.allclose(bad.p_control, 1 - bad.p_treated, rtol=1e-15, atol=1e-15)
        assert np.array_equal(bad.plm_rate, bad.p_treated)
        assert np.array_equal(bad.mu_treated, fit.mu_treated)
        with pytest.raises(ValueError):
            corrupt_propensity(fit, odds_factor=0.0)
