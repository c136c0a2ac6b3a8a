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
    return replace(
        fit,
        y_hat=fit.y_hat + offset,
        mu_treated=fit.mu_treated + offset,
        mu_control=fit.mu_control + offset,
        restricted_y=None if fit.restricted_y is None else fit.restricted_y + offset,
    )


def corrupt_propensity(fit: tr.NuisanceFit, odds_factor: float) -> tr.NuisanceFit:
    """Multiply the odds of every propensity prediction by a constant.

    ``p -> f p / (1 - p + f p)``. Leaves outcome models untouched.
    """
    if odds_factor <= 0:
        raise ValueError(f"odds_factor must be > 0, got {odds_factor}")

    def shift(p: NDArray | None) -> NDArray | None:
        if p is None:
            return None
        return odds_factor * p / (1.0 - p + odds_factor * p)

    return replace(
        fit,
        p_hat=shift(fit.p_hat),
        restricted_p=shift(fit.restricted_p),
        control_p=shift(fit.control_p),
    )


class TestCorruption:
    def test_outcome_bias_shifts_outcome_models_only(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        bad = unit_arrays(data, corrupt_outcome(fit, bias={0: 1.0, 1: -2.0}))
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
            corrupt_outcome(fit, bias={0: 1.0})

    def test_propensity_odds_shift_formula(self):
        dgp = round_propensity_dgp()
        data = exact_cell_dataset(dgp, 40)
        fit = tr.oracle_nuisance(data, dgp)
        bad = corrupt_propensity(fit, odds_factor=2.0)
        p = fit.p_hat
        assert np.allclose(bad.p_hat, 2 * p / (1 - p + 2 * p))
        assert np.array_equal(bad.mu_treated, fit.mu_treated)
        with pytest.raises(ValueError):
            corrupt_propensity(fit, odds_factor=0.0)
