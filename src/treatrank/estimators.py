"""Point estimators for treatment effects, built on cross-fitted nuisances.

Three estimators with two distinct targets:

* ``plm_estimate``: the residual-on-residual regression coefficient
  ``sum(w_res * y_res) / sum(w_res**2)``. Under effect heterogeneity its
  probability limit is the variance-weighted WATE, not the ATE.
* ``aipw_estimate``: mean of pseudo-outcome contrasts; doubly robust and
  consistent for the ATE at any level of heterogeneity.
* ``ipw_estimate``: Horvitz-Thompson inverse-propensity contrast, also
  ATE-targeting.

All three are pure functions of (data, fit) and safe to evaluate
concurrently. ``ESTIMATORS`` maps each :class:`Method` to its function and
is the only dispatch table.

Every estimator reads the fit's held-out cell moments (see
``nuisance.NuisanceFit``), not the units. In a cell every nuisance is
constant, so each unit's score is linear in its outcome, ``a + b y``; AIPW
and IPW (AIPW with a zero outcome model) share that one reduction. Written
about the cell mean ``ybar``, with ``g = a + b ybar`` the cell's mean score,
``n`` its units and ``M2`` its centred sum of squares, the mean score is
``sum(n g) / N`` and its sample variance
``sum(b**2 M2 + n (g - mean)**2) / (N - 1)``. The residual regression's
residuals are constant in a cell too: with ``w`` the treatment residual and
``yhat`` the outcome model, the slope is ``sum(n w (ybar - yhat)) /
sum(n w**2)`` and the sandwich SE ``sqrt(sum(w**2 (M2 + n (ybar - yhat -
slope w)**2))) / sum(n w**2)``. Under MULTINOMIAL assignment the
regression takes only the cells of arms 0 and ``j``.

Given a block of datasets and its fit, each estimator returns one
:class:`EffectEstimate` whose numbers are per-dataset arrays, row ``b`` bit
for bit the estimate of dataset ``b`` alone. A sum over cells adds each
dataset's cells one after another (a cumulative sum, not numpy's pairwise
sum), so the empty cells of strata that a dataset lacks but its block has
add exact zeros, and nothing goes through BLAS: an estimate depends on
neither the block nor the BLAS build or its thread count. An estimate the
data cannot support in any dataset of the block raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .dgp import Dataset
from .nuisance import NuisanceFit, SingularFitError


class NoVariationError(RuntimeError):
    """Raised when the treatment residuals carry no variation to regress on."""


class UndefinedEstimateError(ValueError):
    """Raised when an estimate's standard error is not finite.

    An estimated propensity of exactly 0 or 1 (possible with ``clip=0``) or
    a non-finite outcome leaves the inverse weights or the scores undefined.
    """


# Errors the learners and estimators raise on purpose when the data cannot
# support a fit or an estimate. Callers that record such failures and carry
# on catch exactly these; any other exception is a bug and propagates.
ESTIMATION_ERRORS = (SingularFitError, NoVariationError, UndefinedEstimateError)


class Method(str, Enum):
    PLM = "plm"
    AIPW = "aipw"
    IPW = "ipw"


class Estimand(str, Enum):
    WATE = "wate"
    ATE = "ate"


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimate with its standard error and declared target.

    For a block of datasets, ``point``, ``std_error`` and ``n_used`` are
    arrays with one entry per dataset.
    """

    treatment: int
    method: Method
    point: float | NDArray[np.float64]
    std_error: float | NDArray[np.float64]
    estimand: Estimand
    n_used: int | NDArray[np.int64]

    def __post_init__(self) -> None:
        if not np.isfinite(self.std_error).all():
            raise UndefinedEstimateError(f"std_error must be finite and >= 0, got {self.std_error}")
        if np.less(self.std_error, 0).any():
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error}")
        if (self.estimand is Estimand.WATE) != (self.method is Method.PLM):
            raise ValueError("WATE is the estimand of PLM and of PLM only")


def _cell_sum(terms: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per dataset, the sum of ``[dataset, fold, stratum]`` terms, added in sequence."""
    return np.add.accumulate(terms.reshape(terms.shape[0], -1), axis=1)[:, -1]


def _estimate(data: Dataset, method: Method, j: int, point: NDArray, se: NDArray,
              n_used: NDArray | None = None) -> EffectEstimate:
    """An estimate from per-dataset arrays, made plain numbers for a single dataset.

    ``n_used`` defaults to every unit of each dataset.
    """
    if data.y.ndim == 1:
        point, se = point.item(), se.item()
        n_used = data.n if n_used is None else n_used.item()
    elif n_used is None:
        n_used = np.full(point.shape, data.n)
    estimand = Estimand.WATE if method is Method.PLM else Estimand.ATE
    return EffectEstimate(treatment=j, method=method, point=point, std_error=se,
                          estimand=estimand, n_used=n_used)


def _score_estimate(data: Dataset, fit: NuisanceFit, j: int, method: Method) -> EffectEstimate:
    """Mean and SE of treatment ``j``'s score ``mu1 - mu0 + D (y - mu1) / p - C (y - mu0) / q``.

    The outcome models ``mu1`` and ``mu0`` are the fit's for AIPW and zero
    for IPW. ``D`` and ``C`` mark the treated and control units, and a unit
    in neither (another arm) scores ``mu1 - mu0``; see the module docstring
    for the sums over cells. A fold and stratum without units adds nothing.
    One with units and a propensity or control probability of 0 (possible
    with ``clip=0``) makes the estimate undefined, as its units' scores
    are: its treated or control cell then adds ``0 * inf`` or ``inf``.
    """
    (n_t, ybar_t, m2_t), (n_c, ybar_c, m2_c), n_o = fit.cells(j)
    mu1, mu0 = fit.outcomes(j) if method is Method.AIPW else (0.0, 0.0)
    p, q = fit.propensities(j)
    n, occupied = data.n, n_t + n_c + n_o > 0
    # an undefined estimate raises below; the cells left out need no warning
    with np.errstate(divide="ignore", invalid="ignore"):
        base = mu1 - mu0
        score_t = base + (ybar_t - mu1) / p
        score_c = base - (ybar_c - mu0) / q
        point = _cell_sum(np.where(occupied, n_t * score_t + n_c * score_c + n_o * base, 0.0)) / n
        mean = point[:, None, None]
        spread = (m2_t / (p * p) + n_t * (score_t - mean) ** 2 + m2_c / (q * q)
                  + n_c * (score_c - mean) ** 2 + n_o * (base - mean) ** 2)
        variance = _cell_sum(np.where(occupied, spread, 0.0))
    se = np.sqrt(variance / (n - 1) / n) if n > 1 else np.zeros(point.shape)
    return _estimate(data, method, j, point, se)


def plm_estimate(data: Dataset, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Residual-on-residual regression coefficient for treatment ``j``.

    Regresses ``Y - E_hat[Y|X]`` on ``W_j - p_hat_j(X)`` through the origin;
    the reported standard error is the heteroskedasticity-robust (sandwich)
    slope SE. Under MULTINOMIAL assignment the regression runs on the
    {control, j} subsample with the conditional propensity.
    """
    (n_t, ybar_t, m2_t), (n_c, ybar_c, m2_c), _ = fit.cells(j)
    y_hat, p = fit.plm_tables(j)
    w_t, w_c = 1.0 - p, -p  # treatment residuals of the treated and control units
    gap_t, gap_c = ybar_t - y_hat, ybar_c - y_hat
    weight_t, weight_c = n_t * w_t, n_c * w_c
    denom = _cell_sum(weight_t * w_t + weight_c * w_c)
    if np.any(denom <= 0.0):
        raise NoVariationError(
            f"treatment {j} residuals have zero variation; cannot run the residual regression"
        )
    point = _cell_sum(weight_t * gap_t + weight_c * gap_c) / denom
    slope = point[:, None, None]
    resid_t, resid_c = gap_t - slope * w_t, gap_c - slope * w_c
    sandwich = (w_t * w_t * (m2_t + n_t * resid_t * resid_t)
                + w_c * w_c * (m2_c + n_c * resid_c * resid_c))
    se = np.sqrt(_cell_sum(sandwich)) / denom
    n_used = (n_t + n_c).sum(axis=(1, 2)).astype(np.int64)
    return _estimate(data, Method.PLM, j, point, se, n_used)


def aipw_estimate(data: Dataset, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Augmented inverse-propensity estimate of treatment ``j``'s ATE versus control.

    The point is the mean pseudo-outcome contrast and the standard error
    its sample standard deviation over sqrt(n).
    """
    return _score_estimate(data, fit, j, Method.AIPW)


def ipw_estimate(data: Dataset, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Horvitz-Thompson inverse-propensity estimate of treatment ``j``'s ATE.

    ``mean(1{arm j} Y / p_j) - mean(1{control} Y / p_control)``, where the
    control condition is not receiving ``j`` under PARALLEL_BINARY and the
    control arm under MULTINOMIAL: the AIPW score with a zero outcome model.
    """
    return _score_estimate(data, fit, j, Method.IPW)


# Callers dispatch in this order; it is the row order of the estimate outputs.
ESTIMATORS: dict[Method, Callable[[Dataset, NuisanceFit, int], EffectEstimate]] = {
    Method.PLM: plm_estimate,
    Method.AIPW: aipw_estimate,
    Method.IPW: ipw_estimate,
}

