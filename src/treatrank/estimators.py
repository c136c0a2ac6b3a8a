"""Point estimators for treatment effects, built on cross-fitted nuisances.

Three estimators with two distinct targets:

* ``plm_estimate``: the residual-on-residual regression coefficient
  ``sum(w_res * y_res) / sum(w_res**2)``. Under effect heterogeneity its
  probability limit is the variance-weighted WATE, not the ATE.
* ``aipw_estimate``: mean of pseudo-outcome contrasts; doubly robust and
  consistent for the ATE at any level of heterogeneity.
* ``ipw_estimate``: Horvitz-Thompson inverse-propensity contrast, also
  ATE-targeting.

All three are pure functions of a fit and safe to evaluate concurrently.
Each takes ``(data, fit, j)``: ``data`` is the dataset the fit was made
from, checked against the fit's size, or None, since a fit carries its
cell table, and with it its number of units and whether it holds a block.
``ESTIMATORS`` maps each :class:`Method` to its function and is the only
dispatch table.

Each estimator reads row ``j - 1`` of the fit's role tables (see
``nuisance.NuisanceFit``) and never the assignment mode: AIPW and IPW the
treated and control sides' probabilities (``p_treated``, ``p_control``),
AIPW also their outcome models (``mu_treated``, ``mu_control``), and PLM
its residual regression's ``plm_outcome`` and ``plm_rate``. It reads the
data as the held-out base cells of the fit's table, not the units:
treatment ``j``'s treated and control halves and, under MULTINOMIAL, the
other arms, which the residual regression leaves out. Every nuisance is
constant on a half, so on each of its base cells too, and each unit's
score is linear in its outcome there, ``a + b y``; AIPW and IPW (AIPW
with a zero outcome model) share that one reduction. Written about the
base cell's mean ``ybar``, with ``g = a + b ybar`` its mean score, ``n``
its units and ``M2`` its centred sum of squares, the mean score is
``sum(n g) / N`` and its sample variance
``sum(b**2 M2 + n (g - mean)**2) / (N - 1)``, both sums over base cells.
The residual regression's residuals are constant on a base cell too: with
``w`` the treatment residual and ``yhat`` the outcome model, the slope is
``sum(n w (ybar - yhat)) / sum(n w**2)`` and the sandwich SE
``sqrt(sum(w**2 (M2 + n (ybar - yhat - slope w)**2))) / sum(n w**2)``.

Given a block of datasets and its fit, each estimator returns one
:class:`EffectEstimate` whose numbers are per-dataset arrays, row ``b`` bit
for bit the estimate of dataset ``b`` alone. Every sum is taken in a fixed
order, one term after another (a cumulative sum, not numpy's pairwise
sum): per (dataset, fold, stratum), the base cells' terms in turn
(``nuisance.add_in_turn``, the rule of the fit's target sums), then
each dataset's (fold, stratum) sums. So the empty cells of strata that a
dataset lacks but its block has add exact zeros, and nothing goes through
BLAS: an estimate depends on neither the block nor the BLAS build or its
thread count. An estimate the data cannot support in any dataset of the
block raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .dgp import Dataset
from .nuisance import NuisanceFit, SingularFitError, add_in_turn


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
    """Point estimate with its standard error; ``estimand`` is its method's target.

    For a block of datasets, ``point``, ``std_error`` and ``n_used`` are
    arrays with one entry per dataset.
    """

    treatment: int
    method: Method
    point: float | NDArray[np.float64]
    std_error: float | NDArray[np.float64]
    n_used: int | NDArray[np.int64]

    def __post_init__(self) -> None:
        if not np.isfinite(self.std_error).all():
            raise UndefinedEstimateError(f"std_error must be finite and >= 0, got {self.std_error}")
        if np.less(self.std_error, 0).any():
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error}")

    @property
    def estimand(self) -> Estimand:
        """WATE for PLM, ATE for the other methods."""
        return Estimand.WATE if self.method is Method.PLM else Estimand.ATE


def _cell_sum(terms: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per dataset, the sum of ``[dataset, fold, stratum]`` terms, added in sequence."""
    return np.add.accumulate(terms.reshape(terms.shape[0], -1), axis=1)[:, -1]


def _check(data: Dataset | None, fit: NuisanceFit) -> None:
    if data is not None and (data.n, data.y.ndim > 1) != (fit.table.n, fit.table.block):
        raise ValueError("the fit was made from other data: its units or its block differ")


def _estimate(fit: NuisanceFit, method: Method, j: int, point: NDArray, se: NDArray,
              n_used: NDArray | None = None) -> EffectEstimate:
    """An estimate from per-dataset arrays, made plain numbers for a single dataset.

    ``n_used`` defaults to every unit of each dataset.
    """
    n = fit.table.n
    if not fit.table.block:
        point, se = point.item(), se.item()
        n_used = n if n_used is None else n_used.item()
    elif n_used is None:
        n_used = np.full(point.shape, n)
    return EffectEstimate(treatment=j, method=method, point=point, std_error=se, n_used=n_used)


def _score_estimate(data: Dataset | None, fit: NuisanceFit, j: int,
                    method: Method) -> EffectEstimate:
    """Mean and SE of treatment ``j``'s score ``mu1 - mu0 + D (y - mu1) / p - C (y - mu0) / q``.

    The outcome models ``mu1`` and ``mu0`` are the fit's for AIPW and zero
    for IPW. ``D`` and ``C`` mark the treated and control units, and a unit
    in neither (another arm) scores ``mu1 - mu0``; see the module docstring
    for the sums over base cells. A fold and stratum without units adds
    nothing. One with units and a propensity or control probability of 0
    (possible with ``clip=0``) makes the estimate undefined, as its units'
    scores are: its treated or control cells then add ``0 * inf`` or
    ``inf``.
    """
    _check(data, fit)
    treated, control, others = fit.cells(j)
    (n_t, ybar_t, m2_t), (n_c, ybar_c, m2_c) = fit.moments(treated), fit.moments(control)
    # the other arms' units (none under PARALLEL_BINARY) all score mu1 - mu0: one term
    n_o = [fit.table.count[others].sum(axis=0, keepdims=True)] if others.size else []
    aipw = method is Method.AIPW
    mu1, mu0 = (fit.mu_treated[j - 1], fit.mu_control[j - 1]) if aipw else (0.0, 0.0)
    p, q = fit.p_treated[j - 1], fit.p_control[j - 1]
    n, occupied = fit.table.n, fit.table.count.any(axis=0)
    # an undefined estimate raises below; the cells left out need no warning
    with np.errstate(divide="ignore", invalid="ignore"):
        base = mu1 - mu0
        score_t = base + (ybar_t - mu1) / p
        score_c = base - (ybar_c - mu0) / q
        scores = add_in_turn(n_t * score_t, n_c * score_c, *(units * base for units in n_o))
        point = _cell_sum(np.where(occupied, scores, 0.0)) / n
        mean = point[:, None, None]
        spread = add_in_turn((add_in_turn(m2_t) / (p * p))[None], n_t * (score_t - mean) ** 2,
                             (add_in_turn(m2_c) / (q * q))[None], n_c * (score_c - mean) ** 2,
                             *(units * (base - mean) ** 2 for units in n_o))
        variance = _cell_sum(np.where(occupied, spread, 0.0))
    se = np.sqrt(variance / (n - 1) / n) if n > 1 else np.zeros(point.shape)
    return _estimate(fit, method, j, point, se)


def plm_estimate(data: Dataset | None, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Residual-on-residual regression coefficient for treatment ``j``.

    Regresses ``Y - plm_outcome`` on ``W_j - plm_rate`` through the origin;
    the reported standard error is the heteroskedasticity-robust (sandwich)
    slope SE. The regression takes ``j``'s treated and control halves only,
    so under MULTINOMIAL assignment it runs on the {control, j} subsample,
    with the fit's conditional propensity as ``plm_rate``.
    """
    _check(data, fit)
    treated, control, _ = fit.cells(j)
    (n_t, ybar_t, m2_t), (n_c, ybar_c, m2_c) = fit.moments(treated), fit.moments(control)
    y_hat, p = fit.plm_outcome[j - 1], fit.plm_rate[j - 1]
    w_t, w_c = 1.0 - p, -p  # treatment residuals of the treated and control units
    gap_t, gap_c = ybar_t - y_hat, ybar_c - y_hat
    weight_t, weight_c = n_t * w_t, n_c * w_c
    units_t, units_c = n_t.sum(axis=0), n_c.sum(axis=0)  # whole numbers: exact in any order
    denom = _cell_sum(units_t * w_t * w_t + units_c * w_c * w_c)
    if np.any(denom <= 0.0):
        raise NoVariationError(
            f"treatment {j} residuals have zero variation; cannot run the residual regression"
        )
    point = _cell_sum(add_in_turn(weight_t * gap_t, weight_c * gap_c)) / denom
    slope = point[:, None, None]
    resid_t, resid_c = gap_t - slope * w_t, gap_c - slope * w_c
    sandwich = (w_t * w_t * add_in_turn(m2_t + n_t * resid_t * resid_t)
                + w_c * w_c * add_in_turn(m2_c + n_c * resid_c * resid_c))
    se = np.sqrt(_cell_sum(sandwich)) / denom
    n_used = (units_t.sum(axis=(1, 2)) + units_c.sum(axis=(1, 2))).astype(np.int64)
    return _estimate(fit, Method.PLM, j, point, se, n_used)


def aipw_estimate(data: Dataset | None, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Augmented inverse-propensity estimate of treatment ``j``'s ATE versus control.

    The point is the mean pseudo-outcome contrast and the standard error
    its sample standard deviation over sqrt(n).
    """
    return _score_estimate(data, fit, j, Method.AIPW)


def ipw_estimate(data: Dataset | None, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Horvitz-Thompson inverse-propensity estimate of treatment ``j``'s ATE.

    ``mean(1{arm j} Y / p_j) - mean(1{control} Y / p_control)``, where the
    control condition is not receiving ``j`` under PARALLEL_BINARY and the
    control arm under MULTINOMIAL: the AIPW score with a zero outcome model.
    """
    return _score_estimate(data, fit, j, Method.IPW)


# Callers dispatch in this order; it is the row order of the estimate outputs.
ESTIMATORS: dict[Method, Callable[[Dataset | None, NuisanceFit, int], EffectEstimate]] = {
    Method.PLM: plm_estimate,
    Method.AIPW: aipw_estimate,
    Method.IPW: ipw_estimate,
}

