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

Given a block of datasets and its fit (a leading block axis, see
``dgp.Dataset``), each estimator works along the unit axis and returns
one :class:`EffectEstimate` whose numbers are per-dataset arrays, row ``b``
bit for bit the estimate of dataset ``b`` alone. No per-unit sum goes
through BLAS: every sum and mean is a reduction of an elementwise array
over the contiguous last axis, which numpy adds pairwise row by row as it
adds a single dataset, so an estimate does not depend on the BLAS build or
its thread count. An estimate the data cannot support in any dataset of
the block raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .dgp import AssignmentMode, Dataset
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


def _dr_score(y: NDArray, d: NDArray, m: NDArray, q: NDArray) -> NDArray[np.float64]:
    """``m(X) + D * (Y - m(X)) / q(X)`` for membership ``D`` with probability ``q``."""
    score = np.subtract(y, m)
    np.multiply(d.astype(np.float64), score, out=score)
    np.divide(score, q, out=score)
    return np.add(m, score, out=score)


def _treated_score(data: Dataset, fit: NuisanceFit, j: int) -> NDArray[np.float64]:
    return _dr_score(data.y, data.indicator(j), fit.treated_outcome(j), fit.arm_probability(j))


def _effect_score(data: Dataset, fit: NuisanceFit, j: int) -> NDArray[np.float64]:
    """Treated minus control score of treatment ``j``, written over the treated one."""
    score = _treated_score(data, fit, j)
    control = _dr_score(
        data.y, data.control_indicator(j), fit.control_outcome(j), fit.control_probability(j)
    )
    return np.subtract(score, control, out=score)


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


def _mean_and_se(scores: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
    """Mean of each dataset's scores and its standard error ``sd / sqrt(n)``."""
    n = scores.shape[-1]
    point = scores.mean(axis=-1)
    se = scores.std(ddof=1, axis=-1) / np.sqrt(n) if n > 1 else np.zeros(point.shape)
    return point, se


def plm_estimate(data: Dataset, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Residual-on-residual regression coefficient for treatment ``j``.

    Regresses ``Y - E_hat[Y|X]`` on ``W_j - p_hat_j(X)`` through the origin;
    the reported standard error is the heteroskedasticity-robust (sandwich)
    slope SE. Under MULTINOMIAL assignment the regression runs on the
    {control, j} subsample with the conditional propensity.
    """
    w_res = np.subtract(data.indicator(j), fit.plm_propensity(j))
    y_res = np.subtract(data.y, fit.plm_outcome(j))
    used = None  # every unit
    if data.assignment_mode is AssignmentMode.MULTINOMIAL:
        # units outside {control, j} add zeros to every sum below
        mask = data.restriction_mask(j)
        np.multiply(w_res, mask, out=w_res)
        np.multiply(y_res, mask, out=y_res)
        used = mask.sum(axis=-1)

    w_sq = np.square(w_res)
    denom = w_sq.sum(axis=-1)
    if np.any(denom <= 0.0):
        raise NoVariationError(
            f"treatment {j} residuals have zero variation; cannot run the residual regression"
        )
    point = np.multiply(w_res, y_res).sum(axis=-1) / denom
    # in place: resid = y_res - point * w_res, then the sandwich sum of w_res**2 * resid**2
    resid = np.subtract(y_res, np.multiply(point[..., None], w_res, out=w_res), out=y_res)
    np.multiply(w_sq, np.square(resid, out=resid), out=w_sq)
    se = np.sqrt(w_sq.sum(axis=-1)) / denom
    return _estimate(data, Method.PLM, j, point, se, used)


def aipw_estimate(data: Dataset, fit: NuisanceFit, a: int, b: int = 0) -> EffectEstimate:
    """Augmented inverse-propensity estimate of ``ATE_a - ATE_b``.

    With ``b = 0`` this is treatment ``a``'s effect versus control. The point
    is the mean pseudo-outcome contrast and the standard error its sample
    standard deviation over sqrt(n).
    """
    K = data.num_treatments
    for arm in (a, b):
        if not 0 <= arm <= K:
            raise ValueError(f"arm index must be in 0..{K}, got {arm}")
    if a == b:
        shape = data.y.shape[:-1]
        return _estimate(data, Method.AIPW, a, np.zeros(shape), np.zeros(shape))
    # arm 0 (control) has no score of its own: its effect versus control is 0
    scores = _effect_score(data, fit, a) if a else np.zeros(data.y.shape)
    if b:
        np.subtract(scores, _effect_score(data, fit, b), out=scores)
    point, se = _mean_and_se(scores)
    return _estimate(data, Method.AIPW, a, point, se)


def ipw_estimate(data: Dataset, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Horvitz-Thompson inverse-propensity estimate of treatment ``j``'s ATE.

    ``mean(1{arm j} Y / p_j) - mean(1{control} Y / p_control)`` with the
    control condition as in :meth:`Dataset.control_indicator`.
    """
    # d * y / p_j - c * y / p_control, each step written over its input
    treated = np.multiply(data.indicator(j).astype(np.float64), data.y)
    np.divide(treated, fit.arm_probability(j), out=treated)
    control = np.multiply(data.control_indicator(j).astype(np.float64), data.y)
    np.divide(control, fit.control_probability(j), out=control)
    point, se = _mean_and_se(np.subtract(treated, control, out=treated))
    return _estimate(data, Method.IPW, j, point, se)


# Callers dispatch in this order; it is the row order of the estimate outputs.
ESTIMATORS: dict[Method, Callable[[Dataset, NuisanceFit, int], EffectEstimate]] = {
    Method.PLM: plm_estimate,
    Method.AIPW: aipw_estimate,
    Method.IPW: ipw_estimate,
}

