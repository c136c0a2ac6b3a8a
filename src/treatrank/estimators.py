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
bit for bit the estimate of dataset ``b`` alone: sums and means reduce
over the contiguous last axis, which numpy adds pairwise row by row as it
adds a single dataset, and every dot product is one BLAS dot per dataset.
An estimate the data cannot support in any dataset of the block raises.
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


@dataclass(frozen=True)
class PseudoOutcomes:
    """Per-unit doubly-robust scores.

    ``treated[:, j-1]`` estimates the potential-outcome mean under treatment
    ``j``; ``control[:, j-1]`` the mean under treatment ``j``'s control
    condition. Under MULTINOMIAL assignment all control columns coincide
    (there is a single control arm); under PARALLEL_BINARY each treatment has
    its own complement.
    """

    treated: NDArray[np.float64]
    control: NDArray[np.float64]

    @property
    def n(self) -> int:
        return self.treated.shape[0]

    @property
    def num_treatments(self) -> int:
        return self.treated.shape[1]

    def effect_score(self, j: int) -> NDArray[np.float64]:
        """Per-unit score whose mean estimates treatment ``j``'s ATE."""
        return self.treated[:, j - 1] - self.control[:, j - 1]

    def contrast(self, a: int, b: int) -> NDArray[np.float64]:
        """Per-unit score whose mean estimates ``ATE_a - ATE_b`` (index 0 = control)."""
        return _contrast(self.effect_score, self.num_treatments, (self.n,), a, b)


def _contrast(
    effect_score: Callable[[int], NDArray[np.float64]], K: int, shape: tuple[int, ...],
    a: int, b: int,
) -> NDArray[np.float64]:
    """``effect_score(a) - effect_score(b)``, where arm 0 (control) has no score."""
    for arm in (a, b):
        if not 0 <= arm <= K:
            raise ValueError(f"arm index must be in 0..{K}, got {arm}")
    if a == b:
        return np.zeros(shape)
    if b == 0:
        return effect_score(a)
    if a == 0:
        return -effect_score(b)
    return effect_score(a) - effect_score(b)


def _dr_score(y: NDArray, d: NDArray, m: NDArray, q: NDArray) -> NDArray[np.float64]:
    """``m(X) + D * (Y - m(X)) / q(X)`` for membership ``D`` with probability ``q``."""
    score = np.subtract(y, m)
    np.multiply(d.astype(np.float64), score, out=score)
    np.divide(score, q, out=score)
    return np.add(m, score, out=score)


def _treated_score(data: Dataset, fit: NuisanceFit, j: int) -> NDArray[np.float64]:
    return _dr_score(data.y, data.indicator(j), fit.treated_outcome(j), fit.arm_probability(j))


def _control_score(data: Dataset, fit: NuisanceFit, j: int) -> NDArray[np.float64]:
    return _dr_score(
        data.y, data.control_indicator(j), fit.control_outcome(j), fit.control_probability(j)
    )


def _effect_score(data: Dataset, fit: NuisanceFit, j: int) -> NDArray[np.float64]:
    """Treated minus control score of treatment ``j``, written over the treated one."""
    score = _treated_score(data, fit, j)
    return np.subtract(score, _control_score(data, fit, j), out=score)


def pseudo_outcomes(data: Dataset, fit: NuisanceFit) -> PseudoOutcomes:
    """Doubly-robust pseudo-outcomes for every arm.

    For arm membership indicator ``D`` with probability ``q`` and outcome
    model ``m``: ``score = m(X) + D * (Y - m(X)) / q(X)``. Finiteness is
    guaranteed by propensity clipping upstream (see ``fit.clipped_count``).
    """
    arms = range(1, data.num_treatments + 1)
    return PseudoOutcomes(
        treated=np.column_stack([_treated_score(data, fit, j) for j in arms]),
        control=np.column_stack([_control_score(data, fit, j) for j in arms]),
    )


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


def _row_dots(a: NDArray[np.float64], b: NDArray[np.float64], bounds: NDArray) -> NDArray:
    """``a[lo:hi] @ b[lo:hi]`` for each dataset's slice ``lo:hi``: one BLAS dot each."""
    return np.array([a[lo:hi] @ b[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])])


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
    d, y = data.indicator(j), data.y
    p, m = fit.plm_propensity(j), fit.plm_outcome(j)
    # dataset b's units are bounds[b]:bounds[b + 1] of the flattened arrays
    bounds = np.arange(y.size // data.n + 1) * data.n
    if data.assignment_mode is AssignmentMode.MULTINOMIAL:
        # each dataset's subsample, one after the other
        units = np.flatnonzero(data.restriction_mask(j))
        d, y, p, m = (np.take(a, units) for a in (d, y, p, m))
        bounds = np.searchsorted(units, bounds)
    used = np.diff(bounds)
    w_res = np.subtract(d.astype(np.float64), p).reshape(-1)
    y_res = np.subtract(y, m).reshape(-1)

    denom = _row_dots(w_res, w_res, bounds)
    if np.any(denom <= 0.0):
        raise NoVariationError(
            f"treatment {j} residuals have zero variation; cannot run the residual regression"
        )
    point = _row_dots(w_res, y_res, bounds) / denom
    # a dataset's slope scales each of its units: one slope broadcasts over all
    scale = point if point.shape[0] == 1 else np.repeat(point, used)
    # in place: resid = y_res - point * w_res, then both squared
    resid = np.subtract(y_res, np.multiply(scale, w_res), out=y_res)
    np.square(w_res, out=w_res)
    se = np.sqrt(_row_dots(w_res, np.square(resid, out=resid), bounds)) / denom
    return _estimate(data, Method.PLM, j, point, se, used)


def aipw_estimate(data: Dataset, fit: NuisanceFit, a: int, b: int = 0) -> EffectEstimate:
    """Augmented inverse-propensity estimate of ``ATE_a - ATE_b``.

    With ``b = 0`` this is treatment ``a``'s effect versus control. The point
    is the mean pseudo-outcome contrast and the standard error its sample
    standard deviation over sqrt(n).
    """
    scores = _contrast(
        lambda j: _effect_score(data, fit, j), data.num_treatments, data.y.shape, a, b
    )
    point, se = _mean_and_se(scores)
    if a == b:
        point, se = np.zeros(point.shape), np.zeros(point.shape)
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


def estimate_all(
    data: Dataset, fit: NuisanceFit, methods: tuple[Method, ...] = tuple(Method)
) -> list[EffectEstimate]:
    """Run the requested estimators for every treatment versus control."""
    return [
        ESTIMATORS[m](data, fit, j)
        for m in methods
        for j in range(1, data.num_treatments + 1)
    ]
