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
    """Point estimate with its standard error and declared target."""

    treatment: int
    method: Method
    point: float
    std_error: float
    estimand: Estimand
    n_used: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.std_error):
            raise UndefinedEstimateError(f"std_error must be finite and >= 0, got {self.std_error}")
        if self.std_error < 0:
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
        return _contrast(self.effect_score, self.num_treatments, self.n, a, b)


def _contrast(
    effect_score: Callable[[int], NDArray[np.float64]], K: int, n: int, a: int, b: int
) -> NDArray[np.float64]:
    """``effect_score(a) - effect_score(b)``, where arm 0 (control) has no score."""
    for arm in (a, b):
        if not 0 <= arm <= K:
            raise ValueError(f"arm index must be in 0..{K}, got {arm}")
    if a == b:
        return np.zeros(n)
    if b == 0:
        return effect_score(a)
    if a == 0:
        return -effect_score(b)
    return effect_score(a) - effect_score(b)


def _dr_score(y: NDArray, d: NDArray, m: NDArray, q: NDArray) -> NDArray[np.float64]:
    """``m(X) + D * (Y - m(X)) / q(X)`` for membership ``D`` with probability ``q``."""
    return m + d.astype(np.float64) * (y - m) / q


def _treated_score(data: Dataset, fit: NuisanceFit, j: int) -> NDArray[np.float64]:
    return _dr_score(data.y, data.indicator(j), fit.treated_outcome(j), fit.arm_probability(j))


def _control_score(data: Dataset, fit: NuisanceFit, j: int) -> NDArray[np.float64]:
    return _dr_score(
        data.y, data.control_indicator(j), fit.control_outcome(j), fit.control_probability(j)
    )


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


def plm_estimate(data: Dataset, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Residual-on-residual regression coefficient for treatment ``j``.

    Regresses ``Y - E_hat[Y|X]`` on ``W_j - p_hat_j(X)`` through the origin;
    the reported standard error is the heteroskedasticity-robust (sandwich)
    slope SE. Under MULTINOMIAL assignment the regression runs on the
    {control, j} subsample with the conditional propensity.
    """
    mask = data.restriction_mask(j)
    w_res = data.indicator(j)[mask].astype(np.float64) - fit.plm_propensity(j)[mask]
    y_res = data.y[mask] - fit.plm_outcome(j)[mask]

    denom = float(w_res @ w_res)
    if denom <= 0.0:
        raise NoVariationError(
            f"treatment {j} residuals have zero variation; cannot run the residual regression"
        )
    point = float(w_res @ y_res) / denom
    resid = y_res - point * w_res
    se = float(np.sqrt((w_res**2) @ (resid**2))) / denom
    return EffectEstimate(
        treatment=j,
        method=Method.PLM,
        point=point,
        std_error=se,
        estimand=Estimand.WATE,
        n_used=int(mask.sum()),
    )


def aipw_estimate(data: Dataset, fit: NuisanceFit, a: int, b: int = 0) -> EffectEstimate:
    """Augmented inverse-propensity estimate of ``ATE_a - ATE_b``.

    With ``b = 0`` this is treatment ``a``'s effect versus control. The point
    is the mean pseudo-outcome contrast and the standard error its sample
    standard deviation over sqrt(n).
    """
    scores = _contrast(
        lambda j: _treated_score(data, fit, j) - _control_score(data, fit, j),
        data.num_treatments, data.n, a, b,
    )
    point = float(scores.mean())
    se = float(scores.std(ddof=1) / np.sqrt(data.n)) if data.n > 1 else 0.0
    if a == b:
        point, se = 0.0, 0.0
    return EffectEstimate(
        treatment=a,
        method=Method.AIPW,
        point=point,
        std_error=se,
        estimand=Estimand.ATE,
        n_used=data.n,
    )


def ipw_estimate(data: Dataset, fit: NuisanceFit, j: int) -> EffectEstimate:
    """Horvitz-Thompson inverse-propensity estimate of treatment ``j``'s ATE.

    ``mean(1{arm j} Y / p_j) - mean(1{control} Y / p_control)`` with the
    control condition as in :meth:`Dataset.control_indicator`.
    """
    d = data.indicator(j).astype(np.float64)
    c = data.control_indicator(j).astype(np.float64)
    scores = d * data.y / fit.arm_probability(j) - c * data.y / fit.control_probability(j)
    point = float(scores.mean())
    se = float(scores.std(ddof=1) / np.sqrt(data.n)) if data.n > 1 else 0.0
    return EffectEstimate(
        treatment=j,
        method=Method.IPW,
        point=point,
        std_error=se,
        estimand=Estimand.ATE,
        n_used=data.n,
    )


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
