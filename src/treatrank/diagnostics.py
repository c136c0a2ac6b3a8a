"""Decomposition and ranking diagnostics.

The central identity is ``WATE = ATE + Cov(tau(X), gamma(X))`` with
regression weights ``gamma`` normalized to mean one. A rank reversal between
treatments ``j`` and ``k`` is ``ATE_j > ATE_k`` while ``WATE_j < WATE_k``:
the covariance terms are large enough, and of the right signs, to flip the
regression-based ordering away from the true one. This module makes that
arithmetic inspectable: per-stratum decomposition reports, an exact
reversal check, a delta-parameterized sufficient condition, and pairwise
ranking summaries. The oracle and the estimated reports both hand
:func:`decompose` raw weights, which it normalizes once. The estimated
report splits a fit's PLM and AIPW points from the estimators' own
per-(fold, stratum) sums. :func:`reverses` is the one reversal rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .dgp import Dataset, StratifiedDGP, decomposition_terms, regression_variance
from .estimators import ESTIMATION_ERRORS, EffectEstimate, Estimand, aipw_estimate, plm_estimate
from .nuisance import NuisanceFit, add_in_turn


class NotEstimableError(RuntimeError):
    """Raised when the PLM or AIPW estimate that a decomposition splits raises
    (no variation in the treatment residuals, or a point or SE that is not finite)."""


class Source(str, Enum):
    ORACLE = "oracle"
    ESTIMATED = "estimated"


@dataclass(frozen=True)
class StratumRow:
    stratum: int
    probability: float
    tau: float
    gamma: float


@dataclass(frozen=True)
class DecompositionReport:
    """Additive WATE = ATE + Cov + remainder split for one treatment, with the
    per-stratum effect and weight tables it was computed from (``remainder``
    is 0.0 on an oracle report; see :func:`split_points`)."""

    treatment: int
    ate: float
    cov_tau_gamma: float
    wate: float
    per_stratum: tuple[StratumRow, ...]
    source: Source
    remainder: float = 0.0

    @property
    def strata(self) -> tuple[int, ...]:
        return tuple(row.stratum for row in self.per_stratum)


@dataclass(frozen=True)
class ReversalCheck:
    """Outcome of a pairwise rank-reversal test.

    ``margin`` is a reporting convenience, not an estimand: for the
    higher-ATE treatment h versus the other l it is
    ``(ate_h - ate_l) + min(0, wate_h - wate_l)``, i.e. the ATE gap eaten
    into (and past zero, when reversed) by the weighted ordering.
    """

    reversed: bool
    margin: float


@dataclass(frozen=True)
class RankingResult:
    """Descending orderings by ATE-targeting and WATE-targeting estimates."""

    ordering_by_ate: tuple[int, ...]
    ordering_by_wate: tuple[int, ...]
    reversed_pairs: tuple[tuple[int, int], ...]
    agreement: float


def decompose(
    tau_by_stratum: Mapping[int, float],
    gamma_by_stratum: Mapping[int, float],
    strata_probs: Mapping[int, float],
    treatment: int = 0,
    source: Source = Source.ORACLE,
) -> DecompositionReport:
    """Split the weighted effect into ATE plus an effect-weight covariance.

    The weight table is normalized to probability-weighted mean one; the
    three terms then come from :func:`~treatrank.dgp.decomposition_terms`.
    The strata are taken, and summed over, in the order of
    ``tau_by_stratum``. A negative or non-finite probability or weight, or
    a non-finite effect, raises ``ValueError``.
    """
    keys = list(tau_by_stratum)
    if set(gamma_by_stratum) != set(keys) or set(strata_probs) != set(keys):
        raise ValueError(
            "misaligned tables: tau, gamma, and probabilities must cover the same strata"
        )
    if not keys:
        raise ValueError("empty tables")
    probs = np.array([strata_probs[s] for s in keys], dtype=np.float64)
    if not np.all(np.isfinite(probs) & (probs >= 0)):
        raise ValueError(f"stratum probabilities must be finite and non-negative, got {probs}")
    if abs(probs.sum() - 1.0) > 1e-8:
        raise ValueError(f"stratum probabilities must sum to 1, got {probs.sum()!r}")
    tau = np.array([tau_by_stratum[s] for s in keys], dtype=np.float64)
    gamma = np.array([gamma_by_stratum[s] for s in keys], dtype=np.float64)
    if not np.isfinite(tau).all():
        raise ValueError(f"effects must be finite, got {tau}")
    if not np.all(np.isfinite(gamma) & (gamma >= 0)):
        raise ValueError(f"weights must be finite and non-negative, got {gamma}")
    total = float(probs @ gamma)
    if total <= 0:
        raise ValueError("weights must have positive probability-weighted mean")
    gamma = gamma / total
    ate, wate, cov = decomposition_terms(probs, tau, gamma)
    rows = tuple(
        StratumRow(stratum=s, probability=float(p), tau=float(t), gamma=float(g))
        for s, p, t, g in zip(keys, probs, tau, gamma)
    )
    return DecompositionReport(treatment=treatment, ate=ate, cov_tau_gamma=cov, wate=wate,
                               per_stratum=rows, source=source)


def oracle_report(dgp: StratifiedDGP, j: int) -> DecompositionReport:
    """The closed-form decomposition of ``j``, strata in the DGP's order.

    ``ate``, ``wate`` and the weights are bit for bit ``oracle_ate``,
    ``oracle_wate`` and ``oracle_weights``, which normalize the same
    ``regression_variance`` once, in the same order.
    """
    codes = dgp.stratum_codes.tolist()
    variance = regression_variance(dgp, j)  # checks j
    return decompose(
        dict(zip(codes, dgp.effect[j - 1].tolist())),
        dict(zip(codes, variance.tolist())),
        dict(zip(codes, dgp.stratum_probs.tolist())),
        treatment=j,
        source=Source.ORACLE,
    )


def estimate_decomposition(data: Dataset | None, fit: NuisanceFit, j: int) -> DecompositionReport:
    """:func:`split_points` of ``j``'s PLM and AIPW estimates from one dataset's ``fit``
    (``fit.replicate(b)`` of a block); ``data`` is the dataset it was made from, or None."""
    try:
        return split_points(fit, j, plm_estimate(data, fit, j), aipw_estimate(data, fit, j))
    except ESTIMATION_ERRORS as exc:
        return split_points(fit, j, exc, exc)


def split_points(fit: NuisanceFit, j: int, wate: EffectEstimate | Exception,
                 ate: EffectEstimate | Exception) -> DecompositionReport:
    """The split of ``j``'s PLM estimate ``wate`` and AIPW estimate ``ate``.

    ``fit`` is the one dataset's fit they come from, and the report's
    ``wate`` and ``ate`` are their points, bit for bit. Per stratum, ``tau``
    is the mean AIPW score and the raw weight PLM's mean squared treatment
    residual ``sum(n w**2) / n_s`` (the {0, j} units' under MULTINOMIAL):
    the estimates' own (fold, stratum) ``sums``, added over the folds in
    turn. ``remainder = wate - ate - cov_tau_gamma`` is the weighted gap
    between each stratum's regression slope and its mean score: zero
    in-sample with ``stratum_mean``, shrinking with ``n`` cross-fitted.
    Every stratum with units is in the points, so in their split. Either
    estimate may be the error its estimator raised; the split is then not
    estimable.
    """
    if fit.table.block:
        raise ValueError("a decomposition takes one dataset's fit; use fit.replicate(b)")
    for point in (wate, ate):
        if isinstance(point, Exception):
            raise NotEstimableError(f"treatment {j}'s PLM or AIPW point is not finite or "
                                    f"not defined: {point}") from point
    # units per stratum: j's cells hold each unit once (a chunk of treatments holds every unit)
    n_s = fit.table.count[np.concatenate(fit.cells(j)), 0].sum(axis=(0, 1))
    present = np.flatnonzero(n_s)
    codes = fit.table.levels[present].tolist()
    tau, weight = (add_in_turn(est.sums[0])[present] / n_s[present] for est in (ate, wate))
    shares = n_s[present] / fit.table.n
    report = decompose(*(dict(zip(codes, v.tolist())) for v in (tau, weight, shares)),
                       treatment=j, source=Source.ESTIMATED)
    return replace(report, ate=ate.point, wate=wate.point,
                   remainder=wate.point - ate.point - report.cov_tau_gamma)


def reverses(ate_j: float, wate_j: float, ate_k: float, wate_k: float) -> bool:
    """The reversal rule: the strictly higher-ATE of ``j`` and ``k`` has the strictly lower WATE."""
    if ate_j < ate_k:
        ate_j, wate_j, ate_k, wate_k = ate_k, wate_k, ate_j, wate_j
    return bool(ate_j > ate_k and wate_j < wate_k)


def check_reversal(dec_j: DecompositionReport, dec_k: DecompositionReport) -> ReversalCheck:
    """Test whether the WATE ordering contradicts the ATE ordering (see :func:`reverses`).

    Exact ATE ties are never reversals and report zero margin.
    """
    if dec_j.per_stratum and dec_k.per_stratum and set(dec_j.strata) != set(dec_k.strata):
        raise ValueError(
            f"reports cover different strata: {dec_j.strata} vs {dec_k.strata}"
        )
    if dec_j.ate == dec_k.ate:
        return ReversalCheck(reversed=False, margin=0.0)
    high, low = (dec_j, dec_k) if dec_j.ate > dec_k.ate else (dec_k, dec_j)
    margin = (high.ate - low.ate) + min(0.0, high.wate - low.wate)
    return ReversalCheck(reversed=reverses(high.ate, high.wate, low.ate, low.wate),
                         margin=float(margin))


def sufficient_condition_check(
    dec_j: DecompositionReport, dec_k: DecompositionReport, delta: float
) -> bool:
    """Delta-parameterized sufficient conditions for a rank reversal.

    Convention: ``dec_j`` is the higher-ATE treatment. Returns True iff

    1. ``ate_j > ate_k`` (a tied pair is never a reversal),
    2. ``Cov(tau_j, gamma_j) < -delta``,
    3. ``Cov(tau_k, gamma_k) > delta``, and
    4. ``ate_j - ate_k < 2 delta``.

    Together these imply ``wate_j < wate_k``.
    """
    if not delta > 0:  # also rejects NaN
        raise ValueError(f"delta must be > 0, got {delta}")
    return (
        dec_j.ate > dec_k.ate
        and dec_j.cov_tau_gamma < -delta
        and dec_k.cov_tau_gamma > delta
        and dec_j.ate - dec_k.ate < 2.0 * delta
    )


def descending_order(points: Mapping[int, float]) -> tuple[int, ...]:
    """Treatments by descending point, ties broken by treatment index."""
    return tuple(sorted(points, key=lambda t: (-points[t], t)))


def rank_treatments(estimates: Sequence[EffectEstimate]) -> RankingResult:
    """Compare the ATE-targeting and WATE-targeting orderings.

    Expects one ATE-targeting method (AIPW or IPW) and one WATE-targeting
    method (PLM), each with exactly one estimate per treatment over a common
    treatment set. ``agreement`` is the fraction of treatment pairs on which
    the two orderings concur (1.0 when there are no pairs).
    """
    sides: dict[Estimand, dict[int, float]] = {Estimand.ATE: {}, Estimand.WATE: {}}
    methods: dict[Estimand, set] = {Estimand.ATE: set(), Estimand.WATE: set()}
    for est in estimates:
        side = sides[est.estimand]
        if est.treatment in side:
            raise ValueError(
                f"duplicate {est.estimand.value} estimate for treatment {est.treatment}; "
                "pass a single method per estimand"
            )
        side[est.treatment] = est.point
        methods[est.estimand].add(est.method)
    for estimand, used in methods.items():
        if len(used) > 1:
            raise ValueError(f"multiple methods target {estimand.value}: pass only one")
    ate_pts, wate_pts = sides[Estimand.ATE], sides[Estimand.WATE]
    if not ate_pts or not wate_pts:
        raise ValueError("need both an ATE-targeting and a WATE-targeting estimate set")
    if set(ate_pts) != set(wate_pts):
        raise ValueError(
            f"treatment sets differ between estimands: {sorted(ate_pts)} vs {sorted(wate_pts)}"
        )

    pairs = list(combinations(sorted(ate_pts), 2))
    concordant = sum(bool(np.sign(ate_pts[i] - ate_pts[j]) == np.sign(wate_pts[i] - wate_pts[j]))
                     for i, j in pairs)
    return RankingResult(
        ordering_by_ate=descending_order(ate_pts),
        ordering_by_wate=descending_order(wate_pts),
        reversed_pairs=tuple((i, j) for i, j in pairs
                             if reverses(ate_pts[i], wate_pts[i], ate_pts[j], wate_pts[j])),
        agreement=concordant / len(pairs) if pairs else 1.0,
    )
