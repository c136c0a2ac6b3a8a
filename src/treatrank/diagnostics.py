"""Decomposition and ranking diagnostics.

The central identity is ``WATE = ATE + Cov(tau(X), gamma(X))`` with
regression weights ``gamma`` normalized to mean one. A rank reversal between
treatments ``j`` and ``k`` is ``ATE_j > ATE_k`` while ``WATE_j < WATE_k``:
the covariance terms are large enough, and of the right signs, to flip the
regression-based ordering away from the true one. This module makes that
arithmetic inspectable: per-stratum decomposition reports, an exact
reversal check, a delta-parameterized sufficient condition, and pairwise
ranking summaries. A decomposition is four aligned stratum columns, from
:func:`decompose`'s input to the report's ``strata``, ``probability``,
``tau`` and ``gamma``. The oracle and the estimated reports both hand
:func:`decompose` raw weights, which it normalizes once. The estimated
report splits a fit's PLM and AIPW points from the estimators' own
per-(fold, stratum) sums. :func:`reverses` is the one reversal rule, and
the pairwise checks take a pair in either order.
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
class DecompositionReport:
    """Additive WATE = ATE + Cov + remainder split for one treatment, with the
    per-stratum columns it was computed from: ``strata[i]`` has probability
    ``probability[i]``, effect ``tau[i]`` and normalized weight ``gamma[i]``
    (``remainder`` is 0.0 on an oracle report; see :func:`split_points`)."""

    treatment: int
    ate: float
    cov_tau_gamma: float
    wate: float
    strata: tuple[int, ...]
    probability: tuple[float, ...]
    tau: tuple[float, ...]
    gamma: tuple[float, ...]
    source: Source
    remainder: float = 0.0


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
    strata: Sequence[int],
    tau: Sequence[float],
    weight: Sequence[float],
    probs: Sequence[float],
    treatment: int = 0,
    source: Source = Source.ORACLE,
) -> DecompositionReport:
    """Split the weighted effect into ATE plus an effect-weight covariance.

    ``strata`` are distinct stratum codes and ``tau``, ``weight`` and
    ``probs`` 1-D columns aligned with them, kept and summed in that order.
    The weights are normalized to probability-weighted mean one; the three
    terms then come from :func:`~treatrank.dgp.decomposition_terms`.
    Misaligned or empty columns, repeated codes, a negative or non-finite
    probability or weight, or a non-finite effect raise ``ValueError``.
    """
    codes = np.asarray(strata)
    probs, tau, gamma = (np.asarray(v, dtype=np.float64) for v in (probs, tau, weight))
    # a set, not np.unique, whose hash path raised the benchmark's peak RSS by 2-3 MB
    if (codes.ndim != 1 or any(v.shape != codes.shape for v in (probs, tau, gamma))
            or len(set(codes.tolist())) < codes.size):
        raise ValueError("misaligned columns: strata, tau, weight and probs must be 1-D, "
                         "of one length, over distinct strata")
    if not codes.size:
        raise ValueError("empty tables")
    if not np.all(np.isfinite(probs) & (probs >= 0)):
        raise ValueError(f"stratum probabilities must be finite and non-negative, got {probs}")
    if abs(probs.sum() - 1.0) > 1e-8:
        raise ValueError(f"stratum probabilities must sum to 1, got {probs.sum()!r}")
    if not np.isfinite(tau).all():
        raise ValueError(f"effects must be finite, got {tau}")
    if not np.all(np.isfinite(gamma) & (gamma >= 0)):
        raise ValueError(f"weights must be finite and non-negative, got {gamma}")
    total = float(probs @ gamma)
    if total <= 0:
        raise ValueError("weights must have positive probability-weighted mean")
    gamma = gamma / total
    ate, wate, cov = decomposition_terms(probs, tau, gamma)
    return DecompositionReport(treatment=treatment, ate=ate, cov_tau_gamma=cov, wate=wate,
                               strata=tuple(codes.tolist()), probability=tuple(probs.tolist()),
                               tau=tuple(tau.tolist()), gamma=tuple(gamma.tolist()),
                               source=source)


def oracle_report(dgp: StratifiedDGP, j: int) -> DecompositionReport:
    """The closed-form decomposition of ``j``, strata in the DGP's order.

    ``ate``, ``wate`` and the weights are bit for bit ``oracle_ate``,
    ``oracle_wate`` and ``oracle_weights``, which normalize the same
    ``regression_variance`` once, in the same order.
    """
    variance = regression_variance(dgp, j)  # checks j before it indexes the effects
    return decompose(dgp.stratum_codes, dgp.effect[j - 1], variance, dgp.stratum_probs,
                     treatment=j, source=Source.ORACLE)


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
    tau, weight = (add_in_turn(est.sums[0])[present] / n_s[present] for est in (ate, wate))
    report = decompose(fit.table.levels[present], tau, weight, n_s[present] / fit.table.n,
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
    if dec_j.strata and dec_k.strata and set(dec_j.strata) != set(dec_k.strata):
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

    The pair may come in either order: ``h`` is the one with the higher
    ATE and ``l`` the other, as in :func:`check_reversal`. Returns True iff

    1. ``ate_h > ate_l`` (a tied pair is never a reversal),
    2. ``Cov(tau_h, gamma_h) < -delta``,
    3. ``Cov(tau_l, gamma_l) > delta``, and
    4. ``ate_h - ate_l < 2 delta``.

    Together these imply ``wate_h < wate_l``. Condition 4 would still
    imply it written as ``<=``, because 2 and 3 are strict; it is kept
    strict, so a gap of exactly ``2 delta`` is not sufficient, though the
    pair may be reversed.
    """
    if not delta > 0:  # also rejects NaN
        raise ValueError(f"delta must be > 0, got {delta}")
    high, low = (dec_j, dec_k) if dec_j.ate > dec_k.ate else (dec_k, dec_j)
    return (
        high.ate > low.ate
        and high.cov_tau_gamma < -delta
        and low.cov_tau_gamma > delta
        and high.ate - low.ate < 2.0 * delta
    )


def descending_order(points: Mapping[int, float]) -> tuple[int, ...]:
    """Treatments by descending point, ties broken by treatment index."""
    return tuple(sorted(points, key=lambda t: (-points[t], t)))


def rank_treatments(estimates: Sequence[EffectEstimate]) -> RankingResult:
    """Compare the ATE-targeting and WATE-targeting orderings.

    Expects one ATE-targeting method (AIPW or IPW) and one WATE-targeting
    method (PLM), each with exactly one estimate per treatment over a common
    treatment set. ``agreement`` is the fraction of treatment pairs that
    the two listed orderings put in the same order (1.0 when there are no
    pairs); a tie is ordered by treatment index, as in the orderings.
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
    by_ate, by_wate = descending_order(ate_pts), descending_order(wate_pts)
    rank_ate, rank_wate = ({t: r for r, t in enumerate(o)} for o in (by_ate, by_wate))
    concordant = sum((rank_ate[i] < rank_ate[j]) == (rank_wate[i] < rank_wate[j]) for i, j in pairs)
    return RankingResult(
        ordering_by_ate=by_ate,
        ordering_by_wate=by_wate,
        reversed_pairs=tuple((i, j) for i, j in pairs
                             if reverses(ate_pts[i], wate_pts[i], ate_pts[j], wate_pts[j])),
        agreement=concordant / len(pairs) if pairs else 1.0,
    )
