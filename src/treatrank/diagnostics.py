"""Decomposition and ranking diagnostics.

The central identity is ``WATE = ATE + Cov(tau(X), gamma(X))`` with
regression weights ``gamma`` normalized to mean one. A rank reversal between
treatments ``j`` and ``k`` is ``ATE_j > ATE_k`` while ``WATE_j < WATE_k``:
the covariance terms are large enough, and of the right signs, to flip the
regression-based ordering away from the true one. This module makes that
arithmetic inspectable: per-stratum decomposition reports, an exact
reversal check, a delta-parameterized sufficient condition, and pairwise
ranking summaries. The oracle and the estimated reports both hand
:func:`decompose` raw regression variances, which it normalizes once. The
estimated decomposition reads the per-stratum sums it needs from the
held-out base cells of a fit's table (``NuisanceFit.cells``), not from the
units. :func:`reverses` is the one reversal rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .dgp import Dataset, StratifiedDGP, decomposition_terms, regression_variance
from .estimators import EffectEstimate, Estimand
from .nuisance import NuisanceFit, add_in_turn

class NotEstimableError(RuntimeError):
    """Raised when no stratum has both treated and control units, or when a
    stratum's estimated effect is not finite (a non-finite outcome in its cells)."""


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
    """Additive WATE = ATE + Cov split for one treatment, with the
    per-stratum effect and weight tables it was computed from."""

    treatment: int
    ate: float
    cov_tau_gamma: float
    wate: float
    per_stratum: tuple[StratumRow, ...]
    source: Source
    dropped_strata: int = 0

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
    dropped_strata: int = 0,
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
    return DecompositionReport(
        treatment=treatment,
        ate=ate,
        cov_tau_gamma=cov,
        wate=wate,
        per_stratum=rows,
        source=source,
        dropped_strata=dropped_strata,
    )


def oracle_report(dgp: StratifiedDGP, j: int) -> DecompositionReport:
    """The closed-form decomposition of ``j``, strata in the DGP's order.

    ``ate``, ``wate`` and the weights are bit for bit ``oracle_ate``,
    ``oracle_wate`` and ``oracle_weights``, which normalize the same
    ``p(1 - p)`` once, in the same order.
    """
    codes = dgp.stratum_codes.tolist()
    variance = regression_variance(dgp.propensity[dgp._check_treatment(j) - 1])
    return decompose(
        dict(zip(codes, dgp.effect[j - 1].tolist())),
        dict(zip(codes, variance.tolist())),
        dict(zip(codes, dgp.stratum_probs.tolist())),
        treatment=j,
        source=Source.ORACLE,
    )


def estimate_decomposition(data: Dataset | None, fit: NuisanceFit, j: int) -> DecompositionReport:
    """Plug-in decomposition from a sampled dataset.

    Per-stratum effects are within-cell mean differences (treated j minus
    control), the saturated nonparametric estimator on discrete strata;
    weights come from cell means of the cross-fitted propensities. Strata
    lacking treated or control units are dropped (counted on the report) and
    the stratum distribution renormalized; if every stratum is dropped, or a
    stratum's effect is not finite, the decomposition is not estimable.

    Everything comes from the base cells of one dataset's table (``fit``
    of a single dataset, or ``fit.replicate(b)`` of a block); ``data``, the
    dataset it was made from, is not read and may be None. A stratum's
    treated mean is its treated base cells' sums of ``y`` over their
    units, and its mean propensity ``sum_k n_k p_k / n`` over the folds
    ``k``, ``n_k`` being the units fold ``k`` predicts. Each sum adds its
    terms one after another through ``nuisance.add_in_turn`` (base cell
    by base cell, each over the folds in order), so a stratum's numbers do
    not depend on the strata around it; strata without units (those of the DGP or of a block that this
    dataset lacks) are skipped.
    """
    table = fit.table
    if table.count.shape[1] != 1:
        raise ValueError("estimate_decomposition takes one dataset's fit; use fit.replicate(b)")
    treated, control, others = fit.cells(j)
    count, total = table.count[:, 0], table.total[:, 0]  # [base cell, fold, stratum]
    n_t, n_c = count[treated].sum(axis=0), count[control].sum(axis=0)
    held = n_t + n_c + count[others].sum(axis=0)  # [fold, stratum]: the units each fold predicts
    n_s, n_treated, n_control = held.sum(axis=0), n_t.sum(axis=0), n_c.sum(axis=0)
    S = held.shape[1]
    y_treated, y_control = (add_in_turn(total[cells].reshape(-1, S)) for cells in (treated, control))
    p = fit.p_treated[j - 1, 0]  # [fold, stratum]
    p_sum = add_in_turn(held * p)

    tau_tab: dict[int, float] = {}
    var_tab: dict[int, float] = {}
    prob_tab: dict[int, float] = {}
    dropped = 0
    for s, code in enumerate(table.levels.tolist()):
        if n_s[s] == 0:
            continue
        if n_treated[s] == 0 or n_control[s] == 0:
            dropped += 1
            continue
        tau_tab[code] = float(y_treated[s] / n_treated[s] - y_control[s] / n_control[s])
        if not np.isfinite(tau_tab[code]):
            raise NotEstimableError(f"treatment {j}'s estimated effect in stratum {code} "
                                    f"is not finite: {tau_tab[code]}")
        var_tab[code] = regression_variance(float(p_sum[s] / n_s[s]))
        prob_tab[code] = int(n_s[s]) / table.n

    if not tau_tab:
        raise NotEstimableError(
            f"no stratum has both treated and control units for treatment {j}"
        )
    total = sum(prob_tab.values())
    prob_tab = {s: p / total for s, p in prob_tab.items()}
    return decompose(
        tau_tab,
        var_tab,
        prob_tab,
        treatment=j,
        source=Source.ESTIMATED,
        dropped_strata=dropped,
    )


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
