"""Decomposition and ranking diagnostics.

The central identity is ``WATE = ATE + Cov(tau(X), gamma(X))`` with
regression weights ``gamma`` normalized to mean one. A rank reversal between
treatments ``j`` and ``k`` is ``ATE_j > ATE_k`` while ``WATE_j < WATE_k``:
the covariance terms are large enough, and of the right signs, to flip the
regression-based ordering away from the true one. This module makes that
arithmetic inspectable: per-stratum decomposition reports, an exact
reversal check, a delta-parameterized sufficient condition, and pairwise
ranking summaries. The estimated decomposition reads the per-stratum
sums it needs from the held-out base cells of a fit's table
(``NuisanceFit.cells``), not from the units.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .dgp import Dataset, StratifiedDGP, decomposition_terms, oracle_weights
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

    The weight table is renormalized to probability-weighted mean one; the
    three terms then come from :func:`~treatrank.dgp.decomposition_terms`.
    A negative or non-finite probability or weight, or a non-finite
    effect, raises ``ValueError``.
    """
    keys = sorted(tau_by_stratum)
    if sorted(gamma_by_stratum) != keys or sorted(strata_probs) != keys:
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
    """Decomposition report straight from the DGP tables."""
    codes = dgp.stratum_codes
    probs = dgp.stratum_probs
    return decompose(
        {int(c): float(t) for c, t in zip(codes, dgp.effect[j - 1])},
        {int(c): float(g) for c, g in zip(codes, oracle_weights(dgp, j))},
        {int(c): float(p) for c, p in zip(codes, probs)},
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
    p = fit.propensities(j)[0][0]  # [fold, stratum]
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
        p_bar = float(p_sum[s] / n_s[s])
        var_tab[code] = p_bar * (1.0 - p_bar)
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


def check_reversal(dec_j: DecompositionReport, dec_k: DecompositionReport) -> ReversalCheck:
    """Test whether the WATE ordering contradicts the ATE ordering.

    Reversed iff the strictly higher-ATE treatment has the strictly lower
    WATE; exact ATE ties are never reversals and report zero margin.
    """
    if dec_j.per_stratum and dec_k.per_stratum and dec_j.strata != dec_k.strata:
        raise ValueError(
            f"reports cover different strata: {dec_j.strata} vs {dec_k.strata}"
        )
    if dec_j.ate == dec_k.ate:
        return ReversalCheck(reversed=False, margin=0.0)
    high, low = (dec_j, dec_k) if dec_j.ate > dec_k.ate else (dec_k, dec_j)
    margin = (high.ate - low.ate) + min(0.0, high.wate - low.wate)
    return ReversalCheck(reversed=bool(high.wate < low.wate), margin=float(margin))


def sufficient_condition_check(
    dec_j: DecompositionReport, dec_k: DecompositionReport, delta: float
) -> bool:
    """Delta-parameterized sufficient conditions for a rank reversal.

    Convention: ``dec_j`` is the higher-ATE treatment. Returns True iff

    1. ``Cov(tau_j, gamma_j) < -delta``,
    2. ``Cov(tau_k, gamma_k) > delta``, and
    3. ``ate_j - ate_k < 2 delta``.

    Together with ``ate_j > ate_k`` these imply ``wate_j < wate_k``.
    """
    if not delta > 0:  # also rejects NaN
        raise ValueError(f"delta must be > 0, got {delta}")
    return (
        dec_j.cov_tau_gamma < -delta
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

    treatments = sorted(ate_pts)
    reversed_pairs = []
    concordant = 0
    num_pairs = 0
    for i, j in ((a, b) for idx, a in enumerate(treatments) for b in treatments[idx + 1 :]):
        num_pairs += 1
        da = np.sign(ate_pts[i] - ate_pts[j])
        dw = np.sign(wate_pts[i] - wate_pts[j])
        if da == dw:
            concordant += 1
        if da * dw < 0:
            reversed_pairs.append((i, j))
    return RankingResult(
        ordering_by_ate=descending_order(ate_pts),
        ordering_by_wate=descending_order(wate_pts),
        reversed_pairs=tuple(reversed_pairs),
        agreement=concordant / num_pairs if num_pairs else 1.0,
    )
