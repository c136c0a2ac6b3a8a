"""Discrete-strata data-generating processes and their closed-form estimands.

A :class:`StratifiedDGP` lives on a finite set of covariate strata and is
fully described by tables: stratum probabilities, per-treatment propensity
scores ``p_j(x)``, per-treatment effects ``tau_j(x)``, and a baseline outcome
mean ``mu0(x)``. Because everything is tabular, the estimands that the
estimators chase are available in closed form:

* ``oracle_ate``: the unweighted mean effect ``E[tau_j(X)]``;
* ``oracle_weights``: the regression weights
  ``gamma_j(x) = p_j(x)(1 - p_j(x)) / E[p_j(X)(1 - p_j(X))]``, normalized to
  mean one, which up-weight strata with propensities near one half;
* ``oracle_wate``: the variance-weighted mean effect
  ``E[gamma_j(X) tau_j(X)]``, the probability limit of the
  residual-on-residual regression coefficient;
* ``oracle_decomposition``: the additive split
  ``WATE = ATE + Cov(tau_j(X), gamma_j(X))``.

Sampling is deterministic given ``(dgp, n, seed)`` and uses separate Philox
substreams for the stratum draw, treatment draw, and outcome noise.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from . import rng

PROB_TOL = 1e-12


class OverlapError(ValueError):
    """Raised when a propensity table violates strict overlap."""


def code_positions(known: NDArray, codes: NDArray) -> NDArray[np.int64]:
    """Position in ``known`` (distinct stratum codes) of each of ``codes``.

    Codes are truncated to integers first; the first code not in ``known``
    raises ``ValueError("unknown stratum code ...")``.
    """
    codes = np.asarray(codes).ravel().astype(np.int64, copy=False)
    order = np.argsort(known)
    sorted_known = np.asarray(known, dtype=np.int64)[order]
    pos = np.searchsorted(sorted_known, codes)
    found = pos < sorted_known.size
    found[found] = sorted_known[pos[found]] == codes[found]
    if not found.all():
        raise ValueError(f"unknown stratum code {int(codes[np.argmin(found)])}")
    return order[pos]


class AssignmentMode(str, Enum):
    """How treatment indicators are generated.

    PARALLEL_BINARY draws each treatment indicator independently from its own
    marginal propensity; a unit may receive several treatments, and their
    effects enter the outcome additively. MULTINOMIAL draws a single arm per
    unit, with control receiving the leftover probability mass.
    """

    PARALLEL_BINARY = "parallel_binary"
    MULTINOMIAL = "multinomial"


@dataclass(frozen=True, eq=False)
class StratifiedDGP:
    """Data-generating process on discrete covariate strata.

    Parameters
    ----------
    strata : tuple of (int, float)
        ``(stratum_code, probability)`` pairs; probabilities sum to one.
    num_treatments : int
        Number of treatments ``K``; treatment indices run 1..K and 0 denotes
        control.
    propensity : ndarray of shape (K, S)
        ``propensity[j-1, s]`` is ``p_j(x_s)``, strictly inside (0, 1).
    effect : ndarray of shape (K, S)
        ``effect[j-1, s]`` is ``tau_j(x_s)``.
    baseline : ndarray of shape (S,)
        Control-arm outcome mean ``mu0(x_s)``.
    noise_sd : float
        Standard deviation of the additive Gaussian outcome noise.
    assignment_mode : AssignmentMode
        Treatment assignment scheme; under MULTINOMIAL the per-stratum
        propensities must sum to strictly less than one.
    """

    strata: tuple[tuple[int, float], ...]
    num_treatments: int
    propensity: NDArray[np.float64]
    effect: NDArray[np.float64]
    baseline: NDArray[np.float64]
    noise_sd: float = 1.0
    assignment_mode: AssignmentMode = AssignmentMode.PARALLEL_BINARY

    def __post_init__(self) -> None:
        strata = tuple((int(s), float(p)) for s, p in self.strata)
        object.__setattr__(self, "strata", strata)
        for name in ("propensity", "effect", "baseline"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "assignment_mode", AssignmentMode(self.assignment_mode))

        S = len(strata)
        K = self.num_treatments
        if K < 1:
            raise ValueError(f"num_treatments must be >= 1, got {K}")
        if S < 1:
            raise ValueError("at least one stratum is required")
        codes = [s for s, _ in strata]
        if len(set(codes)) != S:
            raise ValueError(f"duplicate stratum codes: {codes}")
        probs = np.array([p for _, p in strata])
        if np.any(probs < 0):
            raise ValueError("stratum probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError(
                f"stratum probabilities must sum to 1 within {PROB_TOL}, got {probs.sum()!r}"
            )
        if self.propensity.shape != (K, S):
            raise ValueError(
                f"propensity table must have shape ({K}, {S}), got {self.propensity.shape}"
            )
        if self.effect.shape != (K, S):
            raise ValueError(f"effect table must have shape ({K}, {S}), got {self.effect.shape}")
        if self.baseline.shape != (S,):
            raise ValueError(f"baseline must have shape ({S},), got {self.baseline.shape}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if np.any(self.propensity <= 0.0) or np.any(self.propensity >= 1.0):
            raise OverlapError("all propensities must lie strictly in (0, 1)")
        if self.assignment_mode is AssignmentMode.MULTINOMIAL:
            totals = self.propensity.sum(axis=0)
            if np.any(totals >= 1.0):
                raise OverlapError(
                    "multinomial arm propensities must sum to < 1 in every stratum "
                    f"(control mass is the remainder); got column sums {totals}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratifiedDGP):
            return NotImplemented
        return (
            self.strata == other.strata
            and self.num_treatments == other.num_treatments
            and np.array_equal(self.propensity, other.propensity)
            and np.array_equal(self.effect, other.effect)
            and np.array_equal(self.baseline, other.baseline)
            and self.noise_sd == other.noise_sd
            and self.assignment_mode is other.assignment_mode
        )

    @property
    def num_strata(self) -> int:
        return len(self.strata)

    @property
    def stratum_codes(self) -> NDArray[np.int64]:
        return np.array([s for s, _ in self.strata], dtype=np.int64)

    @property
    def stratum_probs(self) -> NDArray[np.float64]:
        return np.array([p for _, p in self.strata], dtype=np.float64)

    def stratum_index(self, codes: NDArray) -> NDArray[np.int64]:
        """Map stratum codes to row positions of the tables."""
        return code_positions(self.stratum_codes, codes)

    def _check_treatment(self, j: int) -> int:
        if not 1 <= j <= self.num_treatments:
            raise ValueError(f"treatment index must be in 1..{self.num_treatments}, got {j}")
        return int(j)


@dataclass(frozen=True)
class OracleQuantities:
    """Closed-form estimands of one treatment: ATE, WATE, and their gap."""

    treatment: int
    ate: float
    wate: float
    cov_tau_gamma: float
    gamma: NDArray[np.float64]


class StratumGroups:
    """Units grouped by their stratum codes.

    ``codes`` holds the distinct codes that occur, in ascending order, and
    ``position`` (the shape of the codes) is each unit's index into
    ``codes``. For a block of datasets ``codes`` covers every row, so a code
    may be absent from some rows.
    """

    def __init__(self, codes: NDArray[np.int64], position: NDArray[np.intp]):
        self.codes, self.position = codes, position

    @classmethod
    def of_codes(cls, x: NDArray[np.int64]) -> "StratumGroups":
        """Group by sorting the codes."""
        codes, position = np.unique(x, return_inverse=True)
        return cls(codes, position.reshape(x.shape))

    @classmethod
    def of_index(cls, levels: NDArray[np.int64], index: NDArray[np.intp]) -> "StratumGroups":
        """Group units whose codes are ``levels[index]``, without sorting them.

        ``levels`` are distinct codes in any order, some perhaps unused; the
        result equals ``of_codes(levels[index])``.
        """
        S = levels.shape[0]
        order = np.argsort(levels, kind="stable")
        if np.any(order != np.arange(S)):
            rank = np.empty(S, dtype=np.intp)
            rank[order] = np.arange(S)
            index = np.take(rank, index)
        present = np.bincount(index.ravel(), minlength=S) > 0
        if not present.all():
            index = np.take(np.cumsum(present) - 1, index)
        return cls(np.take(levels, order[present]), index)


@dataclass(eq=False)
class Dataset:
    """Sampled units: outcome, treatment indicator matrix, stratum codes.

    ``w`` has one 0/1 column per treatment. Under MULTINOMIAL assignment the
    rows are one-hot (all-zero rows are control units). The arrays are not
    modified after construction: the stratum grouping is computed once and
    shared by every fit.

    A *block* of datasets, all of ``n`` units, stacks them along a leading
    axis: ``y`` and ``x`` are ``(B, n)`` and ``w`` is ``(B, n, K)``. Fits and
    estimators work along the unit axis, so row ``b`` of their output is
    that of :meth:`replicate` ``(b)``. ``groups`` passes a stratum grouping
    already known (the sampler's); without it one is made from ``x``.
    """

    y: NDArray[np.float64]
    w: NDArray[np.int8]
    x: NDArray[np.int64]
    assignment_mode: AssignmentMode = AssignmentMode.PARALLEL_BINARY
    groups: InitVar[StratumGroups | None] = None

    def __post_init__(self, groups: StratumGroups | None) -> None:
        self.y = np.asarray(self.y, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.int8)
        self.x = np.asarray(self.x, dtype=np.int64)
        self.assignment_mode = AssignmentMode(self.assignment_mode)
        if self.y.ndim not in (1, 2) or not self.w.shape[:-1] == self.y.shape == self.x.shape:
            raise ValueError("y and x must share one shape, and w must add a treatment axis to it")
        self._strata = groups
        if self.assignment_mode is AssignmentMode.MULTINOMIAL and np.any(_column_total(self.w) > 1):
            raise ValueError("multinomial datasets must have mutually exclusive arms")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.w, other.w)
            and np.array_equal(self.x, other.x)
            and self.assignment_mode is other.assignment_mode
        )

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def num_treatments(self) -> int:
        return self.w.shape[-1]

    @property
    def strata(self) -> StratumGroups:
        """The units grouped by stratum code."""
        if self._strata is None:
            self._strata = StratumGroups.of_codes(self.x)
        return self._strata

    def replicate(self, b: int) -> "Dataset":
        """Row ``b`` of a block, as a dataset of its own."""
        groups = self.strata
        return Dataset(self.y[b], self.w[b], self.x[b], self.assignment_mode,
                       StratumGroups.of_index(groups.codes, groups.position[b]))

    @property
    def arm(self) -> NDArray[np.int64]:
        """Per-unit arm label (0 = control); only meaningful under MULTINOMIAL."""
        if self.assignment_mode is not AssignmentMode.MULTINOMIAL:
            raise ValueError("arm labels are only defined for multinomial datasets")
        return _column_total(self.w, np.arange(1, self.num_treatments + 1))


def _column_total(w: NDArray, scale: NDArray | None = None) -> NDArray[np.int64]:
    """Sums over the last axis of the int8 ``w`` (columns scaled by ``scale``), in int64.

    Equal to ``(w * scale).sum(axis=-1)``; adding column by column is several
    times faster than numpy's reduction over a short inner axis.
    """
    total = np.zeros(w.shape[:-1], dtype=np.int64)
    for k in range(w.shape[-1]):
        total += w[..., k] if scale is None else np.multiply(w[..., k], scale[k], dtype=np.int64)
    return total


def oracle_weights(dgp: StratifiedDGP, j: int) -> NDArray[np.float64]:
    """Per-stratum regression weights for treatment ``j``.

    ``gamma_j(x) = p_j(x)(1 - p_j(x)) / sum_x Pr(x) p_j(x)(1 - p_j(x))``; the
    probability-weighted mean of the result is one.
    """
    j = dgp._check_treatment(j)
    p = dgp.propensity[j - 1]
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise OverlapError(f"treatment {j} has degenerate propensities: {p}")
    variance = p * (1.0 - p)
    return variance / float(dgp.stratum_probs @ variance)


def oracle_ate(dgp: StratifiedDGP, j: int) -> float:
    """Average treatment effect of ``j``: ``sum_x Pr(x) tau_j(x)``."""
    return oracle_decomposition(dgp, j).ate


def oracle_wate(dgp: StratifiedDGP, j: int) -> float:
    """Weighted ATE of ``j``: ``sum_x Pr(x) gamma_j(x) tau_j(x)``."""
    return oracle_decomposition(dgp, j).wate


def decomposition_terms(
    probs: NDArray[np.float64], tau: NDArray[np.float64], gamma: NDArray[np.float64]
) -> tuple[float, float, float]:
    """``(ate, wate, cov)`` of per-stratum effects ``tau`` and weights ``gamma``.

    ``ate = E[tau]`` and ``wate = E[gamma tau]`` under the stratum
    distribution ``probs``. The covariance term is evaluated as
    ``E[gamma tau] - E[gamma] E[tau]`` rather than as ``wate - ate``, so the
    additive identity is a genuine cross-check instead of a tautology.
    """
    ate = float(probs @ tau)
    wate = float(probs @ (gamma * tau))
    cov = float(probs @ (gamma * tau)) - float(probs @ gamma) * ate
    return ate, wate, cov


def oracle_decomposition(dgp: StratifiedDGP, j: int) -> OracleQuantities:
    """ATE, WATE, and their covariance gap (see :func:`decomposition_terms`)."""
    j = dgp._check_treatment(j)
    gamma = oracle_weights(dgp, j)
    ate, wate, cov = decomposition_terms(dgp.stratum_probs, dgp.effect[j - 1], gamma)
    return OracleQuantities(treatment=j, ate=ate, wate=wate, cov_tau_gamma=cov, gamma=gamma)


def sample(dgp: StratifiedDGP, n: int, seed: int | Sequence[int]) -> Dataset:
    """Draw ``n`` units from the DGP, deterministically in ``(dgp, n, seed)``.

    The stratum draw, treatment draw, and outcome noise each consume their own
    substream, so enlarging one table never perturbs the others' draws.

    A sequence of ``B`` seeds draws a block of ``B`` datasets (see
    :class:`Dataset`): each seed's streams fill one row of the ``(B, n)``
    draws, every later step is elementwise, and row ``b`` is bit for bit
    ``sample(dgp, n, seed[b])``. The stratum index of the draw is kept as the
    block's stratum grouping, so the codes are never sorted.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    B, K = len(seeds), dgp.num_treatments
    # every seed's three streams, keyed in one pass: B stratum streams, then
    # B treatment streams, then B noise streams
    tags = (rng.STRATUM, rng.TREATMENT, rng.NOISE)
    streams = rng.substreams(seeds * len(tags), [t for t in tags for _ in seeds])
    parallel = dgp.assignment_mode is AssignmentMode.PARALLEL_BINARY
    # the B datasets are one axis of B * n units; each draw is made as late
    # as a single dataset would make it, so no draw is held longer
    cum = np.cumsum(dgp.stratum_probs)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, _uniforms(streams, B, n).reshape(-1), side="right")
    # np.take gathers the same values as fancy indexing; along axis 1 of the
    # (K, S) tables it is several times faster
    x = np.take(dgp.stratum_codes, idx)

    p = np.take(dgp.propensity, idx, axis=1)  # (K, B * n)
    if parallel:
        # treatment k's indicators, (K, B * n); w is a (B, n, K) view of them
        treated = np.empty((K, B, n), dtype=np.int8)
        np.less(_uniforms(streams, B, K, n).transpose(1, 0, 2), p.reshape(K, B, n),
                out=treated)
        w = treated.transpose(1, 2, 0)
        treated = treated.reshape(K, -1)
    else:
        arm_cum = np.cumsum(p, axis=0)  # (K, B * n)
        # draws past all K arms -> control
        below = np.sum(_uniforms(streams, B, n).reshape(-1) >= arm_cum, axis=0)
        arm = np.where(below < K, below + 1, 0)
        w = np.zeros((B * n, K), dtype=np.int8)
        units = np.flatnonzero(arm)
        w[units, arm[units] - 1] = 1
        treated = w.T
        w = w.reshape(B, n, K)

    # (K, B * n) rows summed in treatment order
    effects = np.take(dgp.effect, idx, axis=1)
    effects *= treated
    y = np.take(dgp.baseline, idx) + effects.sum(axis=0)
    y, x, idx = y.reshape(B, n), x.reshape(B, n), idx.reshape(B, n)
    if dgp.noise_sd > 0:
        for row, gen in zip(y, streams):
            row += gen.normal(0.0, dgp.noise_sd, size=n)
    if single:
        y, w, x, idx = y[0], w[0], x[0], idx[0]
    groups = StratumGroups.of_index(dgp.stratum_codes, idx)
    return Dataset(y=y, w=w, x=x, assignment_mode=dgp.assignment_mode, groups=groups)


def _uniforms(streams: Iterator[np.random.Generator], B: int, *shape: int) -> NDArray[np.float64]:
    """Uniform draws of ``shape`` from each of the next ``B`` streams, one row per stream."""
    out = np.empty((B,) + shape)
    for row, gen in zip(out, streams):
        gen.random(out=row)
    return out


def random_dgp(
    seed: int | np.random.Generator,
    num_treatments: int = 2,
    min_strata: int = 2,
    max_strata: int = 10,
    propensity_range: tuple[float, float] = (0.01, 0.99),
    effect_range: tuple[float, float] = (-3.0, 3.0),
    noise_sd: float = 1.0,
    assignment_mode: AssignmentMode = AssignmentMode.PARALLEL_BINARY,
) -> StratifiedDGP:
    """Draw a random DGP with uniform tables; useful for property sweeps."""
    gen = seed if isinstance(seed, np.random.Generator) else rng.substream(seed)
    S = int(gen.integers(min_strata, max_strata + 1))
    K = num_treatments
    probs = gen.dirichlet(np.ones(S))
    probs = probs / probs.sum()
    lo, hi = propensity_range
    propensity = gen.uniform(lo, hi, size=(K, S))
    if assignment_mode is AssignmentMode.MULTINOMIAL:
        # scale columns so arm masses leave room for control
        totals = propensity.sum(axis=0)
        scale = np.minimum(1.0, 0.9 / totals)
        propensity = np.maximum(propensity * scale, lo)
    effect = gen.uniform(effect_range[0], effect_range[1], size=(K, S))
    baseline = gen.uniform(-1.0, 1.0, size=S)
    return StratifiedDGP(
        strata=tuple((i, float(p)) for i, p in enumerate(probs)),
        num_treatments=K,
        propensity=propensity,
        effect=effect,
        baseline=baseline,
        noise_sd=noise_sd,
        assignment_mode=assignment_mode,
    )

