"""Discrete-strata data-generating processes and their closed-form estimands.

A :class:`StratifiedDGP` lives on a finite set of covariate strata and is
fully described by tables: stratum probabilities, per-treatment propensity
scores ``p_j(x)``, per-treatment effects ``tau_j(x)``, and a baseline outcome
mean ``mu0(x)``. Because everything is tabular, the estimands that the
estimators chase are available in closed form:

* ``oracle_ate``: the unweighted mean effect ``E[tau_j(X)]``;
* ``oracle_weights``: the regression weights ``gamma_j(x) = v_j(x) / E[v_j(X)]``,
  normalized to mean one, with ``v_j`` the ``regression_variance``:
  ``p_j(1 - p_j)``, or ``p_j p_0 / (p_j + p_0)`` under MULTINOMIAL;
* ``oracle_wate``: the variance-weighted mean effect
  ``E[gamma_j(X) tau_j(X)]``, the probability limit of the
  residual-on-residual regression coefficient.

:func:`treatrank.diagnostics.oracle_report` gives the split
``WATE = ATE + Cov(tau_j(X), gamma_j(X))``, bit for bit these.

Sampling is deterministic given ``(dgp, n, seed)`` and uses separate Philox
streams of the seed for the stratum draw, treatment draw, and outcome noise.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import rng

PROB_TOL = 1e-12
PATTERN_TREATMENTS = 4  # parallel treatments keyed together: 2**4 base cells per chunk


class OverlapError(ValueError):
    """Raised when a propensity table violates strict overlap."""


CODE_BOUND = 2**53  # float64 holds each integer in (-2**53, 2**53) apart from its neighbours
# The most arms a multinomial design takes. A dataset file's largest arm
# label sets the width of the n x K int8 indicator matrix it is read into,
# so without a cap one label of 2**40 asks for a terabyte a row. At 64 the
# matrix is at most 64 bytes a row, about what the reader spends a row
# besides; and since the arms' propensities sum below one, more arms
# would get under 1/64 of the units each, on average.
MAX_ARMS = 64


def exact_codes(values: NDArray) -> bool:
    """Whether every value is a stratum code or label that int64 holds exactly.

    Any value of a signed integer or bool array is; of any other array,
    an integer in (-2**53, 2**53). Past that a float64 no longer tells
    neighbouring integers apart (2**53 + 1 reads as 2**53), so two codes
    could be one. NaN and infinities are not; a cast to int64 would turn
    them, and values out of range, into one wrapped or saturated code.
    """
    if values.dtype.kind in "bi" or values.size == 0:
        return True
    return bool(values.min() > -CODE_BOUND and values.max() < CODE_BOUND
                and np.all(values == np.round(values)))


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
        ``(stratum_code, probability)`` pairs; probabilities sum to one, and
        codes are in (-2**53, 2**53), which a dataset file reads back exactly.
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

    The tables are kept as read-only copies.
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
            # a read-only copy: the tables ``sample`` derives from these are cached
            table = np.array(getattr(self, name), dtype=np.float64)
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        object.__setattr__(self, "assignment_mode", AssignmentMode(self.assignment_mode))

        S = len(strata)
        K = self.num_treatments
        if K < 1:
            raise ValueError(f"num_treatments must be >= 1, got {K}")
        if self.assignment_mode is AssignmentMode.MULTINOMIAL and K > MAX_ARMS:
            raise ValueError(f"multinomial assignment takes at most {MAX_ARMS} arms, got {K}")
        if S < 1:
            raise ValueError("at least one stratum is required")
        codes = [s for s, _ in strata]
        if len(set(codes)) != S:
            raise ValueError(f"duplicate stratum codes: {codes}")
        if not all(-CODE_BOUND < c < CODE_BOUND for c in codes):
            # a dataset file would read two such codes back as one
            raise ValueError(f"stratum codes must be integers in (-2**53, 2**53), got {codes}")
        probs = np.array([p for _, p in strata])
        if not np.all(np.isfinite(probs) & (probs >= 0)):
            raise ValueError(f"stratum probabilities must be finite and non-negative, got {probs}")
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
        for name in ("effect", "baseline"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} table must be finite, got {getattr(self, name)}")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        # a NaN propensity fails both comparisons
        if not np.all((self.propensity > 0.0) & (self.propensity < 1.0)):
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

    @cached_property
    def _sampling(self) -> "_SamplerTables":
        """The tables ``sample`` reads, derived once per DGP."""
        return _sampler_tables(self)

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


class StratumGroups:
    """Units grouped by their stratum codes.

    ``codes`` holds distinct codes in ascending order that cover every unit,
    and ``position`` (the shape of the codes) is each unit's index into
    ``codes``. A code may have no units: a sampled dataset keeps its DGP's
    stratum list, and a block's codes cover every row.
    """

    def __init__(self, codes: NDArray[np.int64], position: NDArray[np.intp]):
        self.codes, self.position = codes, position

    @classmethod
    def of_codes(cls, x: NDArray[np.int64]) -> "StratumGroups":
        """Group by sorting the codes; only codes that occur are kept."""
        codes, position = np.unique(x, return_inverse=True)
        return cls(codes, position.reshape(x.shape))


@dataclass(eq=False)
class Dataset:
    """Sampled units: outcome, treatment indicator matrix, stratum codes.

    ``w`` has one 0/1 column per treatment, and at least one column. Under
    MULTINOMIAL assignment the rows are one-hot (all-zero rows are control
    units). Any other indicator, and a stratum code that is not an integer
    in (-2**53, 2**53) (any code of an integer array is), raises
    ``ValueError``. The arrays are not modified after construction: the
    stratum grouping is computed once and shared by every fit.

    A *block* of datasets, all of ``n`` units, stacks them along a leading
    axis: ``y`` and ``x`` are ``(B, n)`` and ``w`` is ``(B, n, K)``. Fits and
    estimators work along the unit axis, so row ``b`` of their output is
    that of :meth:`replicate` ``(b)``. ``groups`` passes a stratum grouping
    already known (the sampler's), and ``keys`` the units'
    :attr:`cell_keys` under it; without them both are made from ``x`` and
    ``w`` when asked for.
    """

    y: NDArray[np.float64]
    w: NDArray[np.int8]
    x: NDArray[np.int64]
    assignment_mode: AssignmentMode = AssignmentMode.PARALLEL_BINARY
    groups: InitVar[StratumGroups | None] = None
    keys: InitVar[NDArray[np.signedinteger] | None] = None

    def __post_init__(self, groups: StratumGroups | None,
                      keys: NDArray[np.signedinteger] | None) -> None:
        w, x = np.asarray(self.w), np.asarray(self.x)
        # checked before the casts, which would truncate 0.7 or 0.5 to 0
        if np.any((w != 0) & (w != 1)):
            raise ValueError("treatment indicators must be 0/1")
        if not exact_codes(x):
            raise ValueError("stratum codes must be integers in (-2**53, 2**53)")
        self.y = np.asarray(self.y, dtype=np.float64)
        self.w = w.astype(np.int8, copy=False)
        self.x = x.astype(np.int64, copy=False)
        self.assignment_mode = AssignmentMode(self.assignment_mode)
        if self.y.ndim not in (1, 2) or not self.w.shape[:-1] == self.y.shape == self.x.shape:
            raise ValueError("y and x must share one shape, and w must add a treatment axis to it")
        if self.w.shape[-1] == 0:
            raise ValueError("w must have at least one treatment column")
        self._strata = groups
        self._cell_keys = keys
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

    @property
    def cell_keys(self) -> NDArray[np.signedinteger]:
        """Each unit's base cell times the number of strata, plus its stratum position.

        Shaped ``(chunks,) + y.shape``: a unit has one base cell per chunk
        of ``cell_layout(assignment_mode, num_treatments)``, whose
        ``num_cells`` sets the key type, the smallest signed integer type
        that holds every key. The stratum position is the unit's index into
        ``strata.codes``. ``nuisance.cell_table`` keys its units by these.
        ``sample`` passes the ones it drew by; other datasets derive them on
        each call.
        """
        if self._cell_keys is not None:
            return self._cell_keys
        arm = self.arm if self.assignment_mode is AssignmentMode.MULTINOMIAL else None
        return _cell_keys(self.w, arm, self.strata.position, self.strata.codes.shape[0])

    def replicate(self, b: int) -> "Dataset":
        """Row ``b`` of a block, as a dataset of its own."""
        groups = self.strata
        return Dataset(self.y[b], self.w[b], self.x[b], self.assignment_mode,
                       StratumGroups(groups.codes, groups.position[b]),
                       None if self._cell_keys is None else self._cell_keys[:, b])

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


class CellLayout(NamedTuple):
    """The base cells of a design, as ``cell_layout`` gives them."""

    indicators: NDArray[np.int8]  # (cells of the first chunk, its treatments): 1 where taken
    num_cells: int
    sides: tuple[tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.intp]], ...]

    @property
    def every(self) -> NDArray[np.intp]:
        """The first chunk's base cells, which hold every unit once."""
        return np.arange(self.indicators.shape[0])


@lru_cache(maxsize=32)
def cell_layout(mode: AssignmentMode, K: int) -> CellLayout:
    """The base cells of a design with ``K`` treatments: the one place that decides them.

    MULTINOMIAL: a unit's base cell is its arm, 0 for control, in one chunk.
    PARALLEL_BINARY: the treatments are keyed in chunks of at most
    ``PATTERN_TREATMENTS``, and a unit's base cell in a chunk is its pattern
    of those treatments (treatment ``first + i`` adds ``2**i``), plus
    ``2**PATTERN_TREATMENTS`` per earlier chunk. ``num_cells`` is one past
    the last base cell. ``indicators[c, i]`` is 1 where base cell ``c`` of
    the first chunk takes the chunk's treatment ``i`` (under MULTINOMIAL,
    row ``a`` is arm ``a``'s indicator vector). ``sides[j - 1]`` holds
    treatment ``j``'s treated, control and other base cells in its chunk,
    each ascending and read-only: the treated cells take ``j``, the control
    cells do not (PARALLEL_BINARY) or are arm 0 (MULTINOMIAL), and the
    other arms are in neither.
    """
    parallel = mode is AssignmentMode.PARALLEL_BINARY
    if parallel:
        width = min(K, PATTERN_TREATMENTS)
        indicators = (np.arange(1 << width)[:, None] >> np.arange(width) & 1).astype(np.int8)
    else:
        width = K
        indicators = np.eye(K + 1, K, k=-1, dtype=np.int8)  # arm a takes treatment a
    sides = []
    for chunk, first in enumerate(range(0, K, width)):
        t = min(width, K - first)
        # a later chunk's patterns are the first chunk's first 2**t, on their first t columns
        taken = indicators[: 1 << t, :t] if parallel else indicators
        offset = chunk << PATTERN_TREATMENTS
        for i in range(t):
            treated = taken[:, i] == 1
            control = ~treated if parallel else ~taken.any(axis=1)
            sides.append(tuple(offset + np.flatnonzero(cells)
                               for cells in (treated, control, ~(treated | control))))
    for array in (indicators, *(cells for side in sides for cells in side)):
        array.flags.writeable = False
    return CellLayout(indicators, offset + taken.shape[0], tuple(sides))


def _cell_keys(w: NDArray[np.int8], arm: NDArray | None, position: NDArray,
               S: int) -> NDArray[np.signedinteger]:
    """``Dataset.cell_keys`` of indicators ``w`` (or, under MULTINOMIAL, of the ``arm`` labels)."""
    K = w.shape[-1]
    mode = AssignmentMode.PARALLEL_BINARY if arm is None else AssignmentMode.MULTINOMIAL
    dtype = np.min_scalar_type(-cell_layout(mode, K).num_cells * S)  # holds every key
    if arm is not None:
        keys = np.multiply(arm, S, dtype=dtype)[None]
        keys[0] += position
        return keys
    keys = np.empty((-(-K // PATTERN_TREATMENTS),) + position.shape, dtype=dtype)
    for chunk, first in enumerate(range(0, K, PATTERN_TREATMENTS)):
        pattern = w[..., first].copy()  # int8: a pattern is below 2**PATTERN_TREATMENTS
        for i in range(1, min(PATTERN_TREATMENTS, K - first)):
            pattern += w[..., first + i] << i
        np.multiply(pattern, S, out=keys[chunk], dtype=dtype)
        keys[chunk] += position
        if chunk:
            keys[chunk] += (chunk << PATTERN_TREATMENTS) * S
    return keys


def regression_variance(dgp: StratifiedDGP, j: int) -> NDArray[np.float64]:
    """Per stratum, the variance of ``j``'s treatment residual in the residual regression.

    ``p_j(1 - p_j)``; under MULTINOMIAL the regression takes the {0, j}
    units, a share ``p_j + p_0`` treated with probability ``q = p_j / (p_j + p_0)``
    (``p_0 = 1 - sum_k p_k``), so ``(p_j + p_0) q (1 - q) = p_j p_0 / (p_j + p_0)``.
    """
    p = dgp.propensity[dgp._check_treatment(j) - 1]
    if dgp.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        return p * (1.0 - p)
    p_0 = 1.0 - dgp.propensity.sum(axis=0)
    return p * p_0 / (p + p_0)


def oracle_weights(dgp: StratifiedDGP, j: int) -> NDArray[np.float64]:
    """Per-stratum regression weights for treatment ``j``.

    ``gamma_j(x) = v_j(x) / sum_x Pr(x) v_j(x)``, ``v_j`` the ``regression_variance``;
    the probability-weighted mean of the result is one.
    """
    variance = regression_variance(dgp, j)
    return variance / float(dgp.stratum_probs @ variance)


def oracle_ate(dgp: StratifiedDGP, j: int) -> float:
    """Average treatment effect of ``j``: ``sum_x Pr(x) tau_j(x)``."""
    gamma = oracle_weights(dgp, j)  # checks j
    return decomposition_terms(dgp.stratum_probs, dgp.effect[j - 1], gamma)[0]


def oracle_wate(dgp: StratifiedDGP, j: int) -> float:
    """Weighted ATE of ``j``: ``sum_x Pr(x) gamma_j(x) tau_j(x)``."""
    gamma = oracle_weights(dgp, j)  # checks j
    return decomposition_terms(dgp.stratum_probs, dgp.effect[j - 1], gamma)[1]


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


class _SamplerTables(NamedTuple):
    """A DGP's tables as ``sample`` reads them, strata in ascending code order."""

    codes: NDArray[np.int64]
    rank: NDArray[np.intp]  # each stratum's place in ``codes``
    cum: NDArray[np.float64]  # cumulative stratum probabilities, in the DGP's order; last 1
    propensity: NDArray[np.float64]  # (K, S); under MULTINOMIAL, cumulated over the arms
    means: NDArray[np.float64]  # (cells, S): see _sampler_tables
    effect: NDArray[np.float64]  # (K, S)
    baseline: NDArray[np.float64]  # (S,)


def _sampler_tables(dgp: StratifiedDGP) -> _SamplerTables:
    """The tables ``sample`` gathers from, with each unit's outcome mean per base cell.

    ``means[c, s]`` is the outcome mean of a unit of stratum ``s`` in base
    cell ``c`` of the first chunk (see ``cell_layout``), computed as
    a unit's is: the products ``effect * indicator`` summed in treatment
    order from zero, then the baseline added. When the first chunk does not
    hold every treatment (over ``PATTERN_TREATMENTS`` parallel ones),
    ``means`` stops before the baseline, and ``sample`` adds each later
    treatment's product per unit, then the baseline.
    """
    order = np.argsort(dgp.stratum_codes)
    cum = np.cumsum(dgp.stratum_probs)
    cum[-1] = 1.0
    effect, baseline = dgp.effect[:, order], dgp.baseline[order]
    if dgp.assignment_mode is AssignmentMode.MULTINOMIAL:
        propensity = np.cumsum(dgp.propensity[:, order], axis=0)
    else:
        propensity = dgp.propensity[:, order]
    indicators = cell_layout(dgp.assignment_mode, dgp.num_treatments).indicators
    means = np.zeros((indicators.shape[0], order.shape[0]))
    for k, column in enumerate(indicators.T):
        means += effect[k] * column[:, None]
    if indicators.shape[1] == dgp.num_treatments:
        means = baseline + means
    return _SamplerTables(dgp.stratum_codes[order], np.argsort(order), cum, propensity, means,
                          effect, baseline)


def _stratum_index(cum: NDArray[np.float64], u: NDArray[np.float64]) -> NDArray[np.unsignedinteger]:
    """``np.searchsorted(cum, u, side="right")``: the number of entries of ``cum`` at most ``u``.

    Counted one pass per entry, in the smallest unsigned type that holds
    the count. Over 10,000 draws on a 2-vCPU VM this takes 13 us against
    binary search's 106 us at 2 strata and 388 against 583 us at 64, but
    754 against 725 us at 128; over a few hundred draws binary search is
    the faster at any number of strata. The Monte Carlo draws whole
    blocks, and no preset or benchmark design has more than 24 strata.
    """
    # u < 1 = cum[-1], so the last entry never counts
    count = np.zeros(u.shape, dtype=np.min_scalar_type(cum.shape[0] - 1))
    reached = np.empty(u.shape, dtype=bool)
    for edge in cum[:-1]:
        np.greater_equal(u, edge, out=reached)
        count += reached
    return count


def sample(dgp: StratifiedDGP, n: int, seed: int | Sequence[int] | rng.Streams) -> Dataset:
    """Draw ``n`` units from the DGP, deterministically in ``(dgp, n, seed)``.

    The stratum draw, treatment draw, and outcome noise each consume their own
    stream of the seed, ``STRATUM``, ``TREATMENT`` and ``NOISE``, so
    enlarging one table never perturbs the others' draws. A seed is any int
    in [0, 2**120), whose streams ``rng`` keys by laying out the seed and
    the tag; replicate ``r`` of a Monte Carlo study with seed ``s`` is the
    dataset of ``rng.child_seed(s, r, 0)``.

    A sequence of ``B`` seeds draws a block of ``B`` datasets (see
    :class:`Dataset`): each seed's streams fill one row of the ``(B, n)``
    draws, every later step is elementwise, and row ``b`` is bit for bit
    ``sample(dgp, n, seed[b])``. The seeds' three streams ``STRATUM``,
    ``TREATMENT`` and ``NOISE``, keyed by ``rng.streams(seeds, rng.SAMPLE_TAGS)``,
    may stand in for them; streams of other tags are refused.

    The units are grouped on the DGP's stratum codes in ascending order,
    some perhaps without units, through the stratum index of the draw, so
    the codes of the units are never sorted. The sampler also keeps each
    unit's cell-table keys (``Dataset.cell_keys``), and gathers each unit's
    outcome mean by them from a table per base cell and stratum; the table
    repeats a unit's own float operations, so ``y`` is what a per-unit sum
    would give, bit for bit.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    single = isinstance(seed, (int, np.integer))
    streams = rng.as_streams(seed, rng.SAMPLE_TAGS)
    B, K = len(streams), dgp.num_treatments
    tables = dgp._sampling
    S = tables.codes.shape[0]
    position = tables.rank.take(
        _stratum_index(tables.cum, _uniforms(streams.generators(rng.STRATUM), B, n)))
    x = tables.codes.take(position)
    treatment = streams.generators(rng.TREATMENT)
    if dgp.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        # treatment k's indicators, (K, B, n); w is a (B, n, K) view of them
        treated = np.empty((K, B, n), dtype=np.int8)
        u = _uniforms(treatment, B, K, n)
        for k in range(K):
            np.less(u[:, k], tables.propensity[k].take(position), out=treated[k])
        w = treated.transpose(1, 2, 0)
        arm = None
    else:
        # draws past all K arms -> control
        u = _uniforms(treatment, B, n)
        below = np.zeros((B, n), dtype=np.intp)
        for k in range(K):
            below += u >= tables.propensity[k].take(position)
        arm = np.where(below < K, below + 1, 0)
        w = np.equal.outer(arm, np.arange(1, K + 1)).astype(np.int8)
    keys = _cell_keys(w, arm, position, S)
    y = tables.means.take(keys[0])
    if arm is None and K > PATTERN_TREATMENTS:
        # the later treatments' products, in treatment order, then the baseline
        for k in range(PATTERN_TREATMENTS, K):
            y += tables.effect[k].take(position) * treated[k]
        y = tables.baseline.take(position) + y
    if dgp.noise_sd > 0:
        for row, gen in zip(y, streams.generators(rng.NOISE)):
            row += gen.normal(0.0, dgp.noise_sd, size=n)
    groups = StratumGroups(tables.codes, position[0] if single else position)
    return Dataset(y=y[0] if single else y, w=w[0] if single else w, x=x[0] if single else x,
                   assignment_mode=dgp.assignment_mode, groups=groups,
                   keys=keys[:, 0] if single else keys)


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

