"""Cross-fitted nuisance estimation on discrete strata.

The estimators need two kinds of conditional expectations: outcome
regressions ``E[Y | X]`` (pooled, per arm and, under multinomial assignment,
on each {control, j} subsample) and propensities ``E[W | X]``. Everything is
fit fold-wise: a unit's prediction always comes from models trained on the
other folds.

Because ``X`` is a stratum code, every learner is a function of a small
table, built in two steps. ``cell_table`` keys every unit by its *base
cell* (its pattern of treatments, or its arm), dataset, fold and stratum
and gives each base cell's held-out count, sum of ``y`` and centred sum of
squares (a ``CellTable``). ``fit_table`` reads only that table: it adds
base cells into each target's training counts and sums per (dataset,
fold, stratum), and each target's learner maps them to a (dataset, fold,
stratum) table of predictions. A fit is those prediction tables and the
cell table; no prediction is copied out to the units. ``fit_crossfit`` is
the two steps in turn.

Three learners are available. ``STRATUM_MEAN`` is the saturated
nonparametric estimator (within-cell training means) and is exact for the
discrete designs in this package. ``LINEAR_RIDGE`` and ``LOGISTIC_RIDGE``
fit penalized linear/logistic models on a basis expansion of the stratum
code, solved on the table with each stratum row weighted by its count
(closed-form normal equations, Newton iterations).

Exactness rule: ``np.bincount`` adds weights in input order, so the table
takes every base cell's held-out sum over its units in unit order. A
target is a fixed set of base cells (a treatment's treated half is the
patterns that include it), and its held-out sum adds its base cells' in
ascending order. Fold ``k``'s training sum adds the other folds' held-out
sums in ascending fold order; no sum is a total minus the held-out part,
which would be off in the last bits. So a stratum mean equals, bit for bit, a
per-target fit that adds its gathered training units per (fold, base
cell) in unit order, then over base cells, then over folds, and agrees
with a plain unit-order sum to rounding (within 1e-13 relative in the
tests). An empty cell falls back to the target's training mean: its
training sums added over the strata in ascending order, over its training
count. That is a sum of the same table, so it differs from a pairwise
``mean()`` of the training units only by rounding (within 1e-12 relative
in the tests). 0/1 targets are counts and are exact in any order. Ridge
fits agree with the unit-level solution to rounding.

Propensities are clipped on the (dataset, fold, stratum) table.
``clipped_count`` adds, over the cells outside ``[clip, 1 - clip]``, the
number of units the cell predicts (the held-out fold's units in that
stratum; in-sample, every unit in it), which is the per-unit count of
clipped predictions.

The estimators read the data only as the table's held-out base cells.
Treatment ``j``'s treated and control halves are fixed sets of base cells
(``NuisanceFit.cells``); under MULTINOMIAL each is one arm, and the other
arms are in neither. Every nuisance is constant on a half, so it is
constant on each base cell in it, and each estimator's per-unit sums split
over base cells exactly as they would over halves: into each base cell's
count, mean ``y`` (its sum over its count) and centred sum of squares
``sum((y - mean)**2)``. That last is taken in two passes, not as
``sum(y**2) - sum(y)**2 / n``, which loses the digits of a large mean.

A block of datasets (see ``dgp.Dataset``) is tabled with the dataset in
the key: a key's units are still added in unit order and every later step
is elementwise over datasets, so every dataset's cells are bit for bit
those of its own table, and a block costs one set of ``bincount`` passes
instead of one per dataset. Tables on one stratum axis (a sampled
dataset's is its DGP's stratum list) stack into a larger block
(``stack_tables``) on the same terms, so one fit can serve many blocks.
Every array of a table and of a fit is indexed ``[..., dataset, fold,
stratum]``. Ridge fits stay per (dataset, fold) and see only the
dataset's own strata. Newton iterations that end with the gradient above
``NEWTON_GRAD_TOL`` raise ``SingularFitError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import rng
from .dgp import PATTERN_TREATMENTS, AssignmentMode, Dataset, StratifiedDGP, code_positions

NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1e-10

DEFAULT_NUM_FOLDS = 5
DEFAULT_CLIP = 0.01


class SingularFitError(RuntimeError):
    """Raised when a logistic fit cannot be pinned down by the data."""


class LearnerKind(str, Enum):
    STRATUM_MEAN = "stratum_mean"
    LINEAR_RIDGE = "linear_ridge"
    LOGISTIC_RIDGE = "logistic_ridge"


class Basis(str, Enum):
    """Covariate expansion for the ridge learners.

    STRATUM_DUMMIES is one indicator column per stratum code (saturated);
    RAW_CODE is an intercept plus the integer code as a single regressor.
    """

    STRATUM_DUMMIES = "stratum_dummies"
    RAW_CODE = "raw_code"


@dataclass(frozen=True)
class LearnerSpec:
    """Which learner to use for the nuisance fits.

    LOGISTIC_RIDGE applies to binary (propensity) targets only; outcome
    targets then fall back to LINEAR_RIDGE with the same penalty and basis.
    """

    kind: LearnerKind = LearnerKind.STRATUM_MEAN
    ridge_penalty: float = 0.0
    basis: Basis = Basis.STRATUM_DUMMIES

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", LearnerKind(self.kind))
        object.__setattr__(self, "basis", Basis(self.basis))
        if not np.isfinite(self.ridge_penalty) or self.ridge_penalty < 0:
            raise ValueError(f"ridge_penalty must be finite and >= 0, got {self.ridge_penalty}")


@dataclass(frozen=True)
class FoldAssignment:
    """Balanced random partition of units into folds (one row per dataset of a block)."""

    num_folds: int
    fold_of: NDArray[np.int64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fold_of", np.asarray(self.fold_of, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.fold_of.shape[-1]

    def replicate(self, b: int) -> "FoldAssignment":
        """Row ``b`` of a block's assignment."""
        return FoldAssignment(self.num_folds, self.fold_of[b])


def assign_folds(n: int, num_folds: int,
                 seed: int | Sequence[int] | rng.Streams) -> FoldAssignment:
    """Randomly partition ``n`` units into folds whose sizes differ by at most one.

    A sequence of seeds partitions a block of datasets: row ``b`` is bit for
    bit ``assign_folds(n, num_folds, seed[b])``. ``rng.Streams`` of the
    seeds' own paths (``rng.streams((seeds, None))``) may stand in for the
    seeds.
    """
    if num_folds < 2:
        raise ValueError(f"num_folds must be >= 2, got {num_folds}")
    if n < num_folds:
        raise ValueError(f"need at least one unit per fold: n={n} < num_folds={num_folds}")
    single = isinstance(seed, (int, np.integer))
    if isinstance(seed, rng.Streams):
        B, generators = len(seed), seed.generators(None)
    else:
        seeds = [seed] if single else list(seed)
        B, generators = len(seeds), rng.substreams(seeds)
    # unit order[i] joins fold i % num_folds; the labels are built as rows of
    # 0..num_folds-1, which is faster than an integer modulo
    labels = np.empty((-(-n // num_folds), num_folds), dtype=np.int64)
    labels[:] = np.arange(num_folds)
    labels = labels.ravel()[:n]
    fold_of = np.empty((B, n), dtype=np.int64)
    for row, gen in zip(fold_of, generators):
        row[gen.permutation(n)] = labels
    return FoldAssignment(num_folds=num_folds, fold_of=fold_of[0] if single else fold_of)


@dataclass
class NuisanceFit:
    """Cross-fitted nuisance tables, with the cell table they were fitted from.

    A prediction table holds, for each fold, the prediction for the units
    of each stratum held out in that fold (in-sample, one fold of every
    unit). Tables are indexed ``[dataset, fold, stratum]``, per-treatment
    ones ``[treatment, dataset, fold, stratum]``, as the cell table's
    arrays are after their base-cell axis; the table's ``levels`` are the
    stratum codes of the last axis, and its ``n``, ``block`` and design
    are the fit's, so the estimators need nothing but the fit. A block's
    strata cover all its datasets, so a dataset may have no units in
    some. ``restricted_*`` and ``control_p`` are only populated under
    MULTINOMIAL assignment, where the residual-on-residual regression runs
    on the {control, j} subsample with the conditional propensity
    ``p_j / (p_j + p_0)``.

    The estimators read the data as the table's held-out base cells:
    ``cells`` names treatment ``j``'s, and every nuisance is constant on
    each of them (see the module docstring).
    """

    table: CellTable
    y_hat: NDArray[np.float64]          # pooled E[Y|X]
    p_hat: NDArray[np.float64]          # per treatment: arm-membership probability
    mu_treated: NDArray[np.float64]     # per treatment: E[Y | arm j, X]
    mu_control: NDArray[np.float64]     # per treatment: E[Y | treatment j's control, X]
    restricted_y: NDArray[np.float64] | None = None  # per treatment: E[Y | X, W in {0, j}]
    restricted_p: NDArray[np.float64] | None = None  # per treatment: P(W=j | X, W in {0, j})
    control_p: NDArray[np.float64] | None = None     # P(control arm | X)
    clipped_count: int | NDArray[np.int64] = 0
    fallback_count: int | NDArray[np.int64] = 0

    def replicate(self, b: int) -> "NuisanceFit":
        """Row ``b`` of a block's fit."""
        arrays = ("y_hat", "p_hat", "mu_treated", "mu_control", "restricted_y", "restricted_p",
                  "control_p")
        return replace(
            self,
            table=self.table.replicate(b),
            **{name: getattr(self, name)[..., b : b + 1, :, :] for name in arrays
               if getattr(self, name) is not None},
            clipped_count=int(self.clipped_count[b]),
            fallback_count=int(self.fallback_count[b]),
        )

    def cells(self, j: int) -> tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.intp]]:
        """Treatment ``j``'s treated and control base cells, and those in neither.

        Base cells of the fit's table, in ascending order. The cells in
        neither are the other arms under MULTINOMIAL, and none under
        PARALLEL_BINARY (the two halves of ``j``'s chunk hold every unit).
        """
        K = self.table.num_treatments
        if not 1 <= j <= K:
            raise ValueError(f"treatment index must be in 1..{K}, got {j}")
        return _layout(self.table.mode, K).sides[j - 1]

    def moments(self, cells: NDArray[np.intp]) -> tuple[NDArray, NDArray, NDArray]:
        """The held-out count, mean ``y`` (0 without units) and M2 of ``cells``.

        Each is a float array indexed ``[cell, dataset, fold, stratum]``.
        """
        count = self.table.count[cells].astype(np.float64)  # exact; float arithmetic is faster
        return count, self.table.total[cells] / np.maximum(count, 1.0), self.table.m2[cells]

    def propensities(self, j: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Probabilities of treatment ``j`` and of its control condition."""
        p = self.p_hat[j - 1]
        if self.table.mode is AssignmentMode.PARALLEL_BINARY:
            return p, 1.0 - p
        assert self.control_p is not None
        return p, self.control_p

    def outcomes(self, j: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Treatment ``j``'s treated and control outcome models."""
        return self.mu_treated[j - 1], self.mu_control[j - 1]

    def plm_tables(self, j: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Outcome and propensity entering treatment ``j``'s residual regression."""
        if self.table.mode is AssignmentMode.PARALLEL_BINARY:
            return self.y_hat, self.p_hat[j - 1]
        assert self.restricted_y is not None and self.restricted_p is not None
        return self.restricted_y[j - 1], self.restricted_p[j - 1]


# ---------------------------------------------------------------------------
# learners on one training split of one target
#
# A learner sees a target through two length-S vectors: ``count``, the
# training units in each stratum, and ``total``, the sum of their target
# values. Stratum ``s`` is row ``s`` of the basis ``X``; weighting the row by
# its count gives the same normal equations, gradient and Hessian as the
# unit-level fit.


def _basis(levels: NDArray, basis: Basis) -> NDArray[np.float64]:
    if basis is Basis.STRATUM_DUMMIES:
        return np.eye(levels.shape[0])
    return np.column_stack([np.ones(levels.shape[0]), levels.astype(np.float64)])


def _sigmoid(eta: NDArray) -> NDArray[np.float64]:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -30.0, 30.0)))


def _linear_ridge_beta(
    X: NDArray, count: NDArray, total: NDArray, penalty: float
) -> NDArray[np.float64]:
    if penalty == 0.0:
        # rows scaled by sqrt(count) keep the minimum-norm answer for a
        # stratum absent from the split (its row is zero)
        root = np.sqrt(count)
        rhs = np.divide(total, root, out=np.zeros_like(total), where=count > 0)
        beta, *_ = np.linalg.lstsq(X * root[:, None], rhs, rcond=None)
        return beta
    gram = X.T @ (X * count[:, None])
    return np.linalg.solve(gram + penalty * np.eye(X.shape[1]), X.T @ total)


def _logistic_ridge_beta(
    X: NDArray, count: NDArray, total: NDArray, penalty: float
) -> NDArray[np.float64]:
    hits = total.sum()
    if penalty == 0.0 and (hits == 0 or hits == count.sum()):
        raise SingularFitError(
            "logistic training split contains a single class; "
            "set ridge_penalty > 0 to regularize the fit"
        )
    d = X.shape[1]
    beta = np.zeros(d)
    for step_count in range(NEWTON_MAX_ITER + 1):
        mu = _sigmoid(X @ beta)
        grad = X.T @ (total - count * mu) - penalty * beta
        if np.max(np.abs(grad)) <= NEWTON_GRAD_TOL:
            return beta
        if step_count == NEWTON_MAX_ITER:
            break
        H = (X * (count * mu * (1.0 - mu))[:, None]).T @ X + penalty * np.eye(d)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularFitError(
                "singular Hessian in logistic fit; set ridge_penalty > 0"
            ) from exc
        beta = beta + step
    raise SingularFitError(
        f"logistic fit did not converge in {NEWTON_MAX_ITER} Newton steps "
        f"(gradient {np.max(np.abs(grad)):.3g} > {NEWTON_GRAD_TOL:g})"
    )


# ---------------------------------------------------------------------------
# the cell table

POOLED = 0  # the group of every unit


def _buckets(groups: tuple[tuple[int, ...], ...]) -> tuple[tuple[NDArray, NDArray], ...]:
    """``groups`` of one size together: their positions, and their base cells as rows.

    ``_grouped`` adds a bucket's groups at once, one base cell per step, so
    each group still adds its own base cells in ascending order.
    """
    sizes: dict[int, list[int]] = {}
    for g, members in enumerate(groups):
        sizes.setdefault(len(members), []).append(g)
    return tuple((np.array(rows), np.array([groups[g] for g in rows])) for rows in sizes.values())


class _Layout(NamedTuple):
    groups: tuple[tuple[int, ...], ...]  # each group's base cells, ascending; POOLED first
    num_cells: int
    buckets: tuple  # _buckets(groups)
    sides: tuple  # per treatment: its treated, control and other base cells, as index arrays


@lru_cache(maxsize=32)
def _layout(mode: AssignmentMode, K: int) -> _Layout:
    """The groups of base cells of a design with ``K`` treatments.

    PARALLEL_BINARY: the treatments are keyed in chunks of at most
    ``PATTERN_TREATMENTS``, and a unit's base cell in a chunk is its pattern
    of those treatments (treatment ``first + i`` adds ``2**i``), offset by
    ``2**PATTERN_TREATMENTS`` per earlier chunk. Groups ``2j - 1`` and
    ``2j`` are the patterns of treatment ``j``'s chunk without and with it
    (its control and treated halves); ``POOLED`` is every pattern of chunk
    0. MULTINOMIAL: a unit's base cell is its arm. Group ``1 + a`` is arm
    ``a`` and group ``K + 1 + j`` is the {0, j} comparison; treatment
    ``j``'s treated and control cells are arms ``j`` and 0, and the other
    arms are in neither.
    """
    if mode is AssignmentMode.MULTINOMIAL:
        arms = tuple((a,) for a in range(K + 1))
        groups = (tuple(range(K + 1)),) + arms + tuple((0, j) for j in range(1, K + 1))
        sides = tuple(((j,), (0,), tuple(a for a in range(1, K + 1) if a != j))
                      for j in range(1, K + 1))
    else:
        groups = (tuple(range(1 << min(PATTERN_TREATMENTS, K))),)
        for j in range(K):
            chunk, i = divmod(j, PATTERN_TREATMENTS)
            first = chunk * PATTERN_TREATMENTS
            patterns = np.arange(1 << min(PATTERN_TREATMENTS, K - first))
            treated = patterns >> i & 1 == 1
            offset = chunk << PATTERN_TREATMENTS
            groups += (tuple((offset + patterns[~treated]).tolist()),
                       tuple((offset + patterns[treated]).tolist()))
        sides = tuple((groups[2 * j], groups[2 * j - 1], ()) for j in range(1, K + 1))
    sides = tuple(tuple(np.array(cells, dtype=np.intp) for cells in side) for side in sides)
    return _Layout(groups, max(map(max, groups)) + 1, _buckets(groups), sides)


def _grouped(cells: NDArray, layout: _Layout) -> NDArray:
    """Each group's total of ``cells[c]`` over its base cells ``c``, added in ascending order."""
    out = np.empty((len(layout.groups),) + cells.shape[1:], dtype=cells.dtype)
    for rows, members in layout.buckets:
        total = cells[members[:, 0]]
        for c in members[:, 1:].T:
            total += cells[c]
        out[rows] = total
    return out


@dataclass
class CellTable:
    """The held-out moments of every base cell: all that a fit reads of the data.

    ``count`` (units), ``total`` (their sum of ``y``) and ``m2`` (their
    centred sum of squares, ``sum((y - total / count)**2)``) are indexed
    ``[base cell, dataset, fold, stratum]``. The base cells are those of
    ``_layout(mode, num_treatments)`` and ``levels`` holds the stratum codes
    of the last axis, in ascending order. Every dataset has ``n`` units.
    ``block`` tells a block of datasets, whose fits and estimates are
    per-dataset arrays, from one dataset, whose are plain numbers; either
    way the dataset axis is there.
    """

    mode: AssignmentMode
    num_treatments: int
    levels: NDArray[np.int64]
    n: int
    block: bool
    count: NDArray[np.int64]
    total: NDArray[np.float64]
    m2: NDArray[np.float64]

    _ARRAYS = ("count", "total", "m2")

    def replicate(self, b: int) -> "CellTable":
        """Dataset ``b`` of a block, as the table of one dataset."""
        return replace(self, block=False,
                       **{name: getattr(self, name)[:, b : b + 1] for name in self._ARRAYS})


def stack_tables(tables: Sequence[CellTable]) -> CellTable:
    """Tables of one design, size and stratum axis, joined along the dataset axis as a block.

    Every step of a fit and of the estimators is elementwise along that
    axis, so each dataset's rows are bit for bit those of its own table.
    """
    first = tables[0]
    design = (first.mode, first.num_treatments, first.n, first.levels.tolist())
    if any((t.mode, t.num_treatments, t.n, t.levels.tolist()) != design for t in tables[1:]):
        raise ValueError("stacked tables must share the design, n and the stratum axis")
    return replace(first, block=True, **{
        name: np.concatenate([getattr(t, name) for t in tables], axis=1) for name in first._ARRAYS})


def cell_table(data: Dataset, folds: FoldAssignment) -> CellTable:
    """Each base cell's held-out moments, per dataset, fold and stratum.

    Every unit lies in one base cell per chunk (see ``_layout``), so it
    gets one int64 key per chunk: ``((dataset * folds + fold) * cells +
    cell) * S + stratum``, which covers every dataset of a block (a single
    dataset is a block of one). Its last two terms are the dataset's
    ``cell_keys``, which a sampled dataset brings from the draw. Three
    ``bincount`` passes over the keys in unit order give each key's count,
    sum of ``y`` and sum of squared deviations from its mean (gathered per
    unit), and the small tables are then laid out ``[cell, dataset, fold,
    stratum]``. The stratum axis is the dataset's grouping
    (``Dataset.strata``); a sampled dataset's is the DGP's stratum list, so
    its tables stack with any other's of that DGP.
    """
    n = data.n
    if n == 0:
        raise ValueError("dataset is empty")
    if folds.fold_of.shape != data.y.shape:
        raise ValueError(f"fold assignment covers {folds.fold_of.shape[-1]} units, dataset has {n}")
    y = data.y.reshape(-1, n)
    B, F = y.shape[0], folds.num_folds
    groups = data.strata
    S = groups.codes.shape[0]
    C = _layout(data.assignment_mode, data.num_treatments).num_cells
    cell_keys = data.cell_keys.reshape(-1, B, n)
    keys = np.multiply(folds.fold_of.reshape(B, n), C * S)
    if B > 1:
        keys += np.arange(0, B * F * C * S, F * C * S)[:, None]
    keys = np.add(cell_keys, keys).ravel()
    # y once per chunk: a unit is in one base cell of each
    y_all = y.ravel() if cell_keys.shape[0] == 1 else np.tile(y.ravel(), cell_keys.shape[0])
    size = B * F * C * S
    count = np.bincount(keys, minlength=size)
    total = np.bincount(keys, y_all, minlength=size)
    deviation = (total / np.maximum(count, 1)).take(keys)
    np.subtract(y_all, deviation, out=deviation)
    m2 = np.bincount(keys, np.square(deviation, out=deviation), minlength=size)
    return CellTable(data.assignment_mode, data.num_treatments, groups.codes, n, data.y.ndim > 1,
                     *(np.ascontiguousarray(a.reshape(B, F, C, S).transpose(2, 0, 1, 3))
                       for a in (count, total, m2)))


class _Learners:
    """Training counts and sums of every target, per fold, dataset and stratum.

    Each learner target and each estimator cell is a *group*, a fixed set
    of base cells of one chunk (see ``_layout``): ``POOLED`` is every
    pattern of chunk 0, a treatment's treated or untreated half is the
    patterns of its chunk with or without it, and the {0, j} comparison is
    two arms. Indicator targets need no sums of their own: their totals are
    another group's counts. Fold ``k``'s training sum adds the other folds'
    held-out sums in ascending fold order, and its training count is the
    total count minus the fold's (integers, so exact); in-sample, both are
    the one fold's own. Every table is indexed ``[group, dataset, fold,
    stratum]``.

    ``outcomes`` and ``rates`` fit a list of targets at once (the learners
    act elementwise, or per target, dataset and fold) and return their
    ``[target, dataset, fold, stratum]`` predictions. Their fallbacks are
    added to ``fallbacks``; ``rates`` clips its tables to ``[clip, 1 -
    clip]`` and adds the units it clipped to ``clipped``, each per dataset.
    """

    def __init__(self, held: NDArray, held_sums: NDArray, levels: NDArray[np.int64],
                 spec: LearnerSpec, crossfit: bool, clip: float):
        self.levels = levels
        self.spec = spec
        self.clip = clip
        self.clipped = np.zeros(held.shape[1], dtype=np.int64)
        self.fallbacks = np.zeros(held.shape[1], dtype=np.int64)
        self.bases: dict[int, tuple] = {}  # per dataset, from _basis
        self.held = held[POOLED]  # units each fold predicts, per stratum
        if not crossfit:
            self.counts, self.sums = held, held_sums
            return
        # integer counts are exact in any order; the sums add the other
        # folds' in ascending order
        self.counts = held.sum(axis=2, keepdims=True) - held
        folds = np.arange(held.shape[2])
        self.sums = np.zeros_like(held_sums)
        for other in folds:
            np.add(self.sums, held_sums[:, :, other : other + 1], out=self.sums,
                   where=(folds != other)[:, None])

    def outcomes(self, groups: list[int]) -> NDArray[np.float64]:
        """Tables of E[Y | X, group] for each of ``groups``."""
        return self._predict(self.counts[groups], self.sums[groups], binary=False,
                             empty=lambda: _mean(self.counts[POOLED], self.sums[POOLED], np.nan))

    def rates(self, hits: list[int], among: list[int]) -> NDArray[np.float64]:
        """Tables of P(hits | X, among) for each pair of ``hits`` and ``among``, clipped."""
        return self._predict(self.counts[among], self.counts[hits].astype(np.float64),
                             binary=True, empty=lambda: 0.5)

    def _basis(self, b: int) -> tuple[slice | NDArray[np.bool_], NDArray[np.float64]]:
        """Dataset ``b``'s strata (a block's strata may be absent from it) and their basis."""
        if b not in self.bases:
            present = self.held[b].any(axis=0)
            strata = slice(None) if present.all() else present
            self.bases[b] = strata, _basis(self.levels[strata], self.spec.basis)
        return self.bases[b]

    def _predict(self, count, total, binary, empty):
        """Map each target's and fold's (count, total) to S predictions, for every dataset.

        A stratum-mean cell without training units takes the target's
        training mean, and a target without any training units ``empty()``;
        each counts one fallback per unit it predicts. A ridge fit sees only
        the strata of its own dataset, and the fits run target by target,
        so the first target that cannot be fitted raises. Binary targets are
        clipped on the table, each cell counting the units it predicts.
        """
        kind = self.spec.kind
        if kind is LearnerKind.LOGISTIC_RIDGE and not binary:
            kind = LearnerKind.LINEAR_RIDGE
        if kind is LearnerKind.STRATUM_MEAN:
            table = total / np.maximum(count, 1)
            unfit = count == 0
        else:
            table = np.zeros(total.shape)
            empty_split = ~count.any(axis=-1)
            unfit = np.broadcast_to(empty_split[..., None], count.shape)
            for t, b, k in zip(*np.nonzero(~empty_split)):
                strata, X = self._basis(b)
                c, y = count[t, b, k, strata], total[t, b, k, strata]
                if kind is LearnerKind.LOGISTIC_RIDGE:
                    beta = _logistic_ridge_beta(X, c, y, self.spec.ridge_penalty)
                    table[t, b, k, strata] = _sigmoid(X @ beta)
                else:
                    beta = _linear_ridge_beta(X, c, y, self.spec.ridge_penalty)
                    table[t, b, k, strata] = X @ beta
        if unfit.any():
            self.fallbacks += np.where(unfit, self.held, 0).sum(axis=(0, 2, 3))
            table = np.where(unfit, _mean(count, total, empty())[..., None], table)
        if binary:
            lo, hi = self.clip, 1.0 - self.clip
            outside = (table < lo) | (table > hi)
            if outside.any():
                self.clipped += np.where(outside, self.held, 0).sum(axis=(0, 2, 3))
            np.clip(table, lo, hi, out=table)
        return table


def _mean(count: NDArray, total: NDArray, empty) -> NDArray[np.float64]:
    """Per (dataset, fold), the total over the count, each added over strata in order.

    ``empty`` (a number, or a (dataset, fold) array) where there are no units.
    """
    units = count.sum(axis=-1)
    in_order = np.add.accumulate(total, axis=-1)[..., -1]  # no pairwise regrouping
    return np.where(units > 0, in_order / np.maximum(units, 1), empty)


# ---------------------------------------------------------------------------
# cross-fitting


def fit_table(table: CellTable, spec: LearnerSpec, clip: float = DEFAULT_CLIP,
              crossfit: bool = True) -> NuisanceFit:
    """Fit every nuisance function from a cell table, for each of its datasets.

    Cross-fitted, fold ``k``'s predictions come from the other folds' cells;
    in-sample (``crossfit=False``, a one-fold table), from the fold's own.
    Row ``b`` of the fit of a block is bit for bit the fit of
    ``table.replicate(b)``.
    """
    if not 0.0 <= clip < 0.5:
        raise ValueError(f"clip must be in [0, 0.5), got {clip}")
    K = table.num_treatments
    layout = _layout(table.mode, K)
    learners = _Learners(_grouped(table.count, layout), _grouped(table.total, layout),
                         table.levels, spec, crossfit, clip)
    # each kind of target is fitted in one call, treatment by treatment, so
    # a logistic fit that fails reports the first treatment's; the group
    # numbers are those of _layout
    treatments = range(1, K + 1)
    if table.mode is AssignmentMode.PARALLEL_BINARY:
        tables = {"p_hat": learners.rates([2 * j for j in treatments], [POOLED] * K)}
        outcomes = learners.outcomes([POOLED] + [g for j in treatments for g in (2 * j, 2 * j - 1)])
        tables.update(y_hat=outcomes[0], mu_treated=outcomes[1::2], mu_control=outcomes[2::2])
    else:
        # control_p, then p_hat and restricted_p of each treatment in turn
        rates = learners.rates([1] + [1 + j for j in treatments for _ in range(2)],
                               [POOLED] + [g for j in treatments for g in (POOLED, K + 1 + j)])
        # the one control model serves every treatment, and counts for each
        outcomes = learners.outcomes([POOLED] + [1 + j for j in treatments] + [1] * K
                                     + [K + 1 + j for j in treatments])
        tables = {"control_p": rates[0], "p_hat": rates[1::2], "restricted_p": rates[2::2],
                  "y_hat": outcomes[0], "mu_treated": outcomes[1 : 1 + K],
                  "mu_control": outcomes[1 + K : 1 + 2 * K], "restricted_y": outcomes[1 + 2 * K :]}

    def per_dataset(counts: NDArray[np.int64]) -> int | NDArray[np.int64]:
        return counts if table.block else int(counts[0])

    return NuisanceFit(
        table=table,
        **tables,
        clipped_count=per_dataset(learners.clipped),
        fallback_count=per_dataset(learners.fallbacks),
    )


def fit_crossfit(
    data: Dataset,
    spec: LearnerSpec,
    folds: FoldAssignment,
    clip: float = DEFAULT_CLIP,
) -> NuisanceFit:
    """Cross-fit all nuisance functions the estimators need.

    For each fold, learners trained on the complementary folds predict the
    fold's units, so no unit's prediction depends on its own fold's data.
    Propensity predictions are clipped to ``[clip, 1 - clip]``; empty
    stratum-mean cells fall back to the training-split marginal mean. Both
    events are counted on the returned fit.

    A block of datasets with its block of fold assignments is fitted at
    once; row ``b`` of the fit is bit for bit the fit of row ``b`` alone.
    This is ``fit_table`` of ``cell_table(data, folds)``.
    """
    return fit_table(cell_table(data, folds), spec, clip)


def fit_insample(data: Dataset, spec: LearnerSpec, clip: float = 0.0) -> NuisanceFit:
    """Fit on the full sample and predict in-sample (no cross-fitting).

    Intended for diagnostics and for checking algebraic identities of the
    residual regression, where fold-splitting would break exactness.
    """
    return fit_table(cell_table(data, _one_fold(data)), spec, clip, crossfit=False)


def _one_fold(data: Dataset) -> FoldAssignment:
    return FoldAssignment(1, np.zeros(data.y.shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# oracle injection and controlled corruption


def oracle_nuisance(data: Dataset, dgp: StratifiedDGP) -> NuisanceFit:
    """Build a fit whose predictions are the DGP's exact conditional means.

    Decouples estimator behaviour from learner error: with this fit, any
    remaining deviation of an estimator from its closed-form target is pure
    sampling noise. The fit is in-sample (one fold) and, like any fit, holds
    one row per dataset of a block.
    """
    if data.assignment_mode is not dgp.assignment_mode:
        raise ValueError("dataset and DGP assignment modes differ")
    table = cell_table(data, _one_fold(data))
    idx = dgp.stratum_index(table.levels)
    p = dgp.propensity[:, idx]          # (K, S)
    tau = dgp.effect[:, idx]            # (K, S)
    mu0 = dgp.baseline[idx]             # (S,)

    # with exclusive arms and with independent parallel indicators alike,
    # E[Y | X] = mu0 + sum_k p_k tau_k
    mixed = (p * tau).sum(axis=0)
    tables = {"y_hat": mu0 + mixed, "p_hat": p}
    if dgp.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        others = mixed - p * tau
        tables.update(mu_treated=mu0 + tau + others, mu_control=mu0 + others)
    else:
        control_p = 1.0 - p.sum(axis=0)
        cond = p / (p + control_p)
        tables.update(mu_treated=mu0 + tau, mu_control=np.repeat(mu0[None], p.shape[0], axis=0),
                      control_p=control_p, restricted_p=cond, restricted_y=mu0 + tau * cond)

    B = table.count.shape[1]
    zero = np.zeros(B, dtype=np.int64) if table.block else 0
    return NuisanceFit(
        table=table,
        # a (..., S) table as [..., dataset, fold, stratum], one fold
        **{name: np.broadcast_to(t[..., None, None, :], t.shape[:-1] + (B, 1, t.shape[-1]))
           for name, t in tables.items()},
        clipped_count=zero,
        fallback_count=zero,
    )


def corrupt_outcome(fit: NuisanceFit, bias: Mapping[int, float]) -> NuisanceFit:
    """Shift every outcome-model prediction by a fixed per-stratum offset.

    Leaves propensities untouched; the canonical "wrong outcome model, right
    propensity model" configuration for double-robustness checks. ``bias``
    must cover every stratum of the fit.
    """
    codes = np.fromiter(bias.keys(), dtype=np.int64, count=len(bias))
    values = np.array([float(v) for v in bias.values()])
    offset = values[code_positions(codes, fit.table.levels)]
    return replace(
        fit,
        y_hat=fit.y_hat + offset,
        mu_treated=fit.mu_treated + offset,
        mu_control=fit.mu_control + offset,
        restricted_y=None if fit.restricted_y is None else fit.restricted_y + offset,
    )


def corrupt_propensity(fit: NuisanceFit, odds_factor: float) -> NuisanceFit:
    """Multiply the odds of every propensity prediction by a constant.

    ``p -> f p / (1 - p + f p)``. Leaves outcome models untouched; the
    "right outcome model, wrong propensity model" configuration for
    double-robustness checks.
    """
    if odds_factor <= 0:
        raise ValueError(f"odds_factor must be > 0, got {odds_factor}")

    def shift(p: NDArray | None) -> NDArray | None:
        if p is None:
            return None
        return odds_factor * p / (1.0 - p + odds_factor * p)

    return replace(
        fit,
        p_hat=shift(fit.p_hat),
        restricted_p=shift(fit.restricted_p),
        control_p=shift(fit.control_p),
    )
