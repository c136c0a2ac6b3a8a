"""Cross-fitted nuisance estimation on discrete strata.

The estimators need two kinds of conditional expectations: outcome
regressions ``E[Y | X]`` (pooled, per arm and, under multinomial assignment,
on each {control, j} subsample) and propensities ``E[W | X]``. Everything is
fit fold-wise: a unit's prediction always comes from models trained on the
other folds.

Because ``X`` is a stratum code, every learner is a function of a small
table: for each (fold, target, stratum), the number of training units and
the sum of their target values. ``_StratumTable`` builds that table once per
fit, with one ``bincount`` per fold, and each target's learner maps its
S-row slice to a (fold, stratum) table of S predictions per fold. A fit is
those prediction tables; no prediction is copied out to the units.

Three learners are available. ``STRATUM_MEAN`` is the saturated
nonparametric estimator (within-cell training means) and is exact for the
discrete designs in this package. ``LINEAR_RIDGE`` and ``LOGISTIC_RIDGE``
fit penalized linear/logistic models on a basis expansion of the stratum
code, solved on the table with each stratum row weighted by its count
(closed-form normal equations, Newton iterations).

Exactness rule: ``np.bincount`` adds weights in input order, so a table sum
equals the sum over the target's own training units only if the same
values are added in the same order. The table therefore zeroes the
held-out fold's outcomes instead of subtracting them from a total (which
is off in the last bits), and stratum means are bit-identical to a
per-target fit on the gathered training units. The training mean that an
empty cell falls back to is a pairwise ``mean()``, which no table sum
reproduces, so it is taken from the gathered units, only for a fold that
predicts into an empty cell. 0/1 targets are counts and are exact in any
order. Ridge fits agree with the unit-level solution to rounding.

Propensities are clipped on the (fold, stratum) table. ``clipped_count``
adds, over the cells outside ``[clip, 1 - clip]``, the number of units the
cell predicts (the held-out fold's units in that stratum; in-sample, every
unit in it), which is the per-unit count of clipped predictions.

The data enter the estimators only as held-out *cell moments*, built in
the same pass as the training table. A cell is a (fold, stratum, arm
group): under PARALLEL_BINARY, treatment ``j``'s treated or untreated
units; under MULTINOMIAL, one arm. Every nuisance is constant in a cell, so
each estimator's per-unit score is linear in ``y`` there, and its sums over
units are sums over cells of the cell's count, its mean ``y`` (its sum of
``y`` over the count) and its centred sum of squares
``sum((y - cell mean)**2)`` (two passes, not ``sum(y**2) - sum(y)**2 / n``,
which loses the digits of a large mean).

A block of datasets (see ``dgp.Dataset``) is fitted by the same table with
the dataset in the key: a key's units are still added in unit order, so
every dataset's cells and moments are bit for bit those of its own fit,
and a block costs one ``bincount`` per fold instead of one per fold and
dataset. Ridge fits stay per (fold, dataset) and see only the dataset's
own strata. Newton iterations that end with the gradient above
``NEWTON_GRAD_TOL`` raise ``SingularFitError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from . import rng
from .dgp import AssignmentMode, Dataset, StratifiedDGP, code_positions

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


def assign_folds(n: int, num_folds: int, seed: int | Sequence[int]) -> FoldAssignment:
    """Randomly partition ``n`` units into folds whose sizes differ by at most one.

    A sequence of seeds partitions a block of datasets: row ``b`` is bit for
    bit ``assign_folds(n, num_folds, seed[b])``.
    """
    if num_folds < 2:
        raise ValueError(f"num_folds must be >= 2, got {num_folds}")
    if n < num_folds:
        raise ValueError(f"need at least one unit per fold: n={n} < num_folds={num_folds}")
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    # unit order[i] joins fold i % num_folds; the labels are built as rows of
    # 0..num_folds-1, which is faster than an integer modulo
    labels = np.empty((-(-n // num_folds), num_folds), dtype=np.int64)
    labels[:] = np.arange(num_folds)
    labels = labels.ravel()[:n]
    fold_of = np.empty((len(seeds), n), dtype=np.int64)
    for row, gen in zip(fold_of, rng.substreams(seeds)):
        row[gen.permutation(n)] = labels
    return FoldAssignment(num_folds=num_folds, fold_of=fold_of[0] if single else fold_of)


@dataclass
class NuisanceFit:
    """Cross-fitted nuisance tables and the held-out cell moments they are read with.

    A prediction table holds, for each fold, the prediction for the units
    of each stratum held out in that fold (in-sample, one fold of every
    unit). Tables are indexed ``[dataset, fold, stratum]``, per-treatment
    ones ``[treatment, dataset, fold, stratum]``; ``levels`` holds the
    stratum codes of the last axis. A single dataset has a dataset axis of
    length one, a block one row per dataset, and a block's strata cover all
    its datasets, so a dataset may have no units in some. ``restricted_*``
    and ``control_p`` are only populated under MULTINOMIAL assignment, where
    the residual-on-residual regression runs on the {control, j} subsample
    with the conditional propensity ``p_j / (p_j + p_0)``.

    ``count``, ``mean`` and ``m2`` are the held-out moments of every cell,
    indexed ``[cell, dataset, fold, stratum]``: its units (as a float, like
    the other two), their mean outcome (0 without units) and their centred
    sum of squares. Under
    PARALLEL_BINARY, cells ``2j - 2`` and ``2j - 1`` hold treatment ``j``'s
    untreated and treated units; under MULTINOMIAL, cell ``a`` holds arm
    ``a`` (0 = control). ``cells`` selects a treatment's cells.
    """

    mode: AssignmentMode
    num_treatments: int
    levels: NDArray[np.int64]
    count: NDArray[np.float64]
    mean: NDArray[np.float64]
    m2: NDArray[np.float64]
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
        arrays = ("count", "mean", "m2", "y_hat", "p_hat", "mu_treated", "mu_control",
                  "restricted_y", "restricted_p", "control_p")
        return replace(
            self,
            **{name: getattr(self, name)[..., b : b + 1, :, :] for name in arrays
               if getattr(self, name) is not None},
            clipped_count=int(self.clipped_count[b]),
            fallback_count=int(self.fallback_count[b]),
        )

    # A treatment's cells and tables, each a [dataset, fold, stratum] array.

    def cells(self, j: int) -> tuple[tuple[NDArray, NDArray, NDArray],
                                     tuple[NDArray, NDArray, NDArray], NDArray | int]:
        """Treatment ``j``'s treated and control cells, and the units in neither.

        Each cell is ``(count, mean, m2)``. The units in neither are those of
        the other arms under MULTINOMIAL, and none under PARALLEL_BINARY.
        """
        K = self.num_treatments
        if not 1 <= j <= K:
            raise ValueError(f"treatment index must be in 1..{K}, got {j}")
        if self.mode is AssignmentMode.PARALLEL_BINARY:
            treated, control, others = 2 * j - 1, 2 * j - 2, 0
        else:
            treated, control = j, 0
            others = self.count.sum(axis=0) - self.count[treated] - self.count[control]
        return (tuple(a[treated] for a in (self.count, self.mean, self.m2)),
                tuple(a[control] for a in (self.count, self.mean, self.m2)), others)

    def propensities(self, j: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Probabilities of treatment ``j`` and of its control condition."""
        p = self.p_hat[j - 1]
        if self.mode is AssignmentMode.PARALLEL_BINARY:
            return p, 1.0 - p
        assert self.control_p is not None
        return p, self.control_p

    def outcomes(self, j: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Treatment ``j``'s treated and control outcome models."""
        return self.mu_treated[j - 1], self.mu_control[j - 1]

    def plm_tables(self, j: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Outcome and propensity entering treatment ``j``'s residual regression."""
        if self.mode is AssignmentMode.PARALLEL_BINARY:
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
# the stratum table


Group = tuple[int, int]  # (family, half)
POOLED: Group = (0, 0)


class _StratumTable:
    """Training counts and outcome sums of every target, per fold and stratum.

    A *family* splits the units into halves (``families`` pairs a per-unit
    half index with the number of halves): an arm indicator splits treated
    from control, a {0, j} restriction splits in from out. Family 0, which
    the table adds itself, is every unit in one half, so ``POOLED`` is the
    pooled target. Group ``(family, half)`` is one outcome target. Indicator
    targets need no sums of their own: their totals are another group's
    counts.

    Fold ``k``'s training units are the units outside fold ``k`` (every unit
    when fitting in-sample). Each fold's sums come from one ``bincount`` over
    all families and all datasets of a block, keyed by ``(dataset * groups +
    family offset + half) * S + stratum`` and weighted by the outcome with
    the held-out fold zeroed; see the module docstring for why this is exact.
    A single dataset is a block of one. Every table is indexed ``[fold,
    dataset, ..., stratum]``.

    The first ``observed`` families given are the estimators' cells. The
    same keys, with the fold added, count every fold's held-out units per
    group; for the groups of those families, two more ``bincount`` passes
    in unit order add their outcomes (divided by the count, the group's
    mean) and then their squared deviations from that mean, into
    ``moments``, each ``[cell, dataset, fold, stratum]`` (see
    ``NuisanceFit``).

    ``outcome`` and ``rate`` fit one target and return its (fold, dataset,
    stratum) table of predictions and its per-dataset fallback counts.
    ``rate`` clips its table to ``[clip, 1 - clip]`` and adds the units it
    clipped to ``clipped``.
    """

    def __init__(
        self,
        data: Dataset,
        spec: LearnerSpec,
        fold_of: NDArray[np.int64],
        num_folds: int,
        crossfit: bool,
        clip: float,
        families: list[tuple[NDArray, int]],
        observed: int,
    ):
        n = data.n
        y = data.y.reshape(-1, n)
        B = y.shape[0]
        families = [(np.zeros(n, dtype=np.int8), 1)] + families
        self.levels, pos = data.strata.codes, data.strata.position.reshape(B, n)
        S = self.levels.shape[0]
        self.spec = spec
        self.y = y
        self.fold_of = fold_of.reshape(B, n)
        self.crossfit = crossfit
        self.clip = clip
        self.clipped = np.zeros(B, dtype=np.int64)
        self.bases: dict[int, tuple] = {}  # per dataset, from _basis
        self.halves = [half for half, _ in families]  # (n,) or, per dataset, (B, n)
        bounds = np.cumsum([0] + [size for _, size in families])
        self.offsets = bounds[:-1]
        dataset = np.arange(B)[:, None]

        # one (B, n) slice of keys per family; a half index is cast to int64
        # before it is scaled, since an int8 index times S overflows once S >= 128
        groups = int(bounds[-1])
        width = B * groups * S
        keys = np.empty((len(families), B, n), dtype=np.int64)
        for row, half in zip(keys, self.halves):
            row[:] = half
        keys += self.offsets[:, None, None] + dataset * groups
        keys *= S
        keys += pos
        cells = keys + self.fold_of * width if crossfit else keys
        held = np.bincount(cells.ravel(), minlength=num_folds * width)
        # held-out moments of the observed families' groups, in unit order
        seen = cells[1 : 1 + observed].ravel()
        y_seen = np.broadcast_to(y, (observed, B, n)).ravel()
        mean = np.bincount(seen, y_seen, minlength=held.size) / np.maximum(held, 1)
        deviation = y_seen - np.take(mean, seen)
        m2 = np.bincount(seen, deviation * deviation, minlength=held.size)
        shape, observed_groups = (num_folds, B, groups, S), slice(1, bounds[1 + observed])
        self.moments = tuple(
            np.ascontiguousarray(a.reshape(shape)[:, :, observed_groups].transpose(2, 1, 0, 3),
                                 dtype=np.float64)
            for a in (held, mean, m2)
        )
        held = held.reshape(shape)
        self.counts = held.sum(axis=0) - held if crossfit else held
        self.held = held[:, :, 0]  # POOLED: units each fold predicts, per stratum

        keys = keys.ravel()
        weights = np.empty((len(families), B, n))
        sums = np.empty((num_folds, width))
        for k in range(num_folds):
            weights[:] = np.where(self.fold_of != k, y, 0.0) if crossfit else y
            sums[k] = np.bincount(keys, weights.ravel(), minlength=width)
        self.sums = sums.reshape(num_folds, B, groups, S)

    def outcome(self, group: Group) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
        """Table of E[Y | X, group], and the per-dataset fallback counts (or 0)."""
        return self._predict(
            self.counts[:, :, self._index(group)],
            self.sums[:, :, self._index(group)],
            binary=False,
            cell_mean=lambda k, b: float(self._training_y(k, b, group).mean()),
            empty_value=lambda k, b: float(self._training_y(k, b).mean()),
        )

    def rate(self, hits: Group, among: Group) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
        """Table of P(hits | X, among), clipped, and the per-dataset fallback counts (or 0)."""
        count = self.counts[:, :, self._index(among)]
        total = self.counts[:, :, self._index(hits)].astype(np.float64)
        return self._predict(
            count,
            total,
            binary=True,
            cell_mean=lambda k, b: total[k, b].sum() / count[k, b].sum(),
            empty_value=lambda k, b: 0.5,
        )

    def _index(self, group: Group) -> int:
        return self.offsets[group[0]] + group[1]

    def _training_y(self, k: int, b: int, group: Group | None = None) -> NDArray[np.float64]:
        keep = self.fold_of[b] != k if self.crossfit else np.ones(self.y.shape[1], dtype=bool)
        if group is not None:
            half = self.halves[group[0]]
            keep &= (half if half.ndim == 1 else half[b]) == group[1]
        return self.y[b][keep]

    def _basis(self, b: int) -> tuple[slice | NDArray[np.bool_], NDArray[np.float64]]:
        """Dataset ``b``'s strata (a block's strata may be absent from it) and their basis."""
        if b not in self.bases:
            present = self.held[:, b].any(axis=0)
            strata = slice(None) if present.all() else present
            self.bases[b] = strata, _basis(self.levels[strata], self.spec.basis)
        return self.bases[b]

    def _predict(self, count, total, binary, cell_mean, empty_value):
        """Map each fold's (count, total) to S predictions, for every dataset.

        A stratum-mean cell without training units takes the target's training
        mean; a target without any training units takes ``empty_value``. Both
        count one fallback per predicted unit. A ridge fit sees only the
        strata of its own dataset. Binary targets are clipped on the table,
        each cell counting the units it predicts.
        """
        kind = self.spec.kind
        if kind is LearnerKind.LOGISTIC_RIDGE and not binary:
            kind = LearnerKind.LINEAR_RIDGE
        if kind is LearnerKind.STRATUM_MEAN:
            table = total / np.maximum(count, 1)
            unfit = count == 0
        else:
            table = np.zeros(total.shape)
            empty = ~count.any(axis=-1)
            unfit = np.broadcast_to(empty[..., None], count.shape)
            for k, b in zip(*np.nonzero(~empty)):
                strata, X = self._basis(b)
                c, t = count[k, b, strata], total[k, b, strata]
                if kind is LearnerKind.LOGISTIC_RIDGE:
                    beta = _logistic_ridge_beta(X, c, t, self.spec.ridge_penalty)
                    table[k, b, strata] = _sigmoid(X @ beta)
                else:
                    beta = _linear_ridge_beta(X, c, t, self.spec.ridge_penalty)
                    table[k, b, strata] = X @ beta
        fallbacks = 0
        if unfit.any():
            missing = np.where(unfit, self.held, 0).sum(axis=-1)
            fallbacks = missing.sum(axis=0)
            for k, b in zip(*np.nonzero(missing)):
                table[k, b, unfit[k, b]] = cell_mean(k, b) if count[k, b].any() else empty_value(k, b)
        if binary:
            lo, hi = self.clip, 1.0 - self.clip
            outside = (table < lo) | (table > hi)
            if outside.any():
                self.clipped += np.where(outside, self.held, 0).sum(axis=-1).sum(axis=0)
            np.clip(table, lo, hi, out=table)
        return table, fallbacks


# ---------------------------------------------------------------------------
# cross-fitting


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
    """
    return _compute_fit(data, spec, clip, folds.fold_of, folds.num_folds, crossfit=True)


def fit_insample(data: Dataset, spec: LearnerSpec, clip: float = 0.0) -> NuisanceFit:
    """Fit on the full sample and predict in-sample (no cross-fitting).

    Intended for diagnostics and for checking algebraic identities of the
    residual regression, where fold-splitting would break exactness.
    """
    return _compute_fit(data, spec, clip, np.zeros(data.y.shape, dtype=np.int64), 1, crossfit=False)


def _families(data: Dataset) -> tuple[list[tuple[NDArray, int]], int]:
    """The dataset's families of units (see ``_StratumTable``) and how many are the cells.

    PARALLEL_BINARY: family j splits the units by treatment j's indicator,
    and all K are cells. MULTINOMIAL: family 1 splits them by arm (0 =
    control) and is the cells; family 1 + j splits them into in or out of
    treatment j's {0, j} comparison.
    """
    K = data.num_treatments
    if data.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        return [(data.w[..., j], 2) for j in range(K)], K
    arm = data.arm
    return [(arm, K + 1)] + [((arm == j) | (arm == 0), 2) for j in range(1, K + 1)], 1


def _compute_fit(
    data: Dataset,
    spec: LearnerSpec,
    clip: float,
    fold_of: NDArray[np.int64],
    num_folds: int,
    crossfit: bool,
) -> NuisanceFit:
    n, K = data.n, data.num_treatments
    if n == 0:
        raise ValueError("dataset is empty")
    if fold_of.shape != data.y.shape:
        raise ValueError(f"fold assignment covers {fold_of.shape[-1]} units, dataset has {n}")
    if not 0.0 <= clip < 0.5:
        raise ValueError(f"clip must be in [0, 0.5), got {clip}")
    table = _StratumTable(data, spec, fold_of, num_folds, crossfit, clip, *_families(data))
    # targets are fitted treatment by treatment, in the order a failing fit
    # reports first, then stacked target by target along a treatment axis
    targets = {"y_hat": table.outcome(POOLED)}
    if data.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        names = ("p_hat", "mu_treated", "mu_control")
        per_treatment = [
            (table.rate((j, 1), POOLED), table.outcome((j, 1)), table.outcome((j, 0)))
            for j in range(1, K + 1)
        ]
    else:
        targets["control_p"] = table.rate((1, 0), POOLED)
        control_y = table.outcome((1, 0))  # one control model, used by every treatment
        names = ("p_hat", "mu_treated", "mu_control", "restricted_y", "restricted_p")
        per_treatment = [
            (table.rate((1, j), POOLED), table.outcome((1, j)), control_y,
             table.outcome((1 + j, 1)), table.rate((1, j), (1 + j, 1)))
            for j in range(1, K + 1)
        ]
    fallbacks = sum(fb for _, fb in targets.values()) + np.zeros_like(table.clipped)
    tables = {name: predictions for name, (predictions, _) in targets.items()}
    for name, column in zip(names, zip(*per_treatment)):
        fallbacks += sum(fb for _, fb in column)
        tables[name] = np.stack([predictions for predictions, _ in column])

    def per_dataset(counts: NDArray[np.int64]) -> int | NDArray[np.int64]:
        return counts if data.y.ndim > 1 else int(counts[0])

    count, mean, m2 = table.moments
    return NuisanceFit(
        mode=data.assignment_mode,
        num_treatments=K,
        levels=table.levels,
        count=count,
        mean=mean,
        m2=m2,
        # the learners' [..., fold, dataset, stratum] tables, dataset first
        **{name: np.ascontiguousarray(t.swapaxes(-3, -2)) for name, t in tables.items()},
        clipped_count=per_dataset(table.clipped),
        fallback_count=per_dataset(fallbacks),
    )


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
    levels = data.strata.codes
    idx = dgp.stratum_index(levels)
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

    table = _StratumTable(data, LearnerSpec(), np.zeros(data.y.shape, dtype=np.int64), 1, False,
                          0.0, *_families(data))
    B = table.y.shape[0]
    zero = np.zeros(B, dtype=np.int64) if data.y.ndim > 1 else 0
    count, mean, m2 = table.moments
    return NuisanceFit(
        mode=dgp.assignment_mode,
        num_treatments=dgp.num_treatments,
        levels=levels,
        count=count,
        mean=mean,
        m2=m2,
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
    offset = values[code_positions(codes, fit.levels)]
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
