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
S-row slice to S predictions that are gathered back to the units.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

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
    """Balanced random partition of units into folds."""

    num_folds: int
    fold_of: NDArray[np.int64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fold_of", np.asarray(self.fold_of, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.fold_of.shape[0]


def assign_folds(n: int, num_folds: int, seed: int) -> FoldAssignment:
    """Randomly partition ``n`` units into folds whose sizes differ by at most one."""
    if num_folds < 2:
        raise ValueError(f"num_folds must be >= 2, got {num_folds}")
    if n < num_folds:
        raise ValueError(f"need at least one unit per fold: n={n} < num_folds={num_folds}")
    order = rng.substream(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = np.arange(n) % num_folds
    return FoldAssignment(num_folds=num_folds, fold_of=fold_of)


@dataclass
class NuisanceFit:
    """Cross-fitted nuisance predictions for every unit.

    All arrays are aligned with the dataset's unit order. ``restricted_*``
    and ``control_p`` are only populated under MULTINOMIAL assignment, where
    the residual-on-residual regression runs on the {control, j} subsample
    with the conditional propensity ``p_j / (p_j + p_0)``.
    """

    mode: AssignmentMode
    num_treatments: int
    y_hat: NDArray[np.float64]          # (n,) pooled E[Y|X]
    p_hat: NDArray[np.float64]          # (n, K) arm-membership probability
    mu_treated: NDArray[np.float64]     # (n, K) E[Y | arm j, X]
    mu_control: NDArray[np.float64]     # (n, K) E[Y | treatment j's control, X]
    restricted_y: NDArray[np.float64] | None = None  # (n, K) E[Y | X, W in {0, j}]
    restricted_p: NDArray[np.float64] | None = None  # (n, K) P(W=j | X, W in {0, j})
    control_p: NDArray[np.float64] | None = None     # (n,) P(control arm | X)
    clipped_count: int = 0
    fallback_count: int = 0

    @property
    def n(self) -> int:
        return self.y_hat.shape[0]

    def plm_outcome(self, j: int) -> NDArray[np.float64]:
        """Outcome predictions entering treatment ``j``'s residual regression."""
        if self.mode is AssignmentMode.PARALLEL_BINARY:
            return self.y_hat
        assert self.restricted_y is not None
        return self.restricted_y[:, j - 1]

    def plm_propensity(self, j: int) -> NDArray[np.float64]:
        """Propensities entering treatment ``j``'s residual regression."""
        if self.mode is AssignmentMode.PARALLEL_BINARY:
            return self.p_hat[:, j - 1]
        assert self.restricted_p is not None
        return self.restricted_p[:, j - 1]

    def arm_probability(self, j: int) -> NDArray[np.float64]:
        return self.p_hat[:, j - 1]

    def control_probability(self, j: int) -> NDArray[np.float64]:
        """Probability of treatment ``j``'s control condition."""
        if self.mode is AssignmentMode.PARALLEL_BINARY:
            return 1.0 - self.p_hat[:, j - 1]
        assert self.control_p is not None
        return self.control_p

    def treated_outcome(self, j: int) -> NDArray[np.float64]:
        return self.mu_treated[:, j - 1]

    def control_outcome(self, j: int) -> NDArray[np.float64]:
        return self.mu_control[:, j - 1]


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
    for _ in range(NEWTON_MAX_ITER):
        mu = _sigmoid(X @ beta)
        grad = X.T @ (total - count * mu) - penalty * beta
        if np.max(np.abs(grad)) <= NEWTON_GRAD_TOL:
            break
        H = (X * (count * mu * (1.0 - mu))[:, None]).T @ X + penalty * np.eye(d)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularFitError(
                "singular Hessian in logistic fit; set ridge_penalty > 0"
            ) from exc
        beta = beta + step
    return beta


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
    all families, keyed by ``(family offset + half) * S + stratum`` and
    weighted by the outcome with the held-out fold zeroed; see the module
    docstring for why this is exact.
    """

    def __init__(
        self,
        data: Dataset,
        spec: LearnerSpec,
        fold_of: NDArray[np.int64],
        num_folds: int,
        crossfit: bool,
        families: list[tuple[NDArray, int]],
    ):
        families = [(np.zeros(data.n, dtype=np.int64), 1)] + families
        levels = np.unique(data.x)
        pos = np.searchsorted(levels, data.x)
        S = levels.shape[0]
        self.spec = spec
        self.X = _basis(levels, spec.basis)
        self.y = data.y
        self.fold_of = fold_of
        self.crossfit = crossfit
        self.halves = [np.asarray(half, dtype=np.int64) for half, _ in families]
        self.offsets = np.cumsum([0] + [size for _, size in families[:-1]])
        self.cell = fold_of * S + pos

        width = sum(size for _, size in families) * S
        keys = np.concatenate([(o + h) * S + pos for o, h in zip(self.offsets, self.halves)])
        held = np.bincount(
            np.tile(fold_of, len(families)) * width + keys, minlength=num_folds * width
        ).reshape(num_folds, -1, S)
        self.counts = held.sum(axis=0) - held if crossfit else held
        self.held = held[:, 0]  # POOLED: units each fold predicts, per stratum
        sums = np.empty((num_folds, width))
        for k in range(num_folds):
            y_k = np.where(fold_of != k, data.y, 0.0) if crossfit else data.y
            sums[k] = np.bincount(keys, np.tile(y_k, len(families)), minlength=width)
        self.sums = sums.reshape(num_folds, -1, S)

    def outcome(self, group: Group) -> tuple[NDArray[np.float64], int]:
        """Predictions of E[Y | X, group] for every unit, and the fallback count."""
        return self._predict(
            self.counts[:, self._index(group)],
            self.sums[:, self._index(group)],
            binary=False,
            cell_mean=lambda k: float(self._training_y(k, group).mean()),
            empty_value=lambda k: float(self._training_y(k).mean()),
        )

    def rate(self, hits: Group, among: Group) -> tuple[NDArray[np.float64], int]:
        """Predictions of P(hits | X, among) for every unit, and the fallback count."""
        count = self.counts[:, self._index(among)]
        total = self.counts[:, self._index(hits)].astype(np.float64)
        return self._predict(
            count,
            total,
            binary=True,
            cell_mean=lambda k: total[k].sum() / count[k].sum(),
            empty_value=lambda k: 0.5,
        )

    def _index(self, group: Group) -> int:
        return self.offsets[group[0]] + group[1]

    def _training_y(self, k: int, group: Group | None = None) -> NDArray[np.float64]:
        keep = self.fold_of != k if self.crossfit else np.ones(self.y.shape[0], dtype=bool)
        if group is not None:
            keep &= self.halves[group[0]] == group[1]
        return self.y[keep]

    def _predict(self, count, total, binary, cell_mean, empty_value):
        """Map each fold's (count, total) to S predictions and gather them per unit.

        A stratum-mean cell without training units takes the target's training
        mean; a target without any training units takes ``empty_value``. Both
        count one fallback per predicted unit.
        """
        kind = self.spec.kind
        if kind is LearnerKind.LOGISTIC_RIDGE and not binary:
            kind = LearnerKind.LINEAR_RIDGE
        empty = count.sum(axis=1) == 0
        if kind is LearnerKind.STRATUM_MEAN:
            table = total / np.maximum(count, 1)
            missing = np.where(count > 0, 0, self.held).sum(axis=1)
        else:
            table = np.zeros(total.shape)
            missing = np.where(empty, self.held.sum(axis=1), 0)
            for k in np.flatnonzero(~empty):
                if kind is LearnerKind.LOGISTIC_RIDGE:
                    beta = _logistic_ridge_beta(self.X, count[k], total[k], self.spec.ridge_penalty)
                    table[k] = _sigmoid(self.X @ beta)
                else:
                    beta = _linear_ridge_beta(self.X, count[k], total[k], self.spec.ridge_penalty)
                    table[k] = self.X @ beta
        for k in np.flatnonzero(missing):
            table[k, count[k] == 0] = empty_value(k) if empty[k] else cell_mean(k)
        return table.ravel()[self.cell], int(missing.sum())


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
    """
    return _compute_fit(data, spec, clip, folds.fold_of, folds.num_folds, crossfit=True)


def fit_insample(data: Dataset, spec: LearnerSpec, clip: float = 0.0) -> NuisanceFit:
    """Fit on the full sample and predict in-sample (no cross-fitting).

    Intended for diagnostics and for checking algebraic identities of the
    residual regression, where fold-splitting would break exactness.
    """
    return _compute_fit(data, spec, clip, np.zeros(data.n, dtype=np.int64), 1, crossfit=False)


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
    if fold_of.shape[0] != n:
        raise ValueError(f"fold assignment covers {fold_of.shape[0]} units, dataset has {n}")
    if not 0.0 <= clip < 0.5:
        raise ValueError(f"clip must be in [0, 0.5), got {clip}")
    mu_treated = np.empty((n, K))
    mu_control = np.empty((n, K))
    p_hat = np.empty((n, K))
    fallbacks = 0

    if data.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        # family j: units split by treatment j's indicator
        families = [(data.w[:, j], 2) for j in range(K)]
        table = _StratumTable(data, spec, fold_of, num_folds, crossfit, families)
        y_hat, fallbacks = table.outcome(POOLED)
        for j in range(1, K + 1):
            for out, pred in (
                (p_hat, table.rate((j, 1), POOLED)),
                (mu_treated, table.outcome((j, 1))),
                (mu_control, table.outcome((j, 0))),
            ):
                out[:, j - 1], fb = pred
                fallbacks += fb
        restricted_y = restricted_p = control_p = None
    else:
        # family 1: units split by arm (0 = control); family 1 + j: units in
        # or out of treatment j's {0, j} comparison
        arm = data.arm
        families = [(arm, K + 1)] + [((arm == j) | (arm == 0), 2) for j in range(1, K + 1)]
        table = _StratumTable(data, spec, fold_of, num_folds, crossfit, families)
        y_hat, fallbacks = table.outcome(POOLED)
        control_p, fb = table.rate((1, 0), POOLED)
        fallbacks += fb
        control_y, fb = table.outcome((1, 0))
        mu_control[:] = control_y[:, None]
        fallbacks += K * fb  # one control model, used by every treatment
        restricted_y = np.empty((n, K))
        restricted_p = np.empty((n, K))
        for j in range(1, K + 1):
            for out, pred in (
                (p_hat, table.rate((1, j), POOLED)),
                (mu_treated, table.outcome((1, j))),
                (restricted_y, table.outcome((1 + j, 1))),
                (restricted_p, table.rate((1, j), (1 + j, 1))),
            ):
                out[:, j - 1], fb = pred
                fallbacks += fb

    clipped = 0
    lo, hi = clip, 1.0 - clip
    for arr in (p_hat, restricted_p, control_p):
        if arr is None:
            continue
        clipped += int(np.sum((arr < lo) | (arr > hi)))
        np.clip(arr, lo, hi, out=arr)

    return NuisanceFit(
        mode=data.assignment_mode,
        num_treatments=K,
        y_hat=y_hat,
        p_hat=p_hat,
        mu_treated=mu_treated,
        mu_control=mu_control,
        restricted_y=restricted_y,
        restricted_p=restricted_p,
        control_p=control_p,
        clipped_count=clipped,
        fallback_count=fallbacks,
    )


# ---------------------------------------------------------------------------
# oracle injection and controlled corruption


def oracle_nuisance(data: Dataset, dgp: StratifiedDGP) -> NuisanceFit:
    """Build a fit whose predictions are the DGP's exact conditional means.

    Decouples estimator behaviour from learner error: with this fit, any
    remaining deviation of an estimator from its closed-form target is pure
    sampling noise.
    """
    if data.assignment_mode is not dgp.assignment_mode:
        raise ValueError("dataset and DGP assignment modes differ")
    idx = dgp.stratum_index(data.x)
    K = dgp.num_treatments
    p = dgp.propensity[:, idx].T        # (n, K)
    tau = dgp.effect[:, idx].T          # (n, K)
    mu0 = dgp.baseline[idx]             # (n,)

    # with exclusive arms and with independent parallel indicators alike,
    # E[Y | X] = mu0 + sum_k p_k tau_k
    y_hat = mu0 + (p * tau).sum(axis=1)

    if dgp.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        others = (p * tau).sum(axis=1)[:, None] - p * tau
        mu_treated = mu0[:, None] + tau + others
        mu_control = mu0[:, None] + others
        restricted_y = restricted_p = control_p = None
    else:
        mu_treated = mu0[:, None] + tau
        mu_control = np.repeat(mu0[:, None], K, axis=1)
        control_p = 1.0 - p.sum(axis=1)
        cond = p / (p + control_p[:, None])
        restricted_p = cond
        restricted_y = mu0[:, None] + tau * cond

    return NuisanceFit(
        mode=dgp.assignment_mode,
        num_treatments=K,
        y_hat=y_hat,
        p_hat=p,
        mu_treated=mu_treated,
        mu_control=mu_control,
        restricted_y=restricted_y,
        restricted_p=restricted_p,
        control_p=control_p,
    )


def corrupt_outcome(fit: NuisanceFit, data: Dataset, bias: Mapping[int, float]) -> NuisanceFit:
    """Shift every outcome-model prediction by a fixed per-stratum offset.

    Leaves propensities untouched; the canonical "wrong outcome model, right
    propensity model" configuration for double-robustness checks.
    """
    codes = np.fromiter(bias.keys(), dtype=np.int64, count=len(bias))
    values = np.array([float(v) for v in bias.values()])
    offset = values[code_positions(codes, data.x)]
    return replace(
        fit,
        y_hat=fit.y_hat + offset,
        mu_treated=fit.mu_treated + offset[:, None],
        mu_control=fit.mu_control + offset[:, None],
        restricted_y=None if fit.restricted_y is None else fit.restricted_y + offset[:, None],
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
