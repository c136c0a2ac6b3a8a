"""Cross-fitted nuisance estimation on discrete strata.

The estimators need, per treatment ``j``, the probabilities of its treated
and control sides, an outcome model on each, and the outcome and treatment
rate its residual-on-residual regression takes out: the six roles of a
``NuisanceFit``. ``fit_table`` alone maps an assignment mode to the models
that fill them, and fits each model once. Everything is fit fold-wise: a
unit's prediction always comes from models trained on the other folds.

Because ``X`` is a stratum code, every learner is a function of a small
table, built in two steps. ``cell_table`` keys every unit by its *base
cell* (its pattern of treatments, or its arm; ``dgp.cell_layout`` is the
one place that decides them), dataset, fold and stratum and gives each
base cell's held-out count, sum of ``y`` and centred sum of squares (a
``CellTable``). ``fit_table`` reads only that table: it adds
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
target is named by its set of base cells (every unit; treatment ``j``'s
treated cells ``T_j`` or control cells ``C_j``; their union; arm 0), and
its held-out sum adds its base cells' in ascending order through
``add_in_turn``, as the estimators' per-cell sums do. Fold ``k``'s
training sum adds the other folds' held-out sums in ascending fold order;
no sum is a total minus the held-out part, which would be off in the last
bits. So a stratum mean equals, bit for bit, a
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
Treatment ``j``'s treated and control halves are its base cells ``T_j``
and ``C_j`` (``NuisanceFit.cells``); under MULTINOMIAL each is one arm,
and the other arms are in neither. Every nuisance is constant on a half, so it is
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
stratum]``. A ridge fit is one (target, dataset, fold) and sees only the
dataset's own strata. Linear ridge fits are solved one by one; all the
logistic fits of a dataset share its basis and run in one Newton loop
(``_newton``), which stacks each step's products and Hessian solves over
the fits still running. Each fit stops on its own: once its gradient is
at most ``NEWTON_GRAD_TOL``, or once it stalls: a step of at most
``NEWTON_STALL_TOL`` times ``max(1, max|beta|)`` that is not below half
its step before. Newton steps shrink quadratically until they reach the
rounding floor of the gradient, which grows with the counts (and with an
ill-conditioned basis), so at large n the stall comes first.
``NEWTON_MAX_ITER`` steps without either raise ``SingularFitError``. A
stacked product or solve makes, per fit, the BLAS or LAPACK call that the
fit alone makes, so every fit ends with the same bits after the same
steps as on its own, and the error raised is the first failing fit's in
(target, dataset, fold) order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import rng
from .dgp import AssignmentMode, Dataset, StratifiedDGP, cell_layout

NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1e-10
NEWTON_STALL_TOL = 1e-8  # relative to max(1, max|beta|)

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

    def replicate(self, b: int) -> "FoldAssignment":
        """Row ``b`` of a block's assignment."""
        return FoldAssignment(self.num_folds, self.fold_of[b])


def assign_folds(n: int, num_folds: int,
                 seed: int | Sequence[int] | rng.Streams) -> FoldAssignment:
    """Randomly partition ``n`` units into folds whose sizes differ by at most one.

    A sequence of seeds partitions a block of datasets: row ``b`` is bit for
    bit ``assign_folds(n, num_folds, seed[b])``. A seed's permutation draws
    its stream 0, the path ``(seed, 0)``; the seeds' streams keyed by
    ``rng.streams(seeds, 1)`` may stand in for them, and streams with
    another number of rows are refused.
    """
    if num_folds < 2:
        raise ValueError(f"num_folds must be >= 2, got {num_folds}")
    if n < num_folds:
        raise ValueError(f"need at least one unit per fold: n={n} < num_folds={num_folds}")
    single = isinstance(seed, (int, np.integer))
    streams = rng.as_streams(seed, 1)
    # unit order[i] joins fold i % num_folds; the labels are built as rows of
    # 0..num_folds-1, which is faster than an integer modulo
    labels = np.empty((-(-n // num_folds), num_folds), dtype=np.int64)
    labels[:] = np.arange(num_folds)
    labels = labels.ravel()[:n]
    fold_of = np.empty((len(streams), n), dtype=np.int64)
    for row, gen in zip(fold_of, streams.generators(0)):
        row[gen.permutation(n)] = labels
    return FoldAssignment(num_folds=num_folds, fold_of=fold_of[0] if single else fold_of)


@dataclass
class NuisanceFit:
    """Cross-fitted nuisance tables by role, with the cell table they were fitted from.

    A prediction table holds, for each fold, the prediction for the units
    of each stratum held out in that fold (in-sample, one fold of every
    unit). Each role table is indexed ``[treatment, dataset, fold,
    stratum]``, as the cell table's arrays are after their base-cell axis;
    the table's ``levels`` are the stratum codes of the last axis, and its
    ``n``, ``block`` and design are the fit's, so the estimators need
    nothing but the fit. A block's strata cover all its datasets, so a
    dataset may have no units in some. Under PARALLEL_BINARY ``p_control``
    is ``1 - p_treated``, ``plm_rate`` is ``p_treated`` and ``plm_outcome``
    the pooled ``E[Y | X]``. Under MULTINOMIAL the control side is arm 0,
    whose two models serve every treatment, and the residual regression's
    are fitted on arms 0 and ``j``. A model that serves every treatment is
    one table broadcast over the treatment axis.

    The estimators read the data as the table's held-out base cells:
    ``cells`` names treatment ``j``'s, and every nuisance is constant on
    each of them (see the module docstring).
    """

    table: CellTable
    p_treated: NDArray[np.float64]    # P(treated side of j | X)
    p_control: NDArray[np.float64]    # P(control side of j | X)
    mu_treated: NDArray[np.float64]   # E[Y | treated side of j, X]
    mu_control: NDArray[np.float64]   # E[Y | control side of j, X]
    plm_outcome: NDArray[np.float64]  # E[Y | X, either side of j]
    plm_rate: NDArray[np.float64]     # P(treated side of j | X, either side of j)
    clipped_count: int | NDArray[np.int64] = 0
    fallback_count: int | NDArray[np.int64] = 0

    _ROLES = ("p_treated", "p_control", "mu_treated", "mu_control", "plm_outcome", "plm_rate")

    def replicate(self, b: int) -> "NuisanceFit":
        """Row ``b`` of a block's fit."""
        return replace(
            self,
            table=self.table.replicate(b),
            **{name: getattr(self, name)[:, b : b + 1] for name in self._ROLES},
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
        return cell_layout(self.table.mode, K).sides[j - 1]

    def moments(self, cells: NDArray[np.intp]) -> tuple[NDArray, NDArray, NDArray]:
        """The held-out count, mean ``y`` (0 without units) and M2 of ``cells``.

        Each is a float array indexed ``[cell, dataset, fold, stratum]``.
        """
        count = self.table.count[cells].astype(np.float64)  # exact; float arithmetic is faster
        return count, self.table.total[cells] / np.maximum(count, 1.0), self.table.m2[cells]


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


def _newton(
    X: NDArray, count: NDArray, total: NDArray, penalty: float
) -> tuple[NDArray[np.float64], NDArray[np.int64], dict[int, SingularFitError]]:
    """Newton fits of every (count, total) row on the one basis ``X``, in one loop.

    Returns the ``(G, d)`` betas, each fit's number of Newton steps and
    ``{row: error}`` for the fits that fail. Each fit stops on its own
    gradient, stall or step cap and then leaves the active set; every step
    stacks the active fits' products and solves their Hessians in one
    ``np.linalg.solve``. A stacked product or solve makes, per fit, the
    same BLAS or LAPACK call on the same operands as a fit on its own, so
    every beta is bit for bit that fit's.
    """
    G, d = count.shape[0], X.shape[1]
    beta = np.zeros((G, d))
    steps = np.zeros(G, dtype=np.int64)
    hits = total.sum(axis=-1)
    single = (hits == 0) | (hits == count.sum(axis=-1)) if penalty == 0.0 else np.zeros(G, bool)
    errors = {int(g): SingularFitError("logistic training split contains a single class; "
                                       "set ridge_penalty > 0 to regularize the fit")
              for g in np.flatnonzero(single)}
    active = np.flatnonzero(~single)
    last = np.full(G, np.inf)  # each fit's previous step's largest entry
    ridge = penalty * np.eye(d)
    for step_count in range(NEWTON_MAX_ITER + 1):
        b, c = beta[active], count[active]
        mu = _sigmoid((X[None] @ b[..., None])[..., 0])
        resid = total[active] - c * mu
        grad = (X.T[None] @ resid[..., None])[..., 0] - penalty * b
        size = np.max(np.abs(grad), axis=1)
        going = ~(size <= NEWTON_GRAD_TOL)  # a NaN gradient goes on
        active, b, c, mu, grad, size = (a[going] for a in (active, b, c, mu, grad, size))
        if not active.size:
            break
        if step_count == NEWTON_MAX_ITER:
            for g, top in zip(active, size):
                errors[int(g)] = SingularFitError(
                    f"logistic fit did not converge in {NEWTON_MAX_ITER} Newton steps "
                    f"(gradient {top:.3g} > {NEWTON_GRAD_TOL:g})"
                )
            break
        H = np.matmul((X[None] * (c * mu * (1.0 - mu))[..., None]).transpose(0, 2, 1), X)
        H += ridge
        try:
            step = np.linalg.solve(H, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step, solved = _solve_each(H, grad, active, errors)
            active, b, step = active[solved], b[solved], step[solved]
        b = b + step
        beta[active] = b
        steps[active] += 1
        size = np.max(np.abs(step), axis=1)
        # fmax mirrors max(1.0, x): 1.0 for a NaN beta
        stalled = (last[active] / 2 <= size) & (
            size <= NEWTON_STALL_TOL * np.fmax(1.0, np.max(np.abs(b), axis=1)))
        last[active] = size
        active = active[~stalled]  # stalled at the rounding floor
    return beta, steps, errors


def _solve_each(H, grad, active, errors):
    """Each system on its own, after a stacked solve found one singular: steps, solved mask.

    A singular system's fit gets its error in ``errors``.
    """
    step, solved = np.zeros(grad.shape), np.ones(active.shape[0], dtype=bool)
    for i, g in enumerate(active):
        try:
            step[i] = np.linalg.solve(H[i : i + 1], grad[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError as exc:
            error = SingularFitError("singular Hessian in logistic fit; set ridge_penalty > 0")
            error.__cause__ = exc
            errors[int(g)], solved[i] = error, False
    return step, solved


# ---------------------------------------------------------------------------
# the cell table

def add_in_turn(*terms: NDArray) -> NDArray:
    """The rows of every term (``[base cell, dataset, fold, stratum]``, say), added in turn.

    Each term's rows are added one after another, in order; numpy's sum
    over the first axis could regroup them. A target's held-out sum in the
    fit, every per-cell sum of the estimators and every sum of the
    estimated decomposition go through this one rule.
    """
    cells = iter([cell for term in terms for cell in term])
    total = next(cells).copy()
    for cell in cells:
        total += cell
    return total


@dataclass
class CellTable:
    """The held-out moments of every base cell: all that a fit reads of the data.

    ``count`` (units), ``total`` (their sum of ``y``) and ``m2`` (their
    centred sum of squares, ``sum((y - total / count)**2)``) are indexed
    ``[base cell, dataset, fold, stratum]``. The base cells are those of
    ``dgp.cell_layout(mode, num_treatments)``, and ``levels`` holds the
    stratum codes of the last axis, in ascending order. Every dataset has
    ``n`` units. ``block`` tells a block of datasets, whose fits and
    estimates are per-dataset arrays, from one dataset, whose are plain
    numbers; either way the dataset axis is there.
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

    Every unit lies in one base cell per chunk of
    ``dgp.cell_layout(mode, K)``, so it gets one int64 key per chunk:
    ``((dataset * folds + fold) * num_cells + cell) * S + stratum``, which
    covers every dataset of a block (a single dataset is a block of one).
    Its last two terms are the dataset's ``cell_keys``, in the smallest
    signed type that holds them, which a sampled dataset brings from the
    draw; the keys become int64 only here. Three
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
    C = cell_layout(data.assignment_mode, data.num_treatments).num_cells
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
    """Fits of learner targets, each named by its set of base cells, from one cell table.

    ``outcomes`` and ``rates`` fit a list of targets at once (the learners
    act elementwise, or per target, dataset and fold) and return their
    ``[target, dataset, fold, stratum]`` predictions. A target's held-out
    count and sum per (dataset, fold, stratum) add its base cells' (the sum
    through ``add_in_turn``). Fold ``k``'s training sum adds the other
    folds' held-out sums in ascending fold order, and its training count is
    the total count minus the fold's (integers, so exact). A table with one
    fold is in-sample: both are the fold's own. Indicator targets need no
    sums of their own: their totals are another target's counts. Fallbacks are added to
    ``fallbacks``; ``rates`` clips its tables to ``[clip, 1 - clip]`` and
    adds the units it clipped to ``clipped``, each per dataset.
    """

    def __init__(self, table: CellTable, spec: LearnerSpec, clip: float):
        self.table = table
        self.spec = spec
        self.clip = clip
        self.every = cell_layout(table.mode, table.num_treatments).every
        self.clipped = np.zeros(table.count.shape[1], dtype=np.int64)
        self.fallbacks = np.zeros(table.count.shape[1], dtype=np.int64)
        self.bases: dict[int, tuple] = {}  # per dataset, from _basis
        self.held = table.count[self.every].sum(axis=0)  # units each fold predicts, per stratum

    def _training(self, targets: list[NDArray[np.intp]],
                  sums: bool = True) -> tuple[NDArray[np.int64], NDArray[np.float64] | None]:
        """The ``targets``' training counts and, if ``sums``, training sums of ``y``."""
        table = self.table
        count = np.stack([table.count[cells].sum(axis=0) for cells in targets])  # exact
        total = np.stack([add_in_turn(table.total[cells]) for cells in targets]) if sums else None
        if count.shape[2] == 1:  # one fold: in-sample
            return count, total
        if total is not None:
            folds = np.arange(total.shape[2])
            held, total = total, np.zeros_like(total)
            for other in folds:
                np.add(total, held[:, :, other : other + 1], out=total,
                       where=(folds != other)[:, None])
        return count.sum(axis=2, keepdims=True) - count, total

    def outcomes(self, targets: list[NDArray[np.intp]],
                 pooled: bool = False) -> NDArray[np.float64]:
        """Tables of E[Y | X] if ``pooled``, then of E[Y | X, target] for each of ``targets``.

        A target without training units takes every unit's training mean.
        """
        count, total = self._training([self.every] + targets)
        first = 0 if pooled else 1
        return self._predict(count[first:], total[first:], binary=False,
                             empty=lambda: _mean(count[0], total[0], np.nan))

    def rates(self, hits: list[NDArray[np.intp]],
              among: list[NDArray[np.intp]]) -> NDArray[np.float64]:
        """Tables of P(hits | X, among) for each pair of ``hits`` and ``among``, clipped."""
        count = self._training(hits + among, sums=False)[0]
        return self._predict(count[len(hits):], count[: len(hits)].astype(np.float64),
                             binary=True, empty=lambda: 0.5)

    def _basis(self, b: int) -> tuple[NDArray[np.intp], NDArray[np.float64]]:
        """Dataset ``b``'s strata (a block's strata may be absent from it) and their basis."""
        if b not in self.bases:
            strata = np.flatnonzero(self.held[b].any(axis=0))
            self.bases[b] = strata, _basis(self.table.levels[strata], self.spec.basis)
        return self.bases[b]

    def _predict(self, count, total, binary, empty):
        """Map each target's and fold's (count, total) to S predictions, for every dataset.

        A stratum-mean cell without training units takes the target's
        training mean, and a target without any training units ``empty()``;
        each counts one fallback per unit it predicts. A ridge fit sees only
        the strata of its own dataset. A dataset's logistic fits run in one
        Newton loop (``_newton``), each stopping on its own; the error
        raised is that of the first fit, in (target, dataset, fold) order,
        that cannot be fitted. Binary targets are clipped on the table,
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
            empty_split = ~count.any(axis=-1)
            unfit = np.broadcast_to(empty_split[..., None], count.shape)
            fits = np.nonzero(~empty_split)  # (target, dataset, fold), in that order
            errors = {}
            for b in range(count.shape[1]):
                mine = fits[1] == b
                if not mine.any():
                    continue
                t, k = fits[0][mine], fits[2][mine]
                strata, X = self._basis(b)
                cells = t[:, None], b, k[:, None], strata
                c, y = count[cells], total[cells]
                if kind is LearnerKind.LOGISTIC_RIDGE:
                    beta, _, failed = _newton(X, c, y, self.spec.ridge_penalty)
                    errors.update(((t[g], b, k[g]), error) for g, error in failed.items())
                    table[cells] = _sigmoid((X[None] @ beta[..., None])[..., 0])
                else:
                    for g in range(t.shape[0]):
                        beta = _linear_ridge_beta(X, c[g], y[g], self.spec.ridge_penalty)
                        table[t[g], b, k[g], strata] = X @ beta
            if errors:
                raise errors[min(errors)]
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


def fit_table(table: CellTable, spec: LearnerSpec, clip: float = DEFAULT_CLIP) -> NuisanceFit:
    """Fit every nuisance function from a cell table, for each of its datasets.

    The table's folds decide the kind of fit. With several folds it is
    cross-fitted: fold ``k``'s predictions come from the other folds'
    cells. A one-fold table (``fit_insample``'s) is fitted in-sample: the
    fold predicts itself from its own cells. Row ``b`` of the fit of a
    block is bit for bit the fit of ``table.replicate(b)``.
    """
    if not 0.0 <= clip < 0.5:
        raise ValueError(f"clip must be in [0, 0.5), got {clip}")
    learners = _Learners(table, spec, clip)
    # each target is a set of base cells: every unit, treatment j's treated
    # and control cells T_j and C_j, their union, and arm 0. Each is fitted
    # once, each kind in one call, treatment by treatment, so a logistic fit
    # that fails reports the first treatment's; a model that serves every
    # treatment is broadcast over the treatment axis
    layout = cell_layout(table.mode, table.num_treatments)
    every, K = layout.every, table.num_treatments
    treated, control = ([side[half] for side in layout.sides] for half in (0, 1))
    if table.mode is AssignmentMode.PARALLEL_BINARY:
        p = learners.rates(treated, [every] * K)
        mu = learners.outcomes([c for pair in zip(treated, control) for c in pair], pooled=True)
        roles = dict(p_treated=p, p_control=1.0 - p, mu_treated=mu[1::2], mu_control=mu[2::2],
                     plm_outcome=np.broadcast_to(mu[0], p.shape), plm_rate=p)
    else:
        arm0 = control[0]
        pairs = [np.sort(np.concatenate(pair)) for pair in zip(treated, control)]  # arms 0, j
        # arm 0 among every unit, then arm j among every unit and among arms 0 and j, in turn
        rates = learners.rates([arm0] + [t for t in treated for _ in range(2)],
                               [every] + [cells for pair in pairs for cells in (every, pair)])
        mu, p = learners.outcomes([arm0] + treated + pairs), rates[1::2]
        roles = dict(p_treated=p, p_control=np.broadcast_to(rates[0], p.shape),
                     mu_treated=mu[1 : 1 + K], mu_control=np.broadcast_to(mu[0], p.shape),
                     plm_outcome=mu[1 + K :], plm_rate=rates[2::2])

    def per_dataset(counts: NDArray[np.int64]) -> int | NDArray[np.int64]:
        return counts if table.block else int(counts[0])

    return NuisanceFit(
        table=table,
        **roles,
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
    events are counted on the returned fit, once per unit and fitted model:
    a model that serves every treatment (the control arm's under
    MULTINOMIAL) counts once, and a role derived from another model (one
    minus a propensity) does not count.

    A block of datasets with its block of fold assignments is fitted at
    once; row ``b`` of the fit is bit for bit the fit of row ``b`` alone.
    This is ``fit_table`` of ``cell_table(data, folds)``.
    """
    return fit_table(cell_table(data, folds), spec, clip)


def fit_insample(data: Dataset, spec: LearnerSpec, clip: float = 0.0) -> NuisanceFit:
    """Fit on the full sample and predict in-sample (no cross-fitting).

    Intended for diagnostics and for checking algebraic identities of the
    residual regression, where fold-splitting would break exactness. This
    is ``fit_table`` of a one-fold ``cell_table``.
    """
    return fit_table(cell_table(data, _one_fold(data)), spec, clip)


def _one_fold(data: Dataset) -> FoldAssignment:
    return FoldAssignment(1, np.zeros(data.y.shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# oracle injection


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

    if dgp.assignment_mode is AssignmentMode.PARALLEL_BINARY:
        mixed = (p * tau).sum(axis=0)  # E[Y | X] - mu0
        others = mixed - p * tau
        roles = dict(p_treated=p, p_control=1.0 - p, mu_treated=mu0 + tau + others,
                     mu_control=mu0 + others, plm_outcome=mu0 + mixed, plm_rate=p)
    else:
        control_p = 1.0 - p.sum(axis=0)
        cond = p / (p + control_p)
        roles = dict(p_treated=p, p_control=control_p, mu_treated=mu0 + tau, mu_control=mu0,
                     plm_outcome=mu0 + tau * cond, plm_rate=cond)

    B, (K, S) = table.count.shape[1], p.shape
    zero = np.zeros(B, dtype=np.int64) if table.block else 0
    return NuisanceFit(
        table=table,
        # an (S,) or (K, S) table as [treatment, dataset, fold, stratum], one fold
        **{name: np.broadcast_to(t[..., None, None, :], (K, B, 1, S)) for name, t in roles.items()},
        clipped_count=zero,
        fallback_count=zero,
    )
