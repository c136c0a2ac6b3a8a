"""The batched logistic Newton loop against the per-fit loop it replaced.

``nuisance._newton`` runs every (target, fold) fit of a dataset in one
loop. Each fit must end with the same bits, after the same number of
Newton steps, as ``unit_reference.newton`` on its own, and a dataset or a
block of datasets must raise the error that fitting fit by fit, in
(target, dataset, fold) order, raises first.
"""

from __future__ import annotations

import numpy as np
import pytest

import treatrank as tr
from treatrank import nuisance
from treatrank.dgp import cell_layout

from unit_reference import logistic_tables, newton


def fault(exc):
    return type(exc), str(exc)


def assert_batch_matches(X, count, total, penalty):
    """Row by row, ``_newton`` equals the reference; the rows' steps and how each ended."""
    beta, steps, errors = nuisance._newton(X, count, total, penalty)
    assert beta.shape == (count.shape[0], X.shape[1])
    ended = []
    for g in range(count.shape[0]):
        try:
            want, want_steps, how = newton(X, count[g], total[g], penalty)
        except tr.SingularFitError as exc:
            assert fault(errors[g]) == fault(exc)
            ended.append("error")
            continue
        assert g not in errors
        assert beta[g].tobytes() == want.tobytes()
        assert steps[g] == want_steps
        ended.append(how)
    return steps, ended


@pytest.mark.parametrize("penalty", [0.0, 0.5])
@pytest.mark.parametrize("basis", list(tr.Basis))
def test_random_tables(basis, penalty):
    gen = np.random.default_rng(31)
    steps, ended = [], []
    for case in range(60):
        S, G = int(gen.integers(2, 9)), int(gen.integers(1, 13))
        levels = np.sort(gen.choice(60, S, replace=False)) if case % 2 else np.arange(S)
        X = nuisance._basis(levels, basis)
        # up to 1e8 units; some strata without units, some rates of 0 or 1,
        # some single-class rows
        count = np.round(gen.dirichlet(np.ones(S), size=G) * 10 ** gen.uniform(1, 8, size=(G, 1)))
        total = np.round(gen.uniform(0.0, 1.0, size=(G, S)) * count)
        total[gen.uniform(size=G) < 0.1] = 0.0
        case_steps, case_ended = assert_batch_matches(X, count, total, penalty)
        steps += case_steps.tolist()
        ended += case_ended
    assert len(set(steps)) > 3  # fits of one batch stop at different steps
    assert {"gradient", "stall"} <= set(ended)
    if penalty == 0.0:
        assert "error" in ended


def test_one_row_keeps_its_shape():
    X, count, total = np.eye(3), np.array([10.0, 20.0, 30.0]), np.array([3.0, 11.0, 25.0])
    beta, steps, errors = nuisance._newton(X, count[None], total[None], 0.0)
    assert beta.shape == (1, 3) and steps.shape == (1,) and not errors
    want, want_steps, _ = newton(X, count, total, 0.0)
    assert beta[0].tobytes() == want.tobytes() and steps[0] == want_steps


def test_nan_gradient_runs_to_the_cap_as_alone():
    # a NaN gradient passes neither stopping test, in a batch as on its own
    count = np.array([[10.0, 20.0, 30.0]] * 2)
    total = np.array([[3.0, np.nan, 25.0], [3.0, 11.0, 25.0]])
    _, ended = assert_batch_matches(np.eye(3), count, total, 0.0)
    assert ended == ["error", "gradient"]


@pytest.mark.parametrize("basis", list(tr.Basis))
def test_large_n_tables_end_on_the_stall_test(basis):
    count = np.array([7.0, 11.0, 13.0, 5.0, 9.0])
    total = np.array([2.0, 5.0, 6.0, 1.0, 3.0])
    sizes = [450.0, 1e7, 1e8, 1e9]
    X = nuisance._basis(np.arange(5), basis)
    rows = np.stack([count * (n / 45.0) for n in sizes])
    hits = np.stack([np.round(total * (n / 45.0)) for n in sizes])
    _, ended = assert_batch_matches(X, rows, hits, 0.0)
    assert ended[0] == "gradient" and ended[1:] == ["stall"] * (len(sizes) - 1)


@pytest.mark.parametrize("basis", list(tr.Basis))
def test_block_with_different_present_strata(monkeypatch, basis):
    # stratum 7 is rare: a dataset of the block may lack it, and then its
    # fits see a smaller basis than the others'
    dgp = tr.StratifiedDGP(
        strata=((0, 0.3), (3, 0.3), (5, 0.39), (7, 0.01)), num_treatments=3,
        propensity=[[0.2, 0.3, 0.1, 0.25], [0.1, 0.2, 0.3, 0.25], [0.3, 0.1, 0.2, 0.25]],
        effect=[[1.0, 2.0, 3.0, 4.0]] * 3, baseline=[0.0, 1.0, 2.0, 3.0],
        assignment_mode=tr.AssignmentMode.MULTINOMIAL,
    )
    block = tr.sample(dgp, 300, list(range(12)))
    folds = tr.assign_folds(300, 5, list(range(100, 112)))
    table = nuisance.cell_table(block, folds)
    calls = []
    predict = nuisance._Learners._predict

    def recorded(self, count, total, binary, empty):
        got = predict(self, count, total, binary, empty)
        if binary:
            calls.append((self, count, total, got))
        return got

    monkeypatch.setattr(nuisance._Learners, "_predict", recorded)
    spec = tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=0.5, basis=basis)
    nuisance.fit_table(table, spec, clip=0.0)  # unclipped: the tables as fitted
    (learners, count, total, got), = calls
    assert len({learners._basis(b)[0].size for b in range(12)}) == 2
    fitted = count.any(axis=-1)
    assert got[fitted].tobytes() == logistic_tables(learners, count, total)[fitted].tobytes()


# ---------------------------------------------------------------------------
# which error a dataset's fits raise

LEVELS = np.arange(3)
# per kind of fit, its training (count, total) on strata 0, 1 and 2
KINDS = {
    "converges": ([10, 20, 30], [5, 10, 15]),
    "single_class": ([10, 20, 30], [0, 0, 0]),
    "singular": ([10, 0, 30], [3, 0, 25]),  # stratum 1 present, but not in this split
    "capped": ([10, 20, 30], [3, 11, 25]),  # more Newton steps than the cap allows
}

FAILURES = ("single class", "singular Hessian", "did not converge")


def learners_for(present):
    """``_Learners`` of a table whose dataset ``b`` has the strata ``present[b]`` (2 folds)."""
    B, F = len(present), 2
    held = np.zeros((B, F, LEVELS.size), dtype=np.int64)
    for b, strata in enumerate(present):
        held[b, :, strata] = 1
    layout = cell_layout(tr.AssignmentMode.PARALLEL_BINARY, 1)
    count = np.zeros((layout.num_cells, B, F, LEVELS.size), dtype=np.int64)
    count[layout.every[0]] = held
    table = nuisance.CellTable(tr.AssignmentMode.PARALLEL_BINARY, 1, LEVELS, 10, B > 1, count,
                               np.zeros(count.shape), np.zeros(count.shape))
    return nuisance._Learners(table, tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE), 0.0)


@pytest.mark.parametrize("present", [[[0, 1, 2]], [[0, 1, 2], [0, 1], [0, 1, 2]]],
                         ids=["dataset", "block"])
def test_first_failure_in_fit_order(monkeypatch, present):
    monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", 2)
    learners = learners_for(present)
    T, B, F = 4, len(present), 2
    gen = np.random.default_rng(32)
    raised = set()
    for _ in range(60):
        kinds = gen.choice(list(KINDS), size=(T, B, F), p=[0.7, 0.1, 0.1, 0.1])
        count, total = (np.zeros((T, B, F, LEVELS.size)) for _ in range(2))
        for (t, b, k), kind in np.ndenumerate(kinds):
            strata = present[b]
            count[t, b, k, strata] = np.array(KINDS[kind][0])[strata]
            total[t, b, k, strata] = np.array(KINDS[kind][1])[strata]
        try:
            want = logistic_tables(learners, count, total)
        except tr.SingularFitError as exc:
            with pytest.raises(tr.SingularFitError) as got:
                learners._predict(count, total, True, lambda: 0.5)
            assert fault(got.value) == fault(exc)
            raised.add(next(m for m in FAILURES if m in str(exc)))
            continue
        got = learners._predict(count, total, True, lambda: 0.5)
        assert got.tobytes() == want.tobytes()
    assert raised == set(FAILURES)  # each kind of failure came first in some mix
