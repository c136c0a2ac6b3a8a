"""Per-unit reference for the nuisance tables, the estimators and the decomposition,
and the per-fit reference for the logistic Newton fits.

A fit holds (dataset, fold, stratum) tables and the cell table of held-out
base cells it was fitted from; the estimators and ``estimate_decomposition``
sum over base cells. This module keeps the direct per-unit route as a
test-local reference: ``unit_arrays`` gathers a fit's tables back to one
prediction per unit, and the estimator functions below are the per-unit
formulas over those arrays (scores, residuals and boolean masks over every
unit).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import treatrank as tr
from treatrank import nuisance
from treatrank.diagnostics import NotEstimableError, Source, decompose

FIELDS = ("p_treated", "p_control", "mu_treated", "mu_control", "plm_outcome", "plm_rate")


def unit_arrays(data, fit, folds=None):
    """``{field: per-unit array}`` in the unit order of a single dataset.

    ``fit`` is the dataset's fit (or row ``b`` of a block's, with ``data``
    row ``b``); ``folds`` is its fold assignment, None for a one-fold fit.
    Each field is ``(n, K)``.
    """
    fold = np.zeros(data.n, dtype=np.int64) if folds is None else folds.fold_of
    stratum = np.searchsorted(fit.table.levels, data.x)
    assert np.array_equal(fit.table.levels[stratum], data.x)
    # each table is [treatment, dataset, fold, stratum]
    return {name: getattr(fit, name)[:, 0, fold, stratum].T for name in FIELDS}


def newton(X, count, total, penalty):
    """One logistic fit on its own: (beta, Newton steps, "gradient" or "stall"), or its error.

    The stopping rules and caps are read from ``nuisance`` when called.
    """
    hits = total.sum()
    if penalty == 0.0 and (hits == 0 or hits == count.sum()):
        raise tr.SingularFitError(
            "logistic training split contains a single class; "
            "set ridge_penalty > 0 to regularize the fit"
        )
    d = X.shape[1]
    beta = np.zeros(d)
    last = np.inf
    for steps in range(nuisance.NEWTON_MAX_ITER + 1):
        mu = nuisance._sigmoid(X @ beta)
        grad = X.T @ (total - count * mu) - penalty * beta
        if np.max(np.abs(grad)) <= nuisance.NEWTON_GRAD_TOL:
            return beta, steps, "gradient"
        if steps == nuisance.NEWTON_MAX_ITER:
            break
        H = (X * (count * mu * (1.0 - mu))[:, None]).T @ X + penalty * np.eye(d)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise tr.SingularFitError(
                "singular Hessian in logistic fit; set ridge_penalty > 0"
            ) from exc
        beta = beta + step
        size = np.max(np.abs(step))
        if last / 2 <= size <= nuisance.NEWTON_STALL_TOL * max(1.0, np.max(np.abs(beta))):
            return beta, steps + 1, "stall"
        last = size
    raise tr.SingularFitError(
        f"logistic fit did not converge in {nuisance.NEWTON_MAX_ITER} Newton steps "
        f"(gradient {np.max(np.abs(grad)):.3g} > {nuisance.NEWTON_GRAD_TOL:g})"
    )


def logistic_tables(learners, count, total):
    """``[target, dataset, fold, stratum]`` logistic predictions, fit by fit.

    ``learners`` is a ``nuisance._Learners``; ``count`` and ``total`` are
    the training tables its ``_predict`` takes. Each (target, dataset,
    fold) with training units is fitted on its dataset's strata in that
    order, so the first fit that fails raises; other cells stay 0.
    """
    table = np.zeros(total.shape)
    for t, b, k in zip(*np.nonzero(count.any(axis=-1))):
        strata, X = learners._basis(b)
        beta = newton(X, count[t, b, k, strata], total[t, b, k, strata],
                      learners.spec.ridge_penalty)[0]
        table[t, b, k, strata] = nuisance._sigmoid(X @ beta)
    return table


def indicators(data, j):
    """(treated, control) 0/1 indicators of treatment ``j``'s two sides."""
    treated = data.w[:, j - 1].astype(np.int8)
    if data.assignment_mode is tr.AssignmentMode.PARALLEL_BINARY:
        return treated, 1 - treated
    return treated, (data.w.sum(axis=1) == 0).astype(np.int8)


def _propensities(arrays, j):
    return arrays["p_treated"][:, j - 1], arrays["p_control"][:, j - 1]


def _dr_score(y, d, m, q):
    """``m(X) + D * (Y - m(X)) / q(X)`` for membership ``D`` with probability ``q``."""
    return m + d * (y - m) / q


def _mean_and_se(scores):
    n = scores.shape[-1]
    se = scores.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    return float(scores.mean()), float(se)


def _checked(point, se, n_used):
    if not np.isfinite(se):
        raise tr.UndefinedEstimateError(f"std_error must be finite and >= 0, got {se}")
    return point, se, n_used


def residuals(data, arrays, j):
    """(treatment, outcome) residuals of the residual regression; 0 off its units."""
    treated, control = indicators(data, j)
    p, m = arrays["plm_rate"][:, j - 1], arrays["plm_outcome"][:, j - 1]
    mask = (treated == 1) | (control == 1)
    return np.where(mask, treated - p, 0.0), np.where(mask, data.y - m, 0.0), mask


def plm(data, arrays, j):
    """(point, SE, units used) of the residual-on-residual regression."""
    w_res, y_res, mask = residuals(data, arrays, j)
    denom = np.sum(w_res**2)
    if denom <= 0.0:
        raise tr.NoVariationError(f"treatment {j} residuals have zero variation")
    point = float(np.sum(w_res * y_res) / denom)
    resid = y_res - point * w_res
    se = float(np.sqrt(np.sum(w_res**2 * resid**2)) / denom)
    return _checked(point, se, int(mask.sum()))


def aipw_scores(data, arrays, j):
    treated, control = indicators(data, j)
    p, q = _propensities(arrays, j)
    return (_dr_score(data.y, treated, arrays["mu_treated"][:, j - 1], p)
            - _dr_score(data.y, control, arrays["mu_control"][:, j - 1], q))


def aipw(data, arrays, j):
    return _checked(*_mean_and_se(aipw_scores(data, arrays, j)), data.n)


def ipw(data, arrays, j):
    treated, control = indicators(data, j)
    p, q = _propensities(arrays, j)
    return _checked(*_mean_and_se(treated * data.y / p - control * data.y / q), data.n)


REFERENCE = {tr.Method.PLM: plm, tr.Method.AIPW: aipw, tr.Method.IPW: ipw}


def decomposition(data, arrays, j):
    """The per-stratum-mask decomposition of the PLM and AIPW points.

    Per stratum: the mean AIPW score and the mean squared treatment
    residual. Not estimable when either point raises.
    """
    try:
        wate, ate = plm(data, arrays, j)[0], aipw(data, arrays, j)[0]
    except (tr.NoVariationError, tr.UndefinedEstimateError) as exc:
        raise NotEstimableError(f"treatment {j} is not estimable: {exc}") from exc
    scores, w_res = aipw_scores(data, arrays, j), residuals(data, arrays, j)[0]
    tau_tab, var_tab, prob_tab = {}, {}, {}
    for code in np.unique(data.x):
        in_stratum = data.x == code
        code = int(code)
        tau_tab[code] = float(scores[in_stratum].mean())
        var_tab[code] = float(np.mean(w_res[in_stratum] ** 2))
        prob_tab[code] = float(in_stratum.mean())
    report = decompose(tau_tab, var_tab, prob_tab, treatment=j, source=Source.ESTIMATED)
    return replace(report, ate=ate, wate=wate, remainder=wate - ate - report.cov_tau_gamma)


def close(got, want, rel=1e-12):
    """``got`` within ``rel * max(1, |want|)`` of ``want``."""
    return abs(got - want) <= rel * max(1.0, abs(want))


def assert_reports_close(got, want, rel=1e-12):
    """Two decomposition reports agree: labels and strata exactly, numbers to ``rel``."""
    assert (got.treatment, got.source, got.strata) == (want.treatment, want.source, want.strata)
    for name in ("ate", "wate", "cov_tau_gamma", "remainder"):
        assert close(getattr(got, name), getattr(want, name), rel), name
    for row, ref in zip(got.per_stratum, want.per_stratum):
        for name in ("probability", "tau", "gamma"):
            assert close(getattr(row, name), getattr(ref, name), rel), (row.stratum, name)
