"""Per-unit reference for the nuisance tables, the estimators and the decomposition.

A fit holds (fold, dataset, stratum) tables and held-out cell moments; the
estimators and ``estimate_decomposition`` sum over cells. This module keeps
the direct per-unit route as a test-local reference: ``unit_arrays`` gathers
a fit's tables back to one prediction per unit, and the estimator functions
below are the per-unit formulas over those arrays (scores, residuals and
boolean masks over every unit).
"""

from __future__ import annotations

import numpy as np

import treatrank as tr
from treatrank.diagnostics import NotEstimableError, Source, decompose

FIELDS = ("y_hat", "p_hat", "mu_treated", "mu_control", "restricted_y", "restricted_p", "control_p")


def unit_arrays(data, fit, folds=None):
    """``{field: per-unit array}`` in the unit order of a single dataset.

    ``fit`` is the dataset's fit (or row ``b`` of a block's, with ``data``
    row ``b``); ``folds`` is its fold assignment, None for a one-fold fit.
    Per-treatment fields are ``(n, K)``; absent multinomial fields are None.
    """
    fold = np.zeros(data.n, dtype=np.int64) if folds is None else folds.fold_of
    stratum = np.searchsorted(fit.levels, data.x)
    assert np.array_equal(fit.levels[stratum], data.x)
    out = {}
    for name in FIELDS:
        table = getattr(fit, name)
        if table is None:
            out[name] = None
        elif table.ndim == 3:  # [dataset, fold, stratum]
            out[name] = table[0, fold, stratum]
        else:  # [treatment, dataset, fold, stratum]
            out[name] = table[:, 0, fold, stratum].T
    return out


def indicators(data, j):
    """(treated, control) 0/1 indicators of treatment ``j``'s two sides."""
    treated = data.w[:, j - 1].astype(np.int8)
    if data.assignment_mode is tr.AssignmentMode.PARALLEL_BINARY:
        return treated, 1 - treated
    return treated, (data.w.sum(axis=1) == 0).astype(np.int8)


def _propensities(data, arrays, j):
    p = arrays["p_hat"][:, j - 1]
    if data.assignment_mode is tr.AssignmentMode.PARALLEL_BINARY:
        return p, 1.0 - p
    return p, arrays["control_p"]


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


def plm(data, arrays, j):
    """(point, SE, units used) of the residual-on-residual regression."""
    treated, control = indicators(data, j)
    if data.assignment_mode is tr.AssignmentMode.PARALLEL_BINARY:
        p, m = arrays["p_hat"][:, j - 1], arrays["y_hat"]
        mask = np.ones(data.n, dtype=bool)
    else:
        p, m = arrays["restricted_p"][:, j - 1], arrays["restricted_y"][:, j - 1]
        mask = (treated == 1) | (control == 1)
    w_res = np.where(mask, treated - p, 0.0)
    y_res = np.where(mask, data.y - m, 0.0)
    denom = np.sum(w_res**2)
    if denom <= 0.0:
        raise tr.NoVariationError(f"treatment {j} residuals have zero variation")
    point = float(np.sum(w_res * y_res) / denom)
    resid = y_res - point * w_res
    se = float(np.sqrt(np.sum(w_res**2 * resid**2)) / denom)
    return _checked(point, se, int(mask.sum()))


def aipw(data, arrays, j):
    treated, control = indicators(data, j)
    p, q = _propensities(data, arrays, j)
    scores = (_dr_score(data.y, treated, arrays["mu_treated"][:, j - 1], p)
              - _dr_score(data.y, control, arrays["mu_control"][:, j - 1], q))
    return _checked(*_mean_and_se(scores), data.n)


def ipw(data, arrays, j):
    treated, control = indicators(data, j)
    p, q = _propensities(data, arrays, j)
    return _checked(*_mean_and_se(treated * data.y / p - control * data.y / q), data.n)


REFERENCE = {tr.Method.PLM: plm, tr.Method.AIPW: aipw, tr.Method.IPW: ipw}


def decomposition(data, arrays, j):
    """The per-stratum-mask plug-in decomposition."""
    treated, control = (side == 1 for side in indicators(data, j))
    p_j = arrays["p_hat"][:, j - 1]
    tau_tab, var_tab, prob_tab = {}, {}, {}
    dropped = 0
    for code in np.unique(data.x):
        in_stratum = data.x == code
        if not np.any(in_stratum & treated) or not np.any(in_stratum & control):
            dropped += 1
            continue
        code = int(code)
        tau_tab[code] = float(
            data.y[in_stratum & treated].mean() - data.y[in_stratum & control].mean()
        )
        p_bar = float(p_j[in_stratum].mean())
        var_tab[code] = p_bar * (1.0 - p_bar)
        prob_tab[code] = float(in_stratum.mean())
    if not tau_tab:
        raise NotEstimableError(f"no stratum has both treated and control units for treatment {j}")
    total = sum(prob_tab.values())
    prob_tab = {s: p / total for s, p in prob_tab.items()}
    return decompose(tau_tab, var_tab, prob_tab, treatment=j, source=Source.ESTIMATED,
                     dropped_strata=dropped)


def close(got, want, rel=1e-12):
    """``got`` within ``rel * max(1, |want|)`` of ``want``."""
    return abs(got - want) <= rel * max(1.0, abs(want))


def assert_reports_close(got, want, rel=1e-12):
    """Two decomposition reports agree: labels and counts exactly, numbers to ``rel``."""
    assert (got.treatment, got.source, got.dropped_strata, got.strata) == (
        want.treatment, want.source, want.dropped_strata, want.strata)
    for name in ("ate", "wate", "cov_tau_gamma"):
        assert close(getattr(got, name), getattr(want, name), rel), name
    for row, ref in zip(got.per_stratum, want.per_stratum):
        for name in ("probability", "tau", "gamma"):
            assert close(getattr(row, name), getattr(ref, name), rel), (row.stratum, name)
