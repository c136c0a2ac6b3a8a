"""Correctness gates: a run reports timings only if every gate passes.

Each gate is a pure function of the program's outputs, so the self-test can
feed it perturbed estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from treatrank.dgp import AssignmentMode, StratifiedDGP, oracle_ate, oracle_wate
from treatrank.estimators import Method
from treatrank.montecarlo import MonteCarloResult

# how far (in Monte Carlo or the estimate's own standard errors) a mean or a
# point may sit from its target; at 5 a correct program fails a single
# check with probability ~6e-7
Z_GATE = 5.0
# the reversal study's acceptance thresholds (README)
AIPW_MIN_RATE = 0.95
PLM_MAX_RATE = 0.05


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str


def _z(mean: float, target: float, se: float) -> float:
    return (mean - target) / se if se > 0 else math.inf


def mc_gates(result: MonteCarloResult, ranking: bool,
             mean_targets: tuple[tuple[str, str], ...]) -> list[Gate]:
    """Accuracy gates on one ``run_scenario`` result.

    ``ranking`` adds the reversal study's correct-ranking-rate gates;
    ``mean_targets`` lists (method, ``"ate"`` or ``"wate"``) mean gates.
    """
    attempted = result.num_reps * len(result.treatments) * len(result.estimates)
    gates = [Gate("mc.estimator_failures", result.failure_count == 0,
                  f"{result.failure_count} of {attempted} failed")]
    if ranking:
        aipw, plm = result.correct_ranking_rate["aipw"], result.correct_ranking_rate["plm"]
        gates.append(Gate("mc.aipw_correct_ranking_rate", aipw > AIPW_MIN_RATE,
                          f"{aipw:.3f} > {AIPW_MIN_RATE}"))
        gates.append(Gate("mc.plm_correct_ranking_rate", plm < PLM_MAX_RATE,
                          f"{plm:.3f} < {PLM_MAX_RATE}"))
    targets = {"ate": result.oracle_ate, "wate": result.oracle_wate}
    for method, target in mean_targets:
        points = result.estimates[method]
        for idx, j in enumerate(result.treatments):
            col = points[:, idx]
            mcse = float(col.std(ddof=1) / math.sqrt(col.size)) if col.size > 1 else 0.0
            z = _z(float(col.mean()), targets[target][idx], mcse)
            gates.append(Gate(f"mc.{method}_mean_vs_oracle_{target}.t{j}", abs(z) <= Z_GATE,
                              f"mean {col.mean():.5f} oracle {targets[target][idx]:.5f} "
                              f"z {z:+.2f} (|z| <= {Z_GATE:g} MCSE)"))
    return gates


def cli_gates(rows: list[dict], dgp: StratifiedDGP, exit_codes: list[int]) -> list[Gate]:
    """Gates on one estimates.csv: shape, errors, AIPW/IPW (and parallel PLM) accuracy.

    PLM under multinomial assignment is not gated: ``oracle_wate`` is not
    its probability limit there (ROADMAP item 1).
    """
    K = dgp.num_treatments
    errors = [r for r in rows if r.get("error")]
    gates = [
        Gate("cli.exit_codes", all(rc == 0 for rc in exit_codes),
             f"{sum(rc != 0 for rc in exit_codes)} of {len(exit_codes)} commands exited non-zero"),
        Gate("cli.estimates_rows", len(rows) == 3 * K and not errors,
             f"{len(rows)} rows (want {3 * K}), {len(errors)} with an error"),
    ]
    parallel = dgp.assignment_mode is AssignmentMode.PARALLEL_BINARY
    for row in rows:
        if row.get("error"):
            continue
        j, method = int(row["treatment"]), row["method"]
        if method in (Method.AIPW.value, Method.IPW.value):
            target, label = oracle_ate(dgp, j), "ate"
        elif parallel:
            target, label = oracle_wate(dgp, j), "wate"
        else:
            continue
        z = _z(float(row["point"]), target, float(row["std_error"]))
        gates.append(Gate(f"cli.{method}_vs_oracle_{label}.t{j}", abs(z) <= Z_GATE,
                          f"point {float(row['point']):.5f} oracle {target:.5f} "
                          f"z {z:+.2f} (|z| <= {Z_GATE:g} SE)"))
    return gates


def plm_vs_oracle_wate(rows: list[dict], dgp: StratifiedDGP) -> list[str]:
    """Ungated multinomial PLM points next to ``oracle_wate``, to keep the gap visible."""
    if dgp.assignment_mode is not AssignmentMode.MULTINOMIAL:
        return []
    return [
        f"plm t{r['treatment']} point {float(r['point']):.5f} oracle_wate "
        f"{oracle_wate(dgp, int(r['treatment'])):.5f} (not gated)"
        for r in rows
        if r["method"] == Method.PLM.value and not r.get("error")
    ]
