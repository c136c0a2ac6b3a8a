"""Self-test of the benchmark: tiny versions of every workload, and the gates.

    python3 bench/selftest.py

Runs each workload at a small size, traced, and asserts that every gate
passes and that every end-to-end and per-layer metric of BENCHMARK.json is
reported, with its unit, in the final JSON object of both modes. Then
checks that the gates reject a perturbed estimate and that a run failing a
gate reports no metrics. Takes about twenty seconds on two cores.
"""

from __future__ import annotations

import copy
import functools
import shutil
import sys
from dataclasses import replace

import env

# small enough to run in seconds, large enough that every gate still holds
TINY = {
    "mc_reversal": {"pool_reps": 24, "serial_reps": 6, "cycles_per_round": 1},
    "mc_small_n": {"pool_reps": 40, "serial_reps": 8, "cycles_per_round": 2},
    "cli_multiarm": {"n": 5_000},
}
SEED = 7


def check_workloads(workloads, run):
    """Run every tiny workload; return the last outcome."""
    units = run.declared_units()
    for name, sizes in TINY.items():
        workload = replace(workloads.WORKLOADS[name], **sizes)
        workdir = env.OUT / f"selftest-{name}"
        try:
            outcome = workloads.run(workload, SEED, 0.01, True, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed = [g for g in outcome.gates if not g.ok]
        assert not failed, f"{name}: gates failed on a correct program: {failed}"
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            line = run.result_line(outcome, trace, units)
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
            assert set(line["metrics"]) == set(units[kind]), (name, kind, sorted(line["metrics"]))
            for metric, entry in line["metrics"].items():
                assert entry["unit"] == units[kind][metric], (name, metric, entry)
                assert isinstance(entry["value"], float), (name, metric, entry)
        print(f"selftest: {name}: {len(outcome.gates)} gates pass, "
              f"{len(units['end_to_end'])} end-to-end and {len(units['per_layer'])} "
              "per-layer metrics reported with their units")
    return outcome


def check_gates_reject(workloads, gates, run, outcome) -> None:
    from treatrank.montecarlo import preset, run_scenario, scaled

    reversal = workloads.WORKLOADS["mc_reversal"]
    result = run_scenario(scaled(preset(reversal.preset), num_reps=30, seed=SEED), workers=1)
    gate = functools.partial(gates.mc_gates, ranking=True, mean_targets=reversal.mean_targets)
    assert all(g.ok for g in gate(result))
    shifted = copy.deepcopy(result)
    aipw = shifted.estimates["aipw"]
    aipw[:, 0] += 10 * aipw[:, 0].std(ddof=1) / aipw.shape[0] ** 0.5
    rejected = [g.name for g in gate(shifted) if not g.ok]
    assert rejected == ["mc.aipw_mean_vs_oracle_ate.t1"], rejected

    multiarm = replace(workloads.WORKLOADS["cli_multiarm"], **TINY["cli_multiarm"])
    workdir = env.OUT / "selftest-gates"
    try:
        stp = workloads.setup(multiarm, SEED, workdir)
        cycle = workloads.run_cycle(stp.dgp_path, multiarm.n, SEED, multiarm.learner, workdir / "c")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rows = workloads.estimate_rows(cycle.estimates_csv)
    assert all(g.ok for g in gates.cli_gates(rows, stp.dgp, list(cycle.exit_codes)))
    bad = copy.deepcopy(rows)
    row = next(r for r in bad if r["method"] == "aipw" and r["treatment"] == "2")
    row["point"] = str(float(row["point"]) + 10 * float(row["std_error"]))
    rejected = [g.name for g in gates.cli_gates(bad, stp.dgp, list(cycle.exit_codes))
                if not g.ok]
    assert rejected == ["cli.aipw_vs_oracle_ate.t2"], rejected
    rejected = [g.name for g in gates.cli_gates(rows[:-1], stp.dgp, [0, 1]) if not g.ok]
    assert rejected == ["cli.exit_codes", "cli.estimates_rows"], rejected

    outcome.gates.append(gates.Gate("perturbed", False, ""))
    line = run.result_line(outcome, False, run.declared_units())
    assert not line["correct"] and line["failed"] == 1 and line["metrics"] == {}, line
    print("selftest: gates reject a shifted AIPW mean, a shifted CLI point, a missing row "
          "and a failed command; a failing run reports no metrics")


def main() -> int:
    env.prepare()
    env.OUT.mkdir(exist_ok=True)
    import gates
    import run
    import workloads

    outcome = check_workloads(workloads, run)
    check_gates_reject(workloads, gates, run, outcome)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
