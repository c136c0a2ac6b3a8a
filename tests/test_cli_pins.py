"""Byte pins for every file the CLI writes.

Each case runs one subcommand through ``cli.main`` and compares the sha256
of every file it writes with a pin. The pins fix the byte layout of the
outputs (key order, row order, float text, line endings), which the other
CLI tests check only in part, so a refactor of the command code must leave
them unchanged. ``summary.json`` is hashed without its volatile
``runtime_seconds`` and ``workers`` fields.

Running this file as a script prints the current hashes; change a pin only
when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import treatrank as tr
from treatrank import cli

N = 300


def _dgps() -> dict[str, tr.StratifiedDGP]:
    return {
        "reversal": tr.preset("extreme_heterogeneity").dgp,
        "parallel": tr.random_dgp(11, num_treatments=3, max_strata=5),
        "multinomial": tr.random_dgp(
            12, num_treatments=3, max_strata=5, propensity_range=(0.1, 0.4),
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        ),
    }


def _no_control_csv(path: Path) -> None:
    """Indicator dataset whose treatment 1 is always taken: no control units."""
    rows = [
        f"{0.25 * i - 3.0!r},1,{i % 2},{i % 3}\r\n" for i in range(24)
    ]
    path.write_text("y,w1,w2,x\r\n" + "".join(rows), newline="")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in _dgps():
        cfg = f"{{tmp}}/{name}.yaml"
        cases[f"oracle-{name}"] = ["oracle", "--config", cfg, "--delta", "0.1"]
        # without --delta the sufficient_condition column is empty
        cases[f"oracle-{name}-no-delta"] = ["oracle", "--config", cfg]
        if name == "reversal":
            continue  # extreme propensities: sampled only through the montecarlo presets
        cases[f"sample-{name}"] = ["sample", "--config", cfg, "--n", str(N), "--seed", "3"]
        for learner in ("stratum_mean", "logistic_ridge"):
            # the dataset of sample --seed 4, on the folds of the same seed
            cases[f"estimate-{name}-{learner}"] = [
                "estimate", "--data", f"{{tmp}}/sample-{name}/dataset.csv", "--seed", "4", "--learner", learner,
            ]
    cases["estimate-no-control"] = ["estimate", "--data", "{tmp}/no_control.csv", "--clip", "0"]
    cases["montecarlo-balanced"] = ["montecarlo", "--preset", "balanced", "--reps", "5", "--n", "200"]
    return cases


def _file_hash(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        obj = json.loads(data)
        for key in ("runtime_seconds", "workers"):
            del obj["result"][key]
        data = (json.dumps(obj, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], tmp: Path) -> dict[str, str]:
    """Run one case in ``tmp``; returns {written file name: sha256}.

    The inputs in ``tmp`` are each DGP's config (``{name}.yaml``), the
    dataset ``sample --n N --seed 4`` draws from it (``sample-{name}/``) and
    ``no_control.csv``.
    """
    for name, dgp in _dgps().items():
        tr.write_dgp_config(dgp, tmp / f"{name}.yaml")
        if name != "reversal":
            assert cli.main(["sample", "--config", str(tmp / f"{name}.yaml"), "--n", str(N),
                             "--seed", "4", "--out", str(tmp / f"sample-{name}")]) == 0
    _no_control_csv(tmp / "no_control.csv")
    out = tmp / "out"
    argv = [a.format(tmp=tmp) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 0
    return {p.name: _file_hash(p) for p in sorted(out.iterdir())}


PINS = {
    "estimate-multinomial-logistic_ridge": {
        "decomposition.json": "00406ad9405e6a9e37c35a82b5beb747fbd6cf01fbb743755d48bfff0f322aee",
        "estimates.csv": "3f572e2f6176d482bc8bc02d05b230607be92cb1e19e7f75555e988901b683d2",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-stratum_mean": {
        "decomposition.json": "87e14c629b8fe85e9ba90d8b72db417bb608bee2a8aa4846a281202d5e0633ae",
        "estimates.csv": "6109f9e36b8d68d4176dc159f0a7af6fb23a6a5bffd82d7082ec0a1e878f4175",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-no-control": {
        "decomposition.json": "b23415b32c9b3cf574d128474a8984b875f910a6d5fb07ddfe60eda32d48ad5c",
        "estimates.csv": "67375906d027868f5812eec6e417cf7c1c74b78aae303488f4afcb972854144d",
        "ranking.json": "91bd4416347c7114d877274f2b78836a5970686ce08a9d304f004027bc8b6df2",
    },
    "estimate-parallel-logistic_ridge": {
        "decomposition.json": "37482be6dd6b4e462b26b39ec3aceeae589167b70663f77d0c49553aa66b7892",
        "estimates.csv": "1281c1df8ba4a73444a2783bc773b056fc7fdd094be1429c1ec15c13076b258b",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-stratum_mean": {
        "decomposition.json": "e1565cd65279ebc33ec7931d6f8e04e700e2284e390f47b8d77858a97db34c09",
        "estimates.csv": "aa7473dd4877355154afab3b319643a4457309f3f0e06f4bed122cd08505c35b",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "montecarlo-balanced": {
        "resolved_config.yaml": "be634eb3ce00f0a48cedc9265d10cf94432af76961a463a64d3a5b3e0b5c6ad6",
        "summary.json": "3f3d42ece8a2f644be4e5db6cfe552b096458ba7bcd8df2f018e8280a1211c6b",
    },
    "oracle-multinomial": {
        "oracle.json": "3a4e3fc3e027c54b34a3ccc7cd50d0905f632a40de4f401df4a8b11c656ba82a",
    },
    "oracle-multinomial-no-delta": {
        "oracle.json": "b9f5d530fa054bdd86949b41d99b8401f82106c1a210a25a9231b44ed47f56b5",
    },
    "oracle-parallel": {
        "oracle.json": "8bef616cf655608fca04e40986be5b91f1e5030faa6307b5d88306f558b3464e",
    },
    "oracle-parallel-no-delta": {
        "oracle.json": "c10ebad9fe9562b62780015bceb71da02674bf26e3b84270fc25c24c32f8fe02",
    },
    "oracle-reversal": {
        "oracle.json": "685ee9b84c91093d6811943b6cbb493f629d1e1bec421cd226511e723f34bb98",
    },
    "oracle-reversal-no-delta": {
        "oracle.json": "53b346d083f73eb45a6a1d1dbbd1fd8517821ad8e107246996f47386ea823a2b",
    },
    "sample-multinomial": {
        "dataset.csv": "b88f780f49d3845e0d2050daf70c185f7b2bdf5a5bcbab6c72b171629ccdf8da",
        "resolved_dgp.yaml": "7300da6e22fc081f9bb094928b44337510dfa82ff8830413f25178d3159152ee",
    },
    "sample-parallel": {
        "dataset.csv": "1f42a53763edd079ccfb8e6389fbe76d95b980850862827ff38b51e11c269cef",
        "resolved_dgp.yaml": "5eb5c10051e4349b54165aaf4d730c5f247a43890cae751d52af58e1f4fef557",
    },
}

# oracle.json's "pairs" serialised alone as {"pairs": ...}: the bytes of the
# reversal.json that the removed ``reversal`` command wrote, under its pins
PAIRS_PINS = {
    "multinomial": "2cd7bd1cff9ce839ca8ced1c504e41c0e2727b63888c1701bef87b5077dbc4d7",
    "parallel": "c9b50b5a4f50db942a6cbc72065e9a9936a652f2664c7982dcdd1f3089198fca",
    "reversal": "acbccece4834c6e263f2a61ddc77ece976408f03c74611c2c706bf611e7fca5c",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_bytes_pinned(case, tmp_path):
    assert run_case(_cases()[case], tmp_path) == PINS[case]


@pytest.mark.parametrize("name", sorted(PAIRS_PINS))
def test_oracle_pairs_pinned(name, tmp_path):
    run_case(_cases()[f"oracle-{name}-no-delta"], tmp_path)
    pairs = json.loads((tmp_path / "out" / "oracle.json").read_text())["pairs"]
    text = json.dumps({"pairs": pairs}, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PAIRS_PINS[name]


if __name__ == "__main__":
    import tempfile

    for case, argv in sorted(_cases().items()):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(argv, Path(tmp))!r},")
