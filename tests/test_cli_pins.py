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
        "decomposition.json": "5f056c1291a6d90a0bf5c9f420ab611be731581fd4cb4f61abf0bdf92c4eb46b",
        "estimates.csv": "5fb0874dc6b37d1e2fd6dc3a1784d32a252b4eb3b702f83763f143cccf4a935e",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-stratum_mean": {
        "decomposition.json": "9a061e4134fa05dab0571bfc2db52d4b0b9be34ea9f7e4d18cd5663c0ace8e99",
        "estimates.csv": "41d9e23b7f6fdf792c18295f2bd721b6506ef3338cce1231fd3a2e2da250fb27",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-no-control": {
        "decomposition.json": "502ced9b3bf5d026405565fbe7eff8b3aaedcb51d00853e9c0b8348a2b224721",
        "estimates.csv": "92ec8ded608d4d17b457b887cbdd82135e2e692b5b21a85e7629b4a0c1573dfa",
        "ranking.json": "91bd4416347c7114d877274f2b78836a5970686ce08a9d304f004027bc8b6df2",
    },
    "estimate-parallel-logistic_ridge": {
        "decomposition.json": "58e816fb8218abe6be2959df35478fb0ba6ebf3b3f1c09fe157e7c19ccc044ec",
        "estimates.csv": "33be78679a49755238d9ec8f26de8d0c2a7bf47b66c1af7b55fd46f276363eb0",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-stratum_mean": {
        "decomposition.json": "73b1a95a2f4b5d2a75f411afdbb2935278d7615cdb55b903b08375106c4c4c27",
        "estimates.csv": "9bff2e6a959fbf1ec80a5fed7641176c0ec241447487131b2e6f6215a04621d2",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "montecarlo-balanced": {
        "resolved_config.yaml": "be634eb3ce00f0a48cedc9265d10cf94432af76961a463a64d3a5b3e0b5c6ad6",
        "summary.json": "8def47619a82d5ac061e5d530ddc1a65a93e8f7dfab2d0b1747ac599b88a87a7",
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
        "dataset.csv": "c424bd363f546c4b22558817f6c1c8eb24154f6472a564abf20078100cd3aa58",
        "resolved_dgp.yaml": "7300da6e22fc081f9bb094928b44337510dfa82ff8830413f25178d3159152ee",
    },
    "sample-parallel": {
        "dataset.csv": "b13669052af1aaa9f465d502dc968bd8e69cd99424b69899c9aa35918db24954",
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
