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
        "decomposition.json": "53cb0a6ff3d49d3401e70a39b976550da6c95a22af230cce898d0fe91f8d0c6e",
        "estimates.csv": "db2e637072e77b51ce187fa2e288625479a4479a526a7bf4f2e9e4ee3cfd7a5c",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-stratum_mean": {
        "decomposition.json": "e5b22b1b9bd626d9ecd4bd0a6d0ed15f5d4aed9661ab5d440ba7bb02e1a809d5",
        "estimates.csv": "8a8970d297961711a6b9bfe7cde7a9bef4350fc2fc8fe65e1b2e23e4eccbfdb5",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-no-control": {
        "decomposition.json": "b23415b32c9b3cf574d128474a8984b875f910a6d5fb07ddfe60eda32d48ad5c",
        "estimates.csv": "67375906d027868f5812eec6e417cf7c1c74b78aae303488f4afcb972854144d",
        "ranking.json": "91bd4416347c7114d877274f2b78836a5970686ce08a9d304f004027bc8b6df2",
    },
    "estimate-parallel-logistic_ridge": {
        "decomposition.json": "bb478b60d78a41fd3ab52a27bd08a242c92da0d872b617428a60d0feb0784b1b",
        "estimates.csv": "aab43b89b847cf0f3e566bce27c99968fd66d2e3831249d927954464b1515595",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-stratum_mean": {
        "decomposition.json": "38ec516f9e54ea8c9ef0ef21ab3d97a948dccb00bcedf0d365ff7530a65483df",
        "estimates.csv": "eb64bf4be9ed528b96edd3a224ad39414049d886590c55de4964e7e5ad7f73e0",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "montecarlo-balanced": {
        "resolved_config.yaml": "be634eb3ce00f0a48cedc9265d10cf94432af76961a463a64d3a5b3e0b5c6ad6",
        "summary.json": "4e57a57944b49ceb3be65b748d60023d703e330c2a509ad2d111798b547e45bf",
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
        "dataset.csv": "96f3ec70fa68fb4cd38aa60ca3e4b7b320b3186d03516b92885eb748d3b55100",
        "resolved_dgp.yaml": "7300da6e22fc081f9bb094928b44337510dfa82ff8830413f25178d3159152ee",
    },
    "sample-parallel": {
        "dataset.csv": "ea98a3174879d41c9efc9473eeef2fd45008e9bba58b21415105964406b3e214",
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
