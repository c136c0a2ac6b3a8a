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
        "summary.json": "7587a2610d70ccd73c069f3b17d7dde86d7d91eb9437c5f3278e78ca6917b2f7",
    },
    "oracle-multinomial": {
        "oracle.csv": "cc3ca53933b6f39a6ebc7c93607b6b81cb727021b73fe9c0ec6a453df57161de",
        "oracle.json": "8769de26eaa8081a2a92e5d8f4ecd2c5589df7301601e49902262fa2a8ab5937",
        "oracle_weights.csv": "8aebd252e79fe760c65532a7dfabf4bc7c898642def3b9cd3a4f8364516f22d2",
        "reversal.csv": "8fcb878e631e39d00af3cd43f2e3b89f231f0b6ea10376a567a14991f69ab7e8",
    },
    "oracle-multinomial-no-delta": {
        "oracle.csv": "cc3ca53933b6f39a6ebc7c93607b6b81cb727021b73fe9c0ec6a453df57161de",
        "oracle.json": "7e53b430ff5b14f8cd34a1b2cc4ceb1acadeb6889ac1a8647fb252a7853260d0",
        "oracle_weights.csv": "8aebd252e79fe760c65532a7dfabf4bc7c898642def3b9cd3a4f8364516f22d2",
        "reversal.csv": "4f255d36ceb617baa908aeef93fee07cf53a31b7cba1d5c41d85a9cfa5bf3611",
    },
    "oracle-parallel": {
        "oracle.csv": "713309b8107aba7bc5b3c08e6eba89b53cdce7ba15c057dd4376fbf956dc4012",
        "oracle.json": "8813eab346cb3dbe3d128590ee69ed1f25f9bb0cbc702d805f415db4258e7a63",
        "oracle_weights.csv": "67650e94131e40cf4507d9e23c7868baa9da9bb45a72f089fd47d22002d7552e",
        "reversal.csv": "042c468d3eca65e057a0adb7989c9579e577df0ed1617b8f2e0d52c7b1482965",
    },
    "oracle-parallel-no-delta": {
        "oracle.csv": "713309b8107aba7bc5b3c08e6eba89b53cdce7ba15c057dd4376fbf956dc4012",
        "oracle.json": "dbd8a29094060ef473f928e7a9729cd8c12c647e630705d70bad0855790809e8",
        "oracle_weights.csv": "67650e94131e40cf4507d9e23c7868baa9da9bb45a72f089fd47d22002d7552e",
        "reversal.csv": "5c8424f78da6a22ba82e6f5bf5bed7419bd2431f2138ecfc153b765491ada886",
    },
    "oracle-reversal": {
        "oracle.csv": "9a2aa9b26f62f078ba47cbdf5833d4913a4407ea346daecf04c111f6b35ef95b",
        "oracle.json": "053cac918bedb457ca814a46377361a121ca7d746861bde6d836d539d388753c",
        "oracle_weights.csv": "e83dd48818323e27cf04f771441cefded0b675557a52f5a3a4780280b56c1cac",
        "reversal.csv": "17f5b5e80b1cf5cf6e5348b72ac77fc832762081a180dd981a64122e74b91727",
    },
    "oracle-reversal-no-delta": {
        "oracle.csv": "9a2aa9b26f62f078ba47cbdf5833d4913a4407ea346daecf04c111f6b35ef95b",
        "oracle.json": "462e728acbf446400fb8bd2c81e7862937754da286907cf7a90412b42644fb38",
        "oracle_weights.csv": "e83dd48818323e27cf04f771441cefded0b675557a52f5a3a4780280b56c1cac",
        "reversal.csv": "239fe21adcb344203792c0851a3e3d22262c5de66b40c5a9709f4406f0f3a3be",
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
