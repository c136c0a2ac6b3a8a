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
        "reversal": tr.extreme_heterogeneity_dgp(),
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
        for fmt in ("json", "csv"):
            cases[f"oracle-{name}-{fmt}"] = ["oracle", "--config", cfg, "--format", fmt, "--delta", "0.1"]
            cases[f"reversal-{name}-{fmt}"] = ["reversal", "--config", cfg, "--format", fmt]
        if name == "reversal":
            continue  # extreme propensities: sampled only through the montecarlo presets
        cases[f"sample-{name}"] = ["sample", "--config", cfg, "--n", str(N), "--seed", "3"]
        for cmd in ("estimate", "decompose"):
            for learner in ("stratum_mean", "logistic_ridge"):
                for fmt in ("json", "csv"):
                    cases[f"{cmd}-{name}-{learner}-{fmt}"] = [
                        cmd, "--config", cfg, "--n", str(N), "--seed", "4",
                        "--learner", learner, "--format", fmt,
                    ]
    for fmt in ("json", "csv"):
        cases[f"estimate-no-control-{fmt}"] = [
            "estimate", "--data", "{tmp}/no_control.csv", "--clip", "0", "--format", fmt,
        ]
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
    """Run one case in ``tmp``; returns {written file name: sha256}."""
    for name, dgp in _dgps().items():
        tr.write_dgp_config(dgp, tmp / f"{name}.yaml")
    _no_control_csv(tmp / "no_control.csv")
    out = tmp / "out"
    argv = [a.format(tmp=tmp) for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == 0
    return {p.name: _file_hash(p) for p in sorted(out.iterdir())}


PINS = {
    "decompose-multinomial-logistic_ridge-csv": {
        "decomposition.csv": "e212524e7cf2660a0f570f7d3621787357b778ba489a481dd71e1c9e2023dcfd",
        "decomposition_strata.csv": "28d2e3281b1feb5cabafd79065c13a913b7564aa0e60100161d90c59b786804f",
    },
    "decompose-multinomial-logistic_ridge-json": {
        "decomposition.json": "8a0ff5c2e39f8c1e5e01c224d625d04c0dacd2f0f399dbd6d5dae739245c2933",
    },
    "decompose-multinomial-stratum_mean-csv": {
        "decomposition.csv": "437ba9ea1674bab998b15077798a31370a439dc7ea605821f4ecaba7c2b11be1",
        "decomposition_strata.csv": "da456768d11c5a2ac51372c9f636c14d551dd94a7cbb3575142e8fe20aa8c9a6",
    },
    "decompose-multinomial-stratum_mean-json": {
        "decomposition.json": "21a2e4341cc20a98075cda1d1af7dfd116a61cb05c98cfcb6b940c583e712eb0",
    },
    "decompose-parallel-logistic_ridge-csv": {
        "decomposition.csv": "08965dcffc6b2128e4bedb5bf3d94995cacc87bf506fbc1153d1b96ebcd375a9",
        "decomposition_strata.csv": "894a23d8d68e6b95c3d09dc35cdae5f07851d877949c6485f2c0dbaaa03cffee",
    },
    "decompose-parallel-logistic_ridge-json": {
        "decomposition.json": "30d874bfb5a782db37900336382332ab91eaa1163514c85a12f570a110feadb0",
    },
    "decompose-parallel-stratum_mean-csv": {
        "decomposition.csv": "e0b665ebe850b3bfc01ae82f3cc393b4d6127aa945a4768ae51d5fb1c3851ceb",
        "decomposition_strata.csv": "0be7f02fdb80dd7504e83d3b4d092547a4ead214aee42c3cb4385f69af924997",
    },
    "decompose-parallel-stratum_mean-json": {
        "decomposition.json": "c61884c8d701cb5f2c209bf4a7bdda20e62e7805a217ad5e8b4ab9acfc6475b2",
    },
    "estimate-multinomial-logistic_ridge-csv": {
        "decomposition.csv": "e212524e7cf2660a0f570f7d3621787357b778ba489a481dd71e1c9e2023dcfd",
        "decomposition_strata.csv": "28d2e3281b1feb5cabafd79065c13a913b7564aa0e60100161d90c59b786804f",
        "estimates.csv": "456cacc2f3a1298e2f68eabc4731a26f1bf460f962a656d3b18ea12c036729b5",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-logistic_ridge-json": {
        "decomposition.json": "8a0ff5c2e39f8c1e5e01c224d625d04c0dacd2f0f399dbd6d5dae739245c2933",
        "estimates.csv": "456cacc2f3a1298e2f68eabc4731a26f1bf460f962a656d3b18ea12c036729b5",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-stratum_mean-csv": {
        "decomposition.csv": "437ba9ea1674bab998b15077798a31370a439dc7ea605821f4ecaba7c2b11be1",
        "decomposition_strata.csv": "da456768d11c5a2ac51372c9f636c14d551dd94a7cbb3575142e8fe20aa8c9a6",
        "estimates.csv": "0fcdc712fc06dd0b73616a161edbf6e82aec48d3f1341f637b26d6bdb3d61e2e",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-stratum_mean-json": {
        "decomposition.json": "21a2e4341cc20a98075cda1d1af7dfd116a61cb05c98cfcb6b940c583e712eb0",
        "estimates.csv": "0fcdc712fc06dd0b73616a161edbf6e82aec48d3f1341f637b26d6bdb3d61e2e",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-no-control-csv": {
        "decomposition.csv": "02e86dbc3eb43ed08ea14bb3b316b4caf7c5bbe75d6215302c6228aa4d92c7d1",
        "decomposition_strata.csv": "66265439dafd51c810207693c8ba1207a6327bf8a02991331fc66cb383821260",
        "estimates.csv": "3263a01b16c83584dbec73e210f46e36fc60fb6005e7832aeca94e36e6ca6756",
        "ranking.json": "91bd4416347c7114d877274f2b78836a5970686ce08a9d304f004027bc8b6df2",
    },
    "estimate-no-control-json": {
        "decomposition.json": "78f9deb0f6dd2c967f1648bbbe20949476972cddfb82571475f6aa44b6bb3cab",
        "estimates.csv": "3263a01b16c83584dbec73e210f46e36fc60fb6005e7832aeca94e36e6ca6756",
        "ranking.json": "91bd4416347c7114d877274f2b78836a5970686ce08a9d304f004027bc8b6df2",
    },
    "estimate-parallel-logistic_ridge-csv": {
        "decomposition.csv": "08965dcffc6b2128e4bedb5bf3d94995cacc87bf506fbc1153d1b96ebcd375a9",
        "decomposition_strata.csv": "894a23d8d68e6b95c3d09dc35cdae5f07851d877949c6485f2c0dbaaa03cffee",
        "estimates.csv": "e0fe051f82d5c7eafd406365f5f68cca8a202f890d69f86e0f5e20b012ed1624",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-logistic_ridge-json": {
        "decomposition.json": "30d874bfb5a782db37900336382332ab91eaa1163514c85a12f570a110feadb0",
        "estimates.csv": "e0fe051f82d5c7eafd406365f5f68cca8a202f890d69f86e0f5e20b012ed1624",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-stratum_mean-csv": {
        "decomposition.csv": "e0b665ebe850b3bfc01ae82f3cc393b4d6127aa945a4768ae51d5fb1c3851ceb",
        "decomposition_strata.csv": "0be7f02fdb80dd7504e83d3b4d092547a4ead214aee42c3cb4385f69af924997",
        "estimates.csv": "45b0058f61272e07bb5ef002b4b5c3d956f66c57099bcc6117a24a88c46eca1e",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-stratum_mean-json": {
        "decomposition.json": "c61884c8d701cb5f2c209bf4a7bdda20e62e7805a217ad5e8b4ab9acfc6475b2",
        "estimates.csv": "45b0058f61272e07bb5ef002b4b5c3d956f66c57099bcc6117a24a88c46eca1e",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "montecarlo-balanced": {
        "estimate_histograms.csv": "88d10403be064780cbd3bd911ce09085837e31b8c7c2c83bbbf1dca795a980fe",
        "ranking_rates.csv": "6bf870ee682f6180dcaa3102c7f7399f1882b2f5d030f7f90aab869c873403b8",
        "replicates.csv": "d24e1daa711a373793e7d3682d5691da348223e6f00624c9721ba496e8a8b732",
        "resolved_config.yaml": "be634eb3ce00f0a48cedc9265d10cf94432af76961a463a64d3a5b3e0b5c6ad6",
        "summary.csv": "e79c1f44773a4e0c8155cf2592dd44bba0a64140201ab4051f7293b3ffefce0b",
        "summary.json": "cbae030d98e7d6c91b24467a49cf6d09dabff6bd1294b9e27e22698bd81597e4",
    },
    "oracle-multinomial-csv": {
        "oracle.csv": "1ddec046c98b641e53d5113f9200d60d44134b949826bb5e267c5716f4ad625b",
        "oracle_weights.csv": "d0adaad9fc66a9d78bdd88e8663b842df991ebbcf19446804de3f38dc5450aae",
        "reversal.csv": "8fcb878e631e39d00af3cd43f2e3b89f231f0b6ea10376a567a14991f69ab7e8",
    },
    "oracle-multinomial-json": {
        "oracle.json": "5a68e00ad053a8c123c1234d27191d1006d5a51229c511f33ef0aaaa6b335fa7",
    },
    "oracle-parallel-csv": {
        "oracle.csv": "713309b8107aba7bc5b3c08e6eba89b53cdce7ba15c057dd4376fbf956dc4012",
        "oracle_weights.csv": "e259dd94e3cd29e9f5c41e215943de71e7fde067186737eb8d811019c30df750",
        "reversal.csv": "042c468d3eca65e057a0adb7989c9579e577df0ed1617b8f2e0d52c7b1482965",
    },
    "oracle-parallel-json": {
        "oracle.json": "8813eab346cb3dbe3d128590ee69ed1f25f9bb0cbc702d805f415db4258e7a63",
    },
    "oracle-reversal-csv": {
        "oracle.csv": "9a2aa9b26f62f078ba47cbdf5833d4913a4407ea346daecf04c111f6b35ef95b",
        "oracle_weights.csv": "7cde1e98b6cf2365e30379fe8f74fd77e8e4d81ac8117924c90b8152dd6b45aa",
        "reversal.csv": "96f61b8216f0f4bcb54580299ba2bba65f79dc3a066d604ed9d99f175a969e2d",
    },
    "oracle-reversal-json": {
        "oracle.json": "a5a5fcdd0f3f03e8085d39c42dddf08cbfd127ba23883955c01a94f1b44a17d3",
    },
    "reversal-multinomial-csv": {
        "reversal.csv": "4f255d36ceb617baa908aeef93fee07cf53a31b7cba1d5c41d85a9cfa5bf3611",
    },
    "reversal-multinomial-json": {
        "reversal.json": "2cd7bd1cff9ce839ca8ced1c504e41c0e2727b63888c1701bef87b5077dbc4d7",
    },
    "reversal-parallel-csv": {
        "reversal.csv": "5c8424f78da6a22ba82e6f5bf5bed7419bd2431f2138ecfc153b765491ada886",
    },
    "reversal-parallel-json": {
        "reversal.json": "c9b50b5a4f50db942a6cbc72065e9a9936a652f2664c7982dcdd1f3089198fca",
    },
    "reversal-reversal-csv": {
        "reversal.csv": "7702f0fd0f8cfc793964bbee0dc09b3027032a28158c904609954249d55e576a",
    },
    "reversal-reversal-json": {
        "reversal.json": "e2da4bd39c55fcf79371074ca20280a559c8af3b48b5c9fb26979ac4c05f3349",
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_bytes_pinned(case, tmp_path):
    assert run_case(_cases()[case], tmp_path) == PINS[case]


if __name__ == "__main__":
    import tempfile

    for case, argv in sorted(_cases().items()):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {run_case(argv, Path(tmp))!r},")
