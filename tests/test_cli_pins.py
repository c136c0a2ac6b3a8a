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
        "decomposition.csv": "5e21ea8205e03dbb0043b4eb3ae1cec87e694a7f80db3de164bb3fc7572263d0",
        "decomposition_strata.csv": "fd7a31c6b2b926d2eccf5452557fef3af9ec99e4960362e6920353fdae17cfe7",
    },
    "decompose-multinomial-logistic_ridge-json": {
        "decomposition.json": "ca33b311e0deb1e644c9b68f3a2094a2e5764f6bda6c11da329941d5eb67ed0a",
    },
    "decompose-multinomial-stratum_mean-csv": {
        "decomposition.csv": "e4a9106a41c173cf1dea6faafb47c665e5d8c6847f60b9d2af911c20be0a462d",
        "decomposition_strata.csv": "083127dbd8e019fa07281d45ebe6ed434371ad7be6d52e87605d776bd4c31d5a",
    },
    "decompose-multinomial-stratum_mean-json": {
        "decomposition.json": "adc10b054db5ad7beab508f408d2b46e4ae4f7bfd76ea24f11ce32d8b24e93a5",
    },
    "decompose-parallel-logistic_ridge-csv": {
        "decomposition.csv": "adec800f8d70e1afa3c938e1d44589988ae19cae6d5af06254e86f4a5ef97414",
        "decomposition_strata.csv": "ce95326cd71863c02b304560d790489aae0c26ef7f9ee298d5c5a3e56fee78af",
    },
    "decompose-parallel-logistic_ridge-json": {
        "decomposition.json": "2f3f55d16d21e6e5c6adad77c84055f659499aed5a00245ce1b1a73f7a16b1b1",
    },
    "decompose-parallel-stratum_mean-csv": {
        "decomposition.csv": "bbe974f8b03e49593b3d18fac99b6eef73bae6b4c85f3c31bcd50eab145b72b0",
        "decomposition_strata.csv": "82c6397a1b5f8533c9cddcbfc3b14773ef54de7f5aa9e2e67114073b85f55836",
    },
    "decompose-parallel-stratum_mean-json": {
        "decomposition.json": "4438335a1e5cced4fd1ba25030f2cd69025784c67337f2830109df89dc5c4541",
    },
    "estimate-multinomial-logistic_ridge-csv": {
        "decomposition.csv": "5e21ea8205e03dbb0043b4eb3ae1cec87e694a7f80db3de164bb3fc7572263d0",
        "decomposition_strata.csv": "fd7a31c6b2b926d2eccf5452557fef3af9ec99e4960362e6920353fdae17cfe7",
        "estimates.csv": "34ab63d9152528b262aa608bf7ee33f5295fd3ac4872bda5568130549ad9be53",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-logistic_ridge-json": {
        "decomposition.json": "ca33b311e0deb1e644c9b68f3a2094a2e5764f6bda6c11da329941d5eb67ed0a",
        "estimates.csv": "34ab63d9152528b262aa608bf7ee33f5295fd3ac4872bda5568130549ad9be53",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-stratum_mean-csv": {
        "decomposition.csv": "e4a9106a41c173cf1dea6faafb47c665e5d8c6847f60b9d2af911c20be0a462d",
        "decomposition_strata.csv": "083127dbd8e019fa07281d45ebe6ed434371ad7be6d52e87605d776bd4c31d5a",
        "estimates.csv": "5b70687ff6cc7dcde1f79690c1ee87078e5170d3f091c80d20bca368d393975f",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-multinomial-stratum_mean-json": {
        "decomposition.json": "adc10b054db5ad7beab508f408d2b46e4ae4f7bfd76ea24f11ce32d8b24e93a5",
        "estimates.csv": "5b70687ff6cc7dcde1f79690c1ee87078e5170d3f091c80d20bca368d393975f",
        "ranking.json": "8fc0c29f19eccc24b76b0e2276147b14a832fcfdd109ef7f639a0680482f7252",
    },
    "estimate-no-control-csv": {
        "decomposition.csv": "02e86dbc3eb43ed08ea14bb3b316b4caf7c5bbe75d6215302c6228aa4d92c7d1",
        "decomposition_strata.csv": "66265439dafd51c810207693c8ba1207a6327bf8a02991331fc66cb383821260",
        "estimates.csv": "929ecbed3969edb248f57c95c9c19ec6b9d5912dba39e5cb7e881ba48f727e32",
        "ranking.json": "91bd4416347c7114d877274f2b78836a5970686ce08a9d304f004027bc8b6df2",
    },
    "estimate-no-control-json": {
        "decomposition.json": "78f9deb0f6dd2c967f1648bbbe20949476972cddfb82571475f6aa44b6bb3cab",
        "estimates.csv": "929ecbed3969edb248f57c95c9c19ec6b9d5912dba39e5cb7e881ba48f727e32",
        "ranking.json": "91bd4416347c7114d877274f2b78836a5970686ce08a9d304f004027bc8b6df2",
    },
    "estimate-parallel-logistic_ridge-csv": {
        "decomposition.csv": "adec800f8d70e1afa3c938e1d44589988ae19cae6d5af06254e86f4a5ef97414",
        "decomposition_strata.csv": "ce95326cd71863c02b304560d790489aae0c26ef7f9ee298d5c5a3e56fee78af",
        "estimates.csv": "aa98751ddaec2444a08b29de0915f0dad5485a7e3087142c41e90cce35f397bb",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-logistic_ridge-json": {
        "decomposition.json": "2f3f55d16d21e6e5c6adad77c84055f659499aed5a00245ce1b1a73f7a16b1b1",
        "estimates.csv": "aa98751ddaec2444a08b29de0915f0dad5485a7e3087142c41e90cce35f397bb",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-stratum_mean-csv": {
        "decomposition.csv": "bbe974f8b03e49593b3d18fac99b6eef73bae6b4c85f3c31bcd50eab145b72b0",
        "decomposition_strata.csv": "82c6397a1b5f8533c9cddcbfc3b14773ef54de7f5aa9e2e67114073b85f55836",
        "estimates.csv": "5d3116805e954f83f2bfbd87ac5d4efd014ac36ca723ee0c2a70a4ea9a60f48a",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "estimate-parallel-stratum_mean-json": {
        "decomposition.json": "4438335a1e5cced4fd1ba25030f2cd69025784c67337f2830109df89dc5c4541",
        "estimates.csv": "5d3116805e954f83f2bfbd87ac5d4efd014ac36ca723ee0c2a70a4ea9a60f48a",
        "ranking.json": "b199c2cb51abe5eac563a2ba50c8f22bd0704f618252833569f4d146885785d9",
    },
    "montecarlo-balanced": {
        "estimate_histograms.csv": "ceb494dda45c53d749590e640ef0ccaa545c2ac79f3449c79ae1621a294cb6db",
        "ranking_rates.csv": "6bf870ee682f6180dcaa3102c7f7399f1882b2f5d030f7f90aab869c873403b8",
        "replicates.csv": "b0e7dfda2ad90ba709111b1bd1518dbc90aa3682679c0f6eff091638c0589d95",
        "resolved_config.yaml": "be634eb3ce00f0a48cedc9265d10cf94432af76961a463a64d3a5b3e0b5c6ad6",
        "summary.csv": "efda4b1ebe2c3c7af8770f1a5b863a7130d1734cfaa36338963144b2277f67f7",
        "summary.json": "38a1f79f134fd988c28a7c04f3494349c5eac56608ef9b665c6aaf83da4230d8",
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
