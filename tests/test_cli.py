from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import yaml

import treatrank as tr
from treatrank import cli, nuisance
from treatrank.estimators import ESTIMATORS, Method

from test_cli_pins import PINS, _cases, _no_control_csv, run_case
from unit_reference import close


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


@pytest.fixture
def dgp_config(tmp_path, reversal_dgp):
    path = tmp_path / "dgp.yaml"
    tr.write_dgp_config(reversal_dgp, path)
    return path


@pytest.fixture
def sampled(tmp_path, dgp_config):
    """``sampled(n, seed)``: the dataset CSV that ``sample`` draws from ``dgp_config``."""
    def draw(n: int, seed: int = 0) -> Path:
        out = tmp_path / f"sample-{n}-{seed}"
        assert run_cli("sample", "--config", dgp_config, "--n", n, "--seed", seed, "--out", out) == 0
        return out / "dataset.csv"
    return draw


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestConfigRoundTrip:
    def test_dgp_round_trip(self, tmp_path, reversal_dgp):
        path = tmp_path / "dgp.yaml"
        tr.write_dgp_config(reversal_dgp, path)
        assert tr.load_dgp_config(path) == reversal_dgp

    def test_multinomial_round_trip(self, tmp_path):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.25), (1, 0.75)),
            num_treatments=2,
            propensity=np.array([[0.2, 0.1], [0.3, 0.4]]),
            effect=np.array([[1.0, 2.0], [0.0, -1.0]]),
            baseline=np.array([0.5, 1.5]),
            noise_sd=0.7,
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        path = tmp_path / "dgp.yaml"
        tr.write_dgp_config(dgp, path)
        assert tr.load_dgp_config(path) == dgp

    def test_invariant_violation_named(self, tmp_path, dgp_config):
        text = dgp_config.read_text().replace("probability: 0.5", "probability: 0.45", 1)
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        with pytest.raises(tr.ConfigError, match="sum to 1"):
            tr.load_dgp_config(bad)

    def test_missing_table_entry_named(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "strata: [{id: 0, probability: 1.0}]\n"
            "num_treatments: 1\n"
            "baseline: {0: 0.0}\n"
            "propensity: {1: {}}\n"
            "effect: {1: {0: 1.0}}\n"
        )
        with pytest.raises(tr.ConfigError, match="propensity"):
            tr.load_dgp_config(bad)

    GOOD_DGP = {
        "strata": "[{id: 0, probability: 1.0}]",
        "num_treatments": "1",
        "baseline": "{0: 0.0}",
        "propensity": "{1: {0: 0.5}}",
        "effect": "{1: {0: 1.0}}",
    }

    @pytest.mark.parametrize("field, value, named", [
        ("propensity", "{1: 0.5}", "propensity[1]: expected a mapping, got float"),
        ("baseline", "[0.0]", "baseline: expected a mapping, got list"),
        ("num_treatments", "two", "num_treatments: expected an integer"),
        ("effect", "[{0: 1.0}]", "effect: expected a mapping, got list"),
    ])
    def test_malformed_table_exits_with_named_field(self, tmp_path, capsys, field, value, named):
        bad = tmp_path / "bad.yaml"
        bad.write_text("".join(
            f"{key}: {value if key == field else text}\n" for key, text in self.GOOD_DGP.items()
        ))
        assert run_cli("oracle", "--config", bad, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"treatrank oracle: error: {bad}.{named}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value, message", [
        ("propensity", "{1: {0: .nan}}", "all propensities must lie strictly in (0, 1)"),
        ("effect", "{1: {0: .inf}}", "effect table must be finite"),
        ("noise_sd", ".nan", "noise_sd must be finite and >= 0, got nan"),
    ])
    def test_non_finite_table_named_with_the_file(self, tmp_path, capsys, field, value, message):
        bad = tmp_path / "bad.yaml"
        fields = {**self.GOOD_DGP, field: value}
        bad.write_text("".join(f"{key}: {text}\n" for key, text in fields.items()))
        with pytest.raises(tr.ConfigError, match=re.escape(f"{bad}: {message}")):
            tr.load_dgp_config(bad)
        assert run_cli("oracle", "--config", bad, "--out", tmp_path / "o") == 1
        assert f"{bad}: {message}" in capsys.readouterr().err

    def test_yaml_syntax_error_has_location(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("strata: [{id: 0, probability: 1.0}\n")
        with pytest.raises(tr.ConfigError, match="line"):
            tr.load_dgp_config(bad)


class TestDatasetCsv:
    def test_indicator_layout_round_trip(self, tmp_path, reversal_dgp):
        data = tr.sample(reversal_dgp, 200, seed=1)
        path = tmp_path / "data.csv"
        tr.write_dataset_csv(data, path)
        again = tr.load_dataset_csv(path)
        assert again == data

    def test_arm_layout_round_trip(self, tmp_path):
        dgp = tr.StratifiedDGP(
            strata=((0, 0.5), (1, 0.5)),
            num_treatments=2,
            propensity=np.array([[0.3, 0.2], [0.2, 0.3]]),
            effect=np.ones((2, 2)),
            baseline=np.zeros(2),
            assignment_mode=tr.AssignmentMode.MULTINOMIAL,
        )
        data = tr.sample(dgp, 200, seed=2)
        path = tmp_path / "data.csv"
        tr.write_dataset_csv(data, path)
        header, _ = read_csv(path)
        assert header == ["y", "w", "x"]
        assert tr.load_dataset_csv(path) == data

    def test_blank_fields_rejected_with_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,w,x\n1.0,1,0\n2.0,,1\n")
        with pytest.raises(tr.ConfigError, match=":3"):
            tr.load_dataset_csv(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(tr.ConfigError, match="header"):
            tr.load_dataset_csv(path)

    def test_no_treated_units_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,w,x\n1.0,0,0\n2.0,0,1\n")
        with pytest.raises(tr.ConfigError, match="treated"):
            tr.load_dataset_csv(path)


class TestOracleCommand:
    def test_json_payload(self, tmp_path, dgp_config):
        out = tmp_path / "out"
        assert run_cli("oracle", "--config", dgp_config, "--out", out, "--delta", 1.0) == 0
        payload = json.loads((out / "oracle.json").read_text())
        wates = {t["treatment"]: t["wate"] for t in payload["treatments"]}
        assert wates[1] == pytest.approx(2.7714, abs=1e-4)
        assert wates[2] == pytest.approx(-1.8095, abs=1e-4)
        assert payload["reversed_pairs"] == [[1, 2]]
        assert payload["pairs"][0]["sufficient_condition"] is True

    def test_writes_only_oracle_json_in_estimates_shape(self, tmp_path, dgp_config, sampled):
        # one file, whose entries have decomposition.json's keys in the same order
        out, est = tmp_path / "out", tmp_path / "est"
        assert run_cli("oracle", "--config", dgp_config, "--out", out) == 0
        assert [p.name for p in out.iterdir()] == ["oracle.json"]
        payload = json.loads((out / "oracle.json").read_text())
        assert list(payload) == ["treatments", "reversed_pairs", "pairs"]
        assert run_cli("estimate", "--data", sampled(2_000), "--out", est) == 0
        estimated = json.loads((est / "decomposition.json").read_text())
        assert [list(t) for t in payload["treatments"]] == [list(r) for r in estimated]
        assert [list(s) for t in payload["treatments"] for s in t["per_stratum"]] == [
            list(s) for r in estimated for s in r["per_stratum"]]

    def test_constant_effect_config_zero_covariances(self, tmp_path):
        dgp = tr.preset(tr.ScenarioName.CONSTANT_EFFECTS).dgp
        cfg = tmp_path / "dgp.yaml"
        tr.write_dgp_config(dgp, cfg)
        out = tmp_path / "out"
        assert run_cli("oracle", "--config", cfg, "--out", out) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert all(t["cov_tau_gamma"] == pytest.approx(0.0, abs=1e-12) for t in payload["treatments"])

    @pytest.mark.parametrize("name", ["extreme_heterogeneity", "panel_negative_covariance",
                                      "panel_zero_covariance", "panel_positive_covariance"])
    def test_per_stratum_is_the_closed_form(self, tmp_path, name):
        # each treatment's entry holds the oracle values and the DGP's tables, bit for bit
        cfg, out = tr.packaged_config_path(f"{name}.yaml"), tmp_path / "out"
        assert run_cli("oracle", "--config", cfg, "--out", out) == 0
        dgp = tr.load_dgp_config(cfg)
        treatments = json.loads((out / "oracle.json").read_text())["treatments"]
        assert [t["treatment"] for t in treatments] == list(range(1, dgp.num_treatments + 1))
        for t in treatments:
            j = t["treatment"]
            assert (t["source"], t["ate"], t["wate"], t["remainder"]) == (
                "oracle", tr.oracle_ate(dgp, j), tr.oracle_wate(dgp, j), 0.0)
            rows = t["per_stratum"]
            assert [s["stratum"] for s in rows] == dgp.stratum_codes.tolist()
            assert [s["probability"] for s in rows] == dgp.stratum_probs.tolist()
            assert [s["tau"] for s in rows] == dgp.effect[j - 1].tolist()
            assert [s["gamma"] for s in rows] == tr.oracle_weights(dgp, j).tolist()

    @pytest.mark.parametrize("case", sorted(c for c in _cases() if c.startswith("oracle-")))
    def test_reversed_pairs_are_the_pairs_flagged(self, tmp_path, case):
        # on every pinned oracle case: reversed_pairs lists the pairs flagged reversed,
        # and without --delta no pair has a sufficient condition
        run_case(_cases()[case], tmp_path)
        payload = json.loads((tmp_path / "out" / "oracle.json").read_text())
        assert payload["pairs"]
        no_delta = case.endswith("-no-delta")
        assert all((p["sufficient_condition"] is None) == no_delta for p in payload["pairs"])
        assert payload["reversed_pairs"] == [
            [p["treatment_j"], p["treatment_k"]] for p in payload["pairs"] if p["reversed"]]

    def test_malformed_config_exits_nonzero(self, tmp_path, dgp_config, capsys):
        text = dgp_config.read_text().replace("probability: 0.5", "probability: 0.45", 1)
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert run_cli("oracle", "--config", bad, "--out", tmp_path / "o") == 1
        assert "sum to 1" in capsys.readouterr().err

    def test_reports_pair_flags(self, tmp_path, dgp_config):
        for out, delta in ((tmp_path / "d", ["--delta", 1.0]), (tmp_path / "n", [])):
            assert run_cli("oracle", "--config", dgp_config, "--out", out, *delta) == 0
        with_delta, without = (json.loads((tmp_path / d / "oracle.json").read_text())["pairs"]
                               for d in ("d", "n"))
        assert with_delta[0]["reversed"] is without[0]["reversed"] is True
        assert with_delta[0]["sufficient_condition"] is True
        assert without[0]["sufficient_condition"] is None

    def test_tied_pair_not_sufficient(self, tmp_path, tied_dgp):
        # Cov_1 < -delta and Cov_2 > delta, but a tie is no reversal
        cfg, out = tmp_path / "tied.yaml", tmp_path / "out"
        tr.write_dgp_config(tied_dgp, cfg)
        assert run_cli("oracle", "--config", cfg, "--delta", 0.1, "--out", out) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["reversed_pairs"] == []
        assert payload["pairs"] == [{"treatment_j": 1, "treatment_k": 2, "reversed": False,
                                     "margin": 0.0, "sufficient_condition": False}]

    @pytest.mark.parametrize("delta", ["nan", "0"])
    def test_delta_not_positive_exits_nonzero(self, tmp_path, dgp_config, capsys, delta):
        out = tmp_path / "out"
        assert run_cli("oracle", "--config", dgp_config, "--out", out, "--delta", delta) == 1
        assert "delta must be > 0" in capsys.readouterr().err


class TestSampleCommand:
    def test_writes_dataset_and_resolved_config(self, tmp_path, dgp_config):
        out = tmp_path / "out"
        assert run_cli("sample", "--config", dgp_config, "--n", 50, "--seed", 4, "--out", out) == 0
        header, rows = read_csv(out / "dataset.csv")
        assert header == ["y", "w1", "w2", "x"]
        assert len(rows) == 50
        assert tr.load_dgp_config(out / "resolved_dgp.yaml") == tr.load_dgp_config(dgp_config)

    def test_sampling_matches_library(self, tmp_path, dgp_config, reversal_dgp):
        out = tmp_path / "out"
        run_cli("sample", "--config", dgp_config, "--n", 50, "--seed", 4, "--out", out)
        assert tr.load_dataset_csv(out / "dataset.csv") == tr.sample(reversal_dgp, 50, seed=4)

    def test_zero_n_rejected(self, tmp_path, dgp_config, capsys):
        assert run_cli("sample", "--config", dgp_config, "--n", 0, "--out", tmp_path / "o") == 1
        assert "--n" in capsys.readouterr().err


class TestEstimateCommand:
    def test_full_run_outputs(self, tmp_path, sampled):
        out = tmp_path / "out"
        assert run_cli("estimate", "--data", sampled(10_000, 7), "--seed", 7, "--out", out) == 0
        header, rows = read_csv(out / "estimates.csv")
        assert header == cli.ESTIMATES_HEADER
        points = {(r[1], int(r[0])): float(r[3]) for r in rows if r[3]}
        assert points[("plm", 1)] == pytest.approx(2.7714, abs=0.2)
        assert points[("aipw", 2)] == pytest.approx(0.5, abs=0.3)
        ranking = json.loads((out / "ranking.json").read_text())
        assert ranking["ordering_by_ate"] == [2, 1]
        assert ranking["ordering_by_wate"] == [1, 2]
        assert ranking["reversed_pairs"] == [[1, 2]]
        decomposition = json.loads((out / "decomposition.json").read_text())
        assert len(decomposition) == 2
        assert all("per_stratum" in d for d in decomposition)

    def test_estimator_programming_error_propagates(self, tmp_path, sampled, monkeypatch):
        def broken(data, fit, j):
            raise TypeError("not a data problem")

        monkeypatch.setitem(ESTIMATORS, Method.IPW, broken)
        with pytest.raises(TypeError, match="not a data problem"):
            run_cli("estimate", "--data", sampled(200), "--out", tmp_path / "o")

    def test_estimator_data_error_recorded(self, tmp_path, sampled, monkeypatch):
        def no_variation(data, fit, j):
            raise tr.NoVariationError(f"no variation for {j}")

        monkeypatch.setitem(ESTIMATORS, Method.PLM, no_variation)
        out = tmp_path / "o"
        assert run_cli("estimate", "--data", sampled(200), "--out", out) == 0
        header, rows = read_csv(out / "estimates.csv")
        errors = [r[header.index("error")] for r in rows if r[1] == "plm"]
        assert errors == ["no variation for 1", "no variation for 2"]
        # the decompositions split the estimates the command reports
        rows = json.loads((out / "decomposition.json").read_text())
        assert [(r["treatment"], r["error"].endswith(f"no variation for {r['treatment']}"))
                for r in rows] == [(1, True), (2, True)]

    def test_failed_fit_exits_nonzero_with_message(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("y,w,x\n" + "1.0,1,0\n2.0,1,1\n" * 6)  # no control units
        out = tmp_path / "o"
        assert run_cli("estimate", "--data", path, "--learner", "logistic_ridge", "--out", out) == 1
        assert "single class" in capsys.readouterr().err

    def test_newton_cap_exits_nonzero_with_message(self, tmp_path, sampled, monkeypatch, capsys):
        # a failed fit leaves nothing to estimate, as with a single-class split
        data = sampled(500)
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", 1)
        out = tmp_path / "o"
        assert run_cli("estimate", "--data", data, "--learner", "logistic_ridge", "--out", out) == 1
        assert "did not converge in 1 Newton steps" in capsys.readouterr().err
        assert not (out / "estimates.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_imported_data_without_controls_flags_treatment_only(self, tmp_path):
        # treatment 2 has no control condition: w2 is always 1, and unclipped
        # its PLM residuals are all 0 and its AIPW control weights infinite
        gen = np.random.default_rng(5)
        n = 400
        x = gen.integers(0, 2, size=n)
        w1 = (gen.random(n) < 0.5).astype(int)
        y = x + w1 + gen.normal(size=n)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("y,w1,w2,x\n")
            for i in range(n):
                fh.write(f"{float(y[i])!r},{w1[i]},1,{x[i]}\n")
        out = tmp_path / "out"
        assert run_cli("estimate", "--data", path, "--out", out, "--clip", 0) == 0
        rows = json.loads((out / "decomposition.json").read_text())
        errors = {r["treatment"]: r.get("error", "") for r in rows}
        assert errors[1] == ""
        assert "zero variation" in errors[2]
        # the error rows are where estimates.csv has a PLM or AIPW error
        header, rows = read_csv(out / "estimates.csv")
        assert {int(r[0]) for r in rows if r[1] in ("plm", "aipw") and r[header.index("error")]} \
            == {j for j, error in errors.items() if error} == {2}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(c for c in _cases() if c.startswith("estimate-")))
    def test_decomposition_splits_the_estimates(self, tmp_path, case):
        # on every pinned estimate case: wate and ate are the PLM and AIPW points,
        # and the error rows are where either has one
        run_case(_cases()[case], tmp_path)
        out = tmp_path / "out"
        with open(out / "estimates.csv", newline="") as fh:
            estimates = list(csv.DictReader(fh))
        points = {(r["method"], int(r["treatment"])): float(r["point"])
                  for r in estimates if not r["error"]}
        rows = json.loads((out / "decomposition.json").read_text())
        failed = {int(r["treatment"]) for r in estimates if r["method"] != "ipw" and r["error"]}
        assert {int(r["treatment"]) for r in rows if r.get("error")} == failed
        assert failed == ({1} if "no-control" in case else set())
        for row in (r for r in rows if not r.get("error")):
            j, ate, wate = int(row["treatment"]), float(row["ate"]), float(row["wate"])
            assert close(ate, points["aipw", j]) and close(wate, points["plm", j]), row
            parts = ate + float(row["cov_tau_gamma"]) + float(row["remainder"])
            assert abs(wate - parts) <= 1e-12, row

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(c for c in _cases() if c.startswith("estimate-")))
    def test_ranking_orders_the_estimates(self, tmp_path, case):
        # on every pinned estimate case: ranking.json orders the AIPW and PLM points
        # of estimates.csv, and its reversed pairs are where the two orders disagree
        run_case(_cases()[case], tmp_path)
        out = tmp_path / "out"
        with open(out / "estimates.csv", newline="") as fh:
            estimates = list(csv.DictReader(fh))
        ate, wate = ({int(r["treatment"]): float(r["point"]) for r in estimates
                      if r["method"] == method and not r["error"]} for method in ("aipw", "plm"))
        assert set(ate) == set(wate)
        pairs = list(combinations(sorted(ate), 2))
        by_ate, by_wate = (sorted(p, key=lambda t: (-p[t], t)) for p in (ate, wate))
        # agreement: the share of pairs the two orderings list in the same order
        agree = [(by_ate.index(j) < by_ate.index(k)) == (by_wate.index(j) < by_wate.index(k))
                 for j, k in pairs]
        assert json.loads((out / "ranking.json").read_text()) == {
            "ordering_by_ate": by_ate,
            "ordering_by_wate": by_wate,
            "reversed_pairs": [[j, k] for j, k in pairs
                               if (ate[j] - ate[k]) * (wate[j] - wate[k]) < 0],
            "agreement": sum(agree) / len(pairs) if pairs else 1.0,
        }

    def test_non_finite_outcome_becomes_error_rows(self, tmp_path):
        data = tr.sample(tr.preset("balanced").dgp, 400, seed=1)
        data.y[3] = np.nan
        path = tmp_path / "data.csv"
        tr.write_dataset_csv(data, path)
        out = tmp_path / "out"
        assert run_cli("estimate", "--data", path, "--out", out) == 0
        header, rows = read_csv(out / "estimates.csv")
        assert rows and all(row[header.index("error")] for row in rows)
        rows = json.loads((out / "decomposition.json").read_text())
        assert [r["treatment"] for r in rows] == [1, 2]
        assert all(set(r) == {"treatment", "error"} and "not finite" in r["error"] for r in rows)

    @pytest.mark.parametrize("flags,message", [
        (["--data", "{data}", "--config", "{config}"], "unrecognized arguments: --config"),
        (["--data", "{data}", "--n", "99999"], "unrecognized arguments: --n 99999"),
        (["--config", "{config}", "--n", "99999"], "the following arguments are required: --data"),
        ([], "the following arguments are required: --data"),
    ])
    def test_data_is_the_one_source(self, tmp_path, dgp_config, sampled, capsys, flags, message):
        # estimate imports a dataset; sample draws one from a config
        data = sampled(200)
        argv = [f.format(data=data, config=dgp_config) for f in flags]
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", *argv, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_decomposition_fields(self, tmp_path, sampled):
        out = tmp_path / "out"
        assert run_cli("estimate", "--data", sampled(2_000, 7), "--seed", 7, "--out", out) == 0
        rows = json.loads((out / "decomposition.json").read_text())
        assert [list(r) for r in rows] == [
            ["treatment", "source", "ate", "cov_tau_gamma", "wate", "remainder", "per_stratum"],
        ] * 2
        assert [list(s) for r in rows for s in r["per_stratum"]] == [
            ["stratum", "probability", "tau", "gamma"],
        ] * 4


class TestMonteCarloCommand:
    def test_preset_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "montecarlo", "--preset", "extreme_heterogeneity",
            "--reps", 16, "--n", 1_000, "--workers", 2, "--out", out,
        ) == 0
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.yaml", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        result = summary["result"]
        assert result["num_reps"] == 16 and result["workers"] == 2
        assert {m: np.shape(e) for m, e in result["estimates"].items()} == dict.fromkeys(
            ("plm", "aipw", "ipw"), (16, 2))
        assert all(0.0 <= r <= 1.0 for r in result["correct_ranking_rate"].values())
        assert result["runtime_seconds"] > 0
        assert len(summary["summary"]) == 3 * 2
        # the study's counts, as a serial run counts them
        serial = tr.run_scenario(tr.scaled(tr.preset("extreme_heterogeneity"), num_reps=16,
                                           n_per_rep=1_000)).diagnostics
        assert serial["clipped_count"] > 0 and not serial["failures"]
        assert summary["diagnostics"] == {"clipped_count": serial["clipped_count"],
                                          "fallback_count": serial["fallback_count"],
                                          "failures": []}
        # the resolved config reproduces the run
        config = tr.load_scenario_config(out / "resolved_config.yaml")
        assert config.num_reps == 16
        assert config.n_per_rep == 1_000

    def test_study_whose_every_fit_fails(self, tmp_path):
        # eight units over five folds leave a logistic training split with a
        # single class, so the one replicate's fit fails
        config = replace(tr.scaled(tr.preset("extreme_heterogeneity"), num_reps=1, n_per_rep=8),
                         learner=tr.LearnerSpec(kind=tr.LearnerKind.LOGISTIC_RIDGE))
        path, out = tmp_path / "scenario.yaml", tmp_path / "out"
        tr.write_scenario_config(config, path)
        assert run_cli("montecarlo", "--config", path, "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.yaml", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["result"]["failure_count"] == 6
        assert summary["result"]["learner"]["kind"] == "logistic_ridge"
        assert [(r["failures"], r["mean"]) for r in summary["summary"]] == [(1, None)] * 6
        assert summary["result"]["estimates"] == dict.fromkeys(("plm", "aipw", "ipw"), [[None] * 2])
        # no replicate has every estimate, so no ranking rate
        assert summary["result"]["correct_ranking_rate"] == dict.fromkeys(("plm", "aipw", "ipw"))
        # the study's counts, and its failures by cause; no *_seconds entry
        assert summary["diagnostics"] == {
            "clipped_count": 0, "fallback_count": 0,
            "failures": [{"method": m, "treatment": j, "error": "SingularFitError", "count": 1}
                         for m in ("aipw", "ipw", "plm") for j in (1, 2)]}

    def test_unknown_preset_lists_names(self, tmp_path, capsys):
        assert run_cli("montecarlo", "--preset", "nope", "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "valid presets" in err and "balanced" in err

    def test_scenario_config_file_accepted(self, tmp_path):
        config = tr.scaled(tr.preset("balanced"), num_reps=4, n_per_rep=500)
        path = tmp_path / "scenario.yaml"
        tr.write_scenario_config(config, path)
        out = tmp_path / "out"
        assert run_cli("montecarlo", "--config", path, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["result"]["scenario"] == "balanced"
        assert summary["result"]["num_reps"] == 4

    @pytest.mark.parametrize("field,value,message", [
        ("num_folds", 1, "num_folds must be in [2, n_per_rep=500], got 1"),
        ("num_folds", 501, "num_folds must be in [2, n_per_rep=500], got 501"),
        ("clip", 0.7, "clip must be in [0, 0.5), got 0.7"),
        ("clip", -0.1, "clip must be in [0, 0.5), got -0.1"),
        ("seed", -3, "seed must be an integer in [0, 2**64), got -3"),
        ("seed", 2**64, f"seed must be an integer in [0, 2**64), got {2**64}"),
    ])
    def test_invalid_settings_rejected_at_load(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "scenario.yaml"
        tr.write_scenario_config(tr.scaled(tr.preset("balanced"), num_reps=4, n_per_rep=500), path)
        text = path.read_text()
        line = next(ln for ln in text.splitlines() if ln.startswith(f"{field}:"))
        path.write_text(text.replace(line, f"{field}: {value}"))
        with pytest.raises(tr.ConfigError, match=re.escape(f"{path}: {message}")):
            tr.load_scenario_config(path)
        assert run_cli("montecarlo", "--config", path, "--out", tmp_path / "o") == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("command,field,value,context", [
        ("montecarlo", "dgp.noise_sd", None, ".dgp: "),
        ("montecarlo", "clip", None, ": "),
        ("montecarlo", "num_reps", [3], ": "),
        ("montecarlo", "learner.ridge_penalty", None, ".learner: "),
        ("oracle", "dgp.noise_sd", None, ": "),
    ])
    def test_mistyped_setting_is_a_config_error(self, tmp_path, capsys, command, field, value,
                                                 context):
        # float(None) and int([3]) raise TypeError; the loader reports it as ConfigError
        raw = yaml.safe_load(tr.packaged_config_path("balanced.yaml").read_text())
        *parents, key = field.split(".")
        table = raw
        for parent in parents:
            table = table[parent]
        table[key] = value
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        loader = tr.load_scenario_config if command == "montecarlo" else tr.load_dgp_config
        with pytest.raises(tr.ConfigError):
            loader(path)
        assert run_cli(command, "--config", path, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"treatrank {command}: error: {path}{context}")
        assert "NoneType" in err or "list" in err

    @pytest.mark.parametrize("flags,message", [
        ([], "one of the arguments --preset --config is required"),
        (["--preset", "balanced", "--config", "{config}"],
         "argument --config: not allowed with argument --preset"),
    ])
    def test_requires_preset_or_config(self, tmp_path, capsys, flags, message):
        # a scenario given twice is not silently resolved to one of them
        path = tmp_path / "scenario.yaml"
        tr.write_scenario_config(tr.scaled(tr.preset("balanced"), num_reps=2, n_per_rep=200), path)
        with pytest.raises(SystemExit) as exc:
            run_cli("montecarlo", *[f.format(config=path) for f in flags], "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--folds", "3"), ("--learner", "logistic_ridge"), ("--clip", "0.05"),
    ])
    def test_fit_flags_are_the_scenarios(self, tmp_path, capsys, flag, value):
        # the scenario config owns the folds, learner and clip a run fits with
        with pytest.raises(SystemExit) as exc:
            run_cli("montecarlo", "--preset", "balanced", "--reps", 2, "--n", 200, flag, value,
                    "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestReplicateReproduction:
    def test_sample_then_estimate_reproduce_a_replicate(self, tmp_path):
        # README's recipe: replicate r of a study with seed s is the dataset
        # sample --seed s + 2**64 * (256 * r + 257) draws from the resolved
        # config, estimated on the folds of --seed s + 2**64 * (256 * r + 258)
        # with the scenario's folds, learner and clip. r = 45 is in the
        # second block of 40 replicates at n = 200
        s, n = 11, 200
        study = tmp_path / "study"
        assert run_cli("montecarlo", "--preset", "balanced", "--reps", 50, "--n", n,
                       "--seed", s, "--out", study) == 0
        estimates = json.loads((study / "summary.json").read_text())["result"]["estimates"]
        config = tr.load_scenario_config(study / "resolved_config.yaml")
        assert config.seed == s and tr.montecarlo.BLOCK_UNITS // n == 40
        for r in (3, 45):
            sample, estimate = tmp_path / f"sample-{r}", tmp_path / f"estimate-{r}"
            assert run_cli("sample", "--config", study / "resolved_config.yaml", "--n", n,
                           "--seed", s + 2**64 * (256 * r + 257), "--out", sample) == 0
            assert run_cli("estimate", "--data", sample / "dataset.csv",
                           "--seed", s + 2**64 * (256 * r + 258),
                           "--folds", config.num_folds, "--learner", config.learner.kind.value,
                           "--clip", config.clip, "--out", estimate) == 0
            with open(estimate / "estimates.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert {row["method"] for row in rows} == {"plm", "aipw", "ipw"}
            for row in rows:
                assert float(row["point"]) == estimates[row["method"]][r][int(row["treatment"]) - 1]


class TestFailedCommandOutput:
    """A failed command removes the ``--out`` it made, never one that was there."""

    def test_oracle_delta_zero_leaves_no_directory(self, tmp_path, dgp_config):
        out = tmp_path / "new" / "out"
        assert run_cli("oracle", "--config", dgp_config, "--delta", 0, "--out", out) == 1
        assert not (tmp_path / "new").exists()

    def test_sample_zero_n_leaves_no_directory(self, tmp_path, dgp_config):
        out = tmp_path / "out"
        assert run_cli("sample", "--config", dgp_config, "--n", 0, "--out", out) == 1
        assert not out.exists()

    def test_estimate_arm_label_past_the_limit_leaves_no_directory(self, tmp_path, capsys):
        # an arm label of 2**40 once asked numpy for a 1 TiB indicator matrix
        data = tmp_path / "data.csv"
        data.write_bytes(b"y,w,x\r\n1.5,1099511627776,0\r\n")
        out = tmp_path / "out"
        assert run_cli("estimate", "--data", data, "--out", out) == 1
        assert capsys.readouterr().err == (f"treatrank estimate: error: {data}:2: arm label "
                                           "1099511627776 is past the 64-arm limit\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["oracle", "--delta", "0"], ["sample", "--n", "0"]])
    def test_existing_directory_survives(self, tmp_path, dgp_config, argv):
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
        assert run_cli(*argv, "--config", dgp_config, "--out", out) == 1
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text() == "kept\n"

    def test_parent_written_meanwhile_survives(self, tmp_path, dgp_config, monkeypatch):
        # this call makes results/ and results/a; another run writes results/b meanwhile
        def fails_after_sibling_writes(args):
            (args.out / "partial.txt").write_text("partial\n")
            (args.out.parent / "b").mkdir()
            (args.out.parent / "b" / "kept.txt").write_text("kept\n")
            raise ValueError("failed")

        monkeypatch.setitem(cli.COMMANDS, "oracle", fails_after_sibling_writes)
        results = tmp_path / "results"
        assert run_cli("oracle", "--config", dgp_config, "--out", results / "a") == 1
        assert [p.name for p in results.iterdir()] == ["b"]
        assert (results / "b" / "kept.txt").read_text() == "kept\n"


class TestCommands:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: treatrank {command}")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["oracle", "--config", "{config}"],
        ["sample", "--config", "{config}", "--n", "50"],
        ["estimate", "--data", "dataset.csv"],
        ["montecarlo", "--preset", "balanced", "--reps", "2", "--n", "200"],
    ])
    def test_format_rejected(self, tmp_path, capsys, dgp_config, argv, fmt):
        # every command writes one fixed set of files, so none takes a --format
        with pytest.raises(SystemExit) as exc:
            run_cli(*[a.format(config=dgp_config) for a in argv], "--format", fmt,
                    "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["reversal", "decompose"])
    def test_removed_commands_are_usage_errors(self, tmp_path, dgp_config, capsys, command):
        # oracle writes the reversal rows, estimate the decompositions
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", dgp_config, "--out", tmp_path / "o")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{command}'" in err
        choices = re.findall(r"\w+", err.split("choose from", 1)[1])
        assert choices == ["oracle", "sample", "estimate", "montecarlo"]
        assert not (tmp_path / "o").exists()


class TestSeedPropagation:
    def test_seed_override_changes_results(self, tmp_path, sampled):
        # sample's --seed draws the dataset, estimate's the folds
        datasets = [sampled(500, seed).read_text() for seed in (1, 1, 2)]
        assert datasets[0] == datasets[1] != datasets[2]
        out_a, out_b, out_c = (tmp_path / s for s in ("a", "b", "c"))
        for out, seed in ((out_a, 1), (out_b, 1), (out_c, 2)):
            assert run_cli("estimate", "--data", sampled(500, 1), "--seed", seed, "--out", out) == 0
        read = lambda p: (p / "estimates.csv").read_text()
        assert read(out_a) == read(out_b)
        assert read(out_a) != read(out_c)

    @pytest.mark.parametrize("argv", [
        ["sample", "--config", "{config}", "--n", "50"],
        ["estimate", "--data", "dataset.csv"],
        ["montecarlo", "--preset", "balanced", "--reps", "2", "--n", "200"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "x", "bound"])
    def test_bad_seed_is_a_usage_error(self, tmp_path, dgp_config, capsys, argv, seed):
        # a seed outside rng's layout is a usage error, not a failure inside
        # the run: a scenario seed is a root seed, below 2**64, and a dataset
        # or fold seed may be any child seed, below 2**120
        bits = 64 if argv[0] == "montecarlo" else 120
        seed = str(2**bits) if seed == "bound" else seed
        with pytest.raises(SystemExit) as exc:
            run_cli(*[a.format(config=dgp_config) for a in argv], "--seed", seed,
                    "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert (f"argument --seed: seed must be an integer in [0, 2**{bits}), got '{seed}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_closed_form_commands_take_no_seed(self, tmp_path, dgp_config, capsys):
        # oracle's output is a function of the config alone
        with pytest.raises(SystemExit) as exc:
            run_cli("oracle", "--config", dgp_config, "--seed", 1, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestInProcessCalls:
    """``main`` parses every call with one parser: no call sees another's arguments."""

    # the pinned default case: stratum-mean learner, default folds and clip
    DEFAULT = ["estimate", "--data", "{tmp}/sample-parallel/dataset.csv", "--seed", "4"]
    PIN = PINS["estimate-parallel-stratum_mean"]
    OVERRIDES = ["--learner", "logistic_ridge", "--folds", "3", "--clip", "0.05"]

    def run(self, tmp, *flags):
        """Inputs in ``tmp``, outputs in ``tmp/out``; {file name: sha256}."""
        tmp.mkdir()
        return run_case(self.DEFAULT + list(flags), tmp)

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_after_overridden_flags(self, tmp_path):
        self.run(tmp_path / "first", *self.OVERRIDES)
        assert self.run(tmp_path / "second") == self.PIN
        args = cli.build_parser().parse_args(["estimate", "--data", "d.csv", "--out", "o"])
        assert (args.learner, args.folds, args.clip) == (
            tr.LearnerKind.STRATUM_MEAN.value, nuisance.DEFAULT_NUM_FOLDS, nuisance.DEFAULT_CLIP)

    def test_same_bytes_as_a_fresh_process(self, tmp_path):
        self.run(tmp_path / "first", *self.OVERRIDES)
        self.run(tmp_path / "second")
        here = tmp_path / "second"
        argv = [a.format(tmp=here) for a in self.DEFAULT] + ["--out", str(here / "fresh")]
        src = str(Path(tr.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "treatrank.cli", *argv], check=True,
                       env={**os.environ, "PYTHONPATH": path})
        written = sorted(p.name for p in (here / "out").iterdir())
        assert sorted(p.name for p in (here / "fresh").iterdir()) == written
        for name in written:
            assert (here / "fresh" / name).read_bytes() == (here / "out" / name).read_bytes()

    def test_usage_error_between_calls(self, tmp_path, capsys):
        before = self.run(tmp_path / "before")
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", "--learner", "logistic_ridge", "--folds", "three",
                    "--out", tmp_path / "bad")
        assert exc.value.code == 2
        assert "invalid int value: 'three'" in capsys.readouterr().err
        assert self.run(tmp_path / "after") == before == self.PIN
