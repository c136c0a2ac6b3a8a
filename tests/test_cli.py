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

    def test_csv_headers(self, tmp_path, dgp_config):
        out = tmp_path / "out"
        assert run_cli("oracle", "--config", dgp_config, "--out", out) == 0
        header, rows = read_csv(out / "oracle.csv")
        assert header == cli.ORACLE_HEADER
        assert len(rows) == 2
        header, _ = read_csv(out / "oracle_weights.csv")
        assert header == cli.ORACLE_WEIGHTS_HEADER
        header, _ = read_csv(out / "reversal.csv")
        assert header == cli.REVERSAL_HEADER

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
    def test_json_and_csv_weights_are_the_same_text(self, tmp_path, name):
        # oracle.json and its tables print the one oracle report: every gamma, ate and wate alike
        cfg, out = tr.packaged_config_path(f"{name}.yaml"), tmp_path / "out"
        assert run_cli("oracle", "--config", cfg, "--out", out) == 0
        payload = json.loads((out / "oracle.json").read_text(), parse_float=str)
        from_json = {(t["treatment"], int(s)): g for t in payload["treatments"]
                     for s, g in t["gamma"].items()}
        _, rows = read_csv(out / "oracle_weights.csv")
        assert from_json == {(int(t), int(s)): g for t, s, _, _, g in rows}
        _, rows = read_csv(out / "oracle.csv")
        assert [[str(t["treatment"]), t["ate"], t["wate"], t["cov_tau_gamma"]]
                for t in payload["treatments"]] == rows

    @pytest.mark.parametrize("case", sorted(c for c in _cases() if c.startswith("oracle-")))
    def test_reversal_csv_is_the_json_pairs(self, tmp_path, case):
        # on every pinned oracle case: reversal.csv and oracle.json's pairs print the one
        # pair list, and without --delta neither has a sufficient condition
        run_case(_cases()[case], tmp_path)
        out = tmp_path / "out"
        payload = json.loads((out / "oracle.json").read_text(), parse_float=str)
        header, rows = read_csv(out / "reversal.csv")
        assert header == cli.REVERSAL_HEADER
        text = {True: "True", False: "False", None: ""}
        assert rows and rows == [
            [str(p["treatment_j"]), str(p["treatment_k"]), text[p["reversed"]], p["margin"],
             text[p["sufficient_condition"]]]
            for p in payload["pairs"]
        ]
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
        assert read_csv(out / "reversal.csv")[1] == [["1", "2", "False", "0.0", "False"]]
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


class TestEstimateCommand:
    def test_full_run_outputs(self, tmp_path, dgp_config):
        out = tmp_path / "out"
        assert run_cli(
            "estimate", "--config", dgp_config, "--n", 10_000, "--seed", 7, "--out", out
        ) == 0
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

    def test_zero_n_rejected(self, tmp_path, dgp_config, capsys):
        assert run_cli(
            "estimate", "--config", dgp_config, "--n", 0, "--out", tmp_path / "o"
        ) == 1
        assert "--n" in capsys.readouterr().err

    def test_estimator_programming_error_propagates(self, tmp_path, dgp_config, monkeypatch):
        def broken(data, fit, j):
            raise TypeError("not a data problem")

        monkeypatch.setitem(ESTIMATORS, Method.IPW, broken)
        with pytest.raises(TypeError, match="not a data problem"):
            run_cli("estimate", "--config", dgp_config, "--n", 200, "--out", tmp_path / "o")

    def test_estimator_data_error_recorded(self, tmp_path, dgp_config, monkeypatch):
        def no_variation(data, fit, j):
            raise tr.NoVariationError(f"no variation for {j}")

        monkeypatch.setitem(ESTIMATORS, Method.PLM, no_variation)
        out = tmp_path / "o"
        assert run_cli("estimate", "--config", dgp_config, "--n", 200, "--out", out) == 0
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

    def test_newton_cap_exits_nonzero_with_message(self, tmp_path, dgp_config, monkeypatch, capsys):
        # a failed fit leaves nothing to estimate, as with a single-class split
        monkeypatch.setattr(nuisance, "NEWTON_MAX_ITER", 1)
        out = tmp_path / "o"
        assert run_cli("estimate", "--config", dgp_config, "--n", 500,
                       "--learner", "logistic_ridge", "--out", out) == 1
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
        agree = [np.sign(ate[j] - ate[k]) == np.sign(wate[j] - wate[k]) for j, k in pairs]
        assert json.loads((out / "ranking.json").read_text()) == {
            "ordering_by_ate": sorted(ate, key=lambda t: (-ate[t], t)),
            "ordering_by_wate": sorted(wate, key=lambda t: (-wate[t], t)),
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

    @pytest.mark.parametrize("flags", [
        ["--data", "{data}", "--config", "{config}"],
        ["--config", "{config}", "--data", "{data}"],
        ["--data", "{data}", "--n", "99999"],
        ["--n", "99999", "--data", "{data}"],
        ["--data", "{data}", "--config", "{config}", "--n", "99999"],
    ])
    def test_data_excludes_config_and_n(self, tmp_path, dgp_config, reversal_dgp, capsys, flags):
        # an imported dataset is estimated as it is: a --config or --n is not silently dropped
        data = tmp_path / "data.csv"
        tr.write_dataset_csv(tr.sample(reversal_dgp, 200, seed=1), data)
        argv = [f.format(data=data, config=dgp_config) for f in flags]
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", *argv, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert re.search(r"treatrank estimate: error: argument --(data|config|n): "
                         r"not allowed with argument --(data|config|n)", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_requires_data_or_config(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", "--n", 200, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert "one of the arguments --data --config is required" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_decomposition_fields(self, tmp_path, dgp_config):
        out = tmp_path / "out"
        assert run_cli(
            "estimate", "--config", dgp_config, "--n", 2_000, "--seed", 7, "--out", out,
        ) == 0
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
        summary = json.loads((out / "summary.json").read_text())
        assert summary["result"]["num_reps"] == 16
        header, rows = read_csv(out / "replicates.csv")
        assert header == cli.REPLICATES_HEADER
        assert len(rows) == 16 * 3 * 2
        header, rows = read_csv(out / "ranking_rates.csv")
        assert header == cli.RANKING_RATES_HEADER
        rates = {r[0]: float(r[1]) for r in rows}
        assert set(rates) == {"plm", "aipw", "ipw"}
        header, _ = read_csv(out / "estimate_histograms.csv")
        assert header == cli.HISTOGRAM_HEADER
        header, _ = read_csv(out / "summary.csv")
        assert header == cli.SUMMARY_HEADER
        # the resolved config reproduces the run
        config = tr.load_scenario_config(out / "resolved_config.yaml")
        assert config.num_reps == 16
        assert config.n_per_rep == 1_000

    def test_study_whose_every_fit_fails(self, tmp_path):
        # eight units over five folds leave a logistic training split with a
        # single class, so the one replicate's fit fails
        out = tmp_path / "out"
        assert run_cli(
            "montecarlo", "--preset", "extreme_heterogeneity", "--reps", 1, "--n", 8,
            "--learner", "logistic_ridge", "--out", out,
        ) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "estimate_histograms.csv", "ranking_rates.csv", "replicates.csv",
            "resolved_config.yaml", "summary.csv", "summary.json",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["result"]["failure_count"] == 6
        assert [(r["failures"], r["mean"]) for r in summary["summary"]] == [(1, None)] * 6
        header, rows = read_csv(out / "summary.csv")
        assert header == cli.SUMMARY_HEADER and len(rows) == 6
        assert all(r[header.index("mean")] == "" for r in rows)
        _, rows = read_csv(out / "estimate_histograms.csv")
        assert rows == []
        # no replicate has every estimate, so no ranking rate
        assert read_csv(out / "ranking_rates.csv")[1] == [[m, ""] for m in ("plm", "aipw", "ipw")]
        assert summary["result"]["correct_ranking_rate"] == dict.fromkeys(("plm", "aipw", "ipw"))

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

    def test_learner_flag_keeps_penalty_and_basis(self, tmp_path):
        # --learner names the kind only: the scenario's ridge_penalty and basis stay
        learner = tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=2.0,
                                 basis=tr.Basis.RAW_CODE)
        config = tr.scaled(tr.preset("balanced"), num_reps=2, n_per_rep=200, learner=learner)
        path, out = tmp_path / "scenario.yaml", tmp_path / "out"
        tr.write_scenario_config(config, path)
        assert run_cli("montecarlo", "--config", path, "--learner", "logistic_ridge",
                       "--out", out) == 0
        assert tr.load_scenario_config(out / "resolved_config.yaml").learner == tr.LearnerSpec(
            kind=tr.LearnerKind.LOGISTIC_RIDGE, ridge_penalty=2.0, basis=tr.Basis.RAW_CODE)


    @pytest.mark.parametrize("flags,field,value", [
        (["--folds", "3"], "num_folds", 3),
        (["--clip", "0.05"], "clip", 0.05),
    ])
    def test_fit_flag_overrides_its_field_only(self, tmp_path, flags, field, value):
        # --folds and --clip each replace one setting: the scenario's learner stays whole
        learner = tr.LearnerSpec(kind=tr.LearnerKind.LINEAR_RIDGE, ridge_penalty=2.0,
                                 basis=tr.Basis.RAW_CODE)
        config = tr.scaled(tr.preset("balanced"), num_reps=2, n_per_rep=200, learner=learner)
        path, out = tmp_path / "scenario.yaml", tmp_path / "out"
        tr.write_scenario_config(config, path)
        assert run_cli("montecarlo", "--config", path, *flags, "--out", out) == 0
        assert tr.load_scenario_config(out / "resolved_config.yaml") == replace(
            tr.load_scenario_config(path), **{field: value})


class TestFailedCommandOutput:
    """A failed command removes the ``--out`` it made, never one that was there."""

    def test_oracle_delta_zero_leaves_no_directory(self, tmp_path, dgp_config):
        out = tmp_path / "new" / "out"
        assert run_cli("oracle", "--config", dgp_config, "--delta", 0, "--out", out) == 1
        assert not (tmp_path / "new").exists()

    def test_estimate_zero_n_leaves_no_directory(self, tmp_path, dgp_config):
        out = tmp_path / "out"
        assert run_cli("estimate", "--config", dgp_config, "--n", 0, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["oracle", "--delta", "0"], ["estimate", "--n", "0"]])
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
        ["estimate", "--config", "{config}", "--n", "50"],
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
    def test_seed_override_changes_results(self, tmp_path, dgp_config):
        out_a, out_b, out_c = (tmp_path / s for s in ("a", "b", "c"))
        for out, seed in ((out_a, 1), (out_b, 1), (out_c, 2)):
            assert run_cli(
                "estimate", "--config", dgp_config, "--n", 500, "--seed", seed, "--out", out
            ) == 0
        read = lambda p: (p / "estimates.csv").read_text()
        assert read(out_a) == read(out_b)
        assert read(out_a) != read(out_c)

    def test_closed_form_commands_take_no_seed(self, tmp_path, dgp_config, capsys):
        # oracle's output is a function of the config alone
        with pytest.raises(SystemExit) as exc:
            run_cli("oracle", "--config", dgp_config, "--seed", 1, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestInProcessCalls:
    """``main`` parses every call with one parser: no call sees another's arguments."""

    # the pinned default case: stratum-mean learner, default folds and clip
    DEFAULT = ["estimate", "--config", "{tmp}/parallel.yaml", "--n", "300", "--seed", "4"]
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
