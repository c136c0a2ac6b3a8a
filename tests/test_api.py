"""The package's public surface: the names ``import treatrank`` exports."""

from __future__ import annotations

import treatrank as tr

EXPORTED = {
    # data, DGPs and their closed-form targets
    "AssignmentMode", "Dataset", "OverlapError", "StratifiedDGP", "oracle_ate", "oracle_wate",
    "oracle_weights", "random_dgp", "sample",
    # decomposition, reversal and ranking
    "DecompositionReport", "NotEstimableError", "RankingResult", "ReversalCheck", "Source",
    "check_reversal", "decompose", "estimate_decomposition", "oracle_report", "rank_treatments",
    "sufficient_condition_check",
    # file formats
    "ConfigError", "ScenarioConfig", "load_dataset_csv", "load_dgp_config",
    "load_scenario_config", "packaged_config_path", "write_dataset_csv", "write_dgp_config",
    "write_scenario_config",
    # estimators
    "EffectEstimate", "Estimand", "Method", "NoVariationError", "UndefinedEstimateError",
    "aipw_estimate", "ipw_estimate", "plm_estimate",
    # replication studies
    "METHODS", "MonteCarloResult", "ScenarioName", "preset", "run_scenario", "scaled",
    "summarize", "validate_scenario",
    # nuisances; fit_insample and oracle_nuisance are the references the
    # cross-fitted path is tested against
    "Basis", "CellTable", "FoldAssignment", "LearnerKind", "LearnerSpec", "NuisanceFit",
    "SingularFitError", "assign_folds", "cell_table", "fit_crossfit", "fit_insample",
    "fit_table", "oracle_nuisance",
}


def test_exported_names():
    assert len(tr.__all__) == len(set(tr.__all__)) == 58
    assert set(tr.__all__) == EXPORTED
    assert all(hasattr(tr, name) for name in tr.__all__)

