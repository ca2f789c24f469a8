"""The public API is pinned: a name is added to or removed from it on purpose."""

import riskshare

PUBLIC = {
    "AxiomReport", "CapacityError", "CherryPickPlan", "ClampWarning", "CoalitionGame",
    "CommitLogWarning", "CommitRecord", "Control", "Cycle", "DocumentError", "GameDefinitionError",
    "IdentityResolution", "Interval", "LeafCondition", "MATERIALIZATION_CAP", "MitigationWarning",
    "Money", "ORACLE_PLAYER_CAP", "PayoutError", "PayoutReport", "PlayerPayout", "PlayerSet",
    "Provenance", "QualitativeScale", "RiskModel", "RiskshareError", "ScaleRangeError", "ScaleSet",
    "ShapleyResult", "SubsetResult", "Threat", "ThreatAssessment", "ThreatTree",
    "UnknownLabelError", "ValidationError", "ValidationIssue", "ValidationReport",
    "allocate_payments", "as_fraction", "check_axioms", "cherry_pick_plan", "classify",
    "compute_budget", "derive_attribution", "evaluate", "game_add", "game_from_subset_results",
    "game_from_table", "game_scale", "interval_add", "interval_mul", "interval_sub",
    "leaf_coverage_game", "parse_commit_log", "parse_report", "render_commit_log", "render_report",
    "resolve_identities", "risk_after", "risk_before", "risk_delta", "sample_permutation",
    "select_cycle", "shapley_exact", "shapley_monte_carlo", "shapley_permutation_oracle",
    "subset_results_from_attribution", "unanimity_game", "validate_assessments", "validate_scale",
    "validate_threat_tree",
}


def test_all_is_sorted_and_unique():
    assert riskshare.__all__ == sorted(set(riskshare.__all__))


def test_every_public_name_resolves():
    missing = [name for name in riskshare.__all__ if not hasattr(riskshare, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert set(riskshare.__all__) == PUBLIC
    assert len(PUBLIC) == 71
