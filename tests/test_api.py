"""The public API and the command line are pinned: a name or flag is added or removed on purpose."""

import argparse

import riskshare
from riskshare.cli import build_parser

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


#: Each subcommand's arguments: option strings, or the name of a positional argument.
COMMANDS = {
    "validate": ["-h", "--help", "--config"],
    "game": ["-h", "--help", "--config"],
    "shapley": ["-h", "--help", "--config", "--format"],
    "payout": ["-h", "--help", "--config", "--out"],
    "plan-cherry-pick": ["-h", "--help", "--config", "--subset", "--base", "--out"],
    "report": ["-h", "--help", "input", "--format", "--out"],
}


def test_command_line_is_pinned():
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [s for action in parser._actions for s in action.option_strings or [action.dest]]
        for name, parser in commands.choices.items()
    }
    assert surface == COMMANDS
