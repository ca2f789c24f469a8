"""The public API and the command line are pinned: a name or flag is added or removed on purpose."""

import argparse
import ast
from pathlib import Path

import riskshare
from riskshare.cli import build_parser

PUBLIC = {
    "AxiomReport", "CapacityError", "CherryPickPlan", "ClampWarning", "CoalitionGame",
    "CommitLogWarning", "CommitRecord", "Control", "Cycle", "DocumentError", "GameDefinitionError",
    "IdentityResolution", "Interval", "LeafCondition", "MATERIALIZATION_CAP",
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
    assert len(PUBLIC) == 70


#: Each subcommand's arguments: option strings, or the name of a positional argument.
COMMANDS = {
    "validate": ["-h", "--help", "--config"],
    "game": ["-h", "--help", "--config"],
    "shapley": ["-h", "--help", "--config", "--format"],
    "payout": ["-h", "--help", "--config", "--out"],
    "plan-cherry-pick": ["-h", "--help", "--config", "--subset", "--out"],
    "report": ["-h", "--help", "input", "--format", "--out"],
}


def test_command_line_is_pinned():
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [s for action in parser._actions for s in action.option_strings or [action.dest]]
        for name, parser in commands.choices.items()
    }
    assert surface == COMMANDS


SRC = Path(__file__).resolve().parent.parent / "src" / "riskshare"


def test_every_module_level_name_is_used():
    """A function, class or constant of ``src/riskshare`` that nothing references is dead code."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, path.name) for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = sorted(f"{module}: {name}" for name, module in defined.items()
                  if not (name.startswith("__") and name.endswith("__")) and name not in used)
    assert dead == []
