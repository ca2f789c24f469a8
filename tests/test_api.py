"""The public API and the command line are pinned: a name or flag is added or removed on purpose."""

import argparse
import ast
import importlib.util
import sys
from pathlib import Path

import riskshare
from riskshare.cli import build_parser

PUBLIC = {
    "AxiomReport", "CapacityError", "CherryPickPlan", "ClampWarning", "CoalitionGame",
    "CommitLogWarning", "CommitRecord", "Control", "Cycle", "DocumentError", "GameDefinitionError",
    "Interval", "LeafCondition", "MATERIALIZATION_CAP", "Money", "ORACLE_PLAYER_CAP", "PayoutError",
    "PayoutReport", "PlayerPayout", "PlayerSet", "Provenance", "QualitativeScale", "RiskModel",
    "RiskshareError", "ScaleSet", "ShapleyResult", "SubsetResult", "Threat", "ThreatAssessment",
    "ThreatTree", "UnknownLabelError", "ValidationError", "ValidationIssue", "ValidationReport",
    "allocate_payments", "as_fraction", "check_axioms", "cherry_pick_plan", "compute_budget",
    "derive_attribution", "game_add", "game_from_subset_results", "game_from_table", "interval_add",
    "interval_mul", "interval_sub", "leaf_coverage_game", "parse_commit_log", "parse_report",
    "render_report", "resolve_identities", "risk_delta", "sample_permutation", "select_cycle",
    "shapley_exact", "shapley_monte_carlo", "shapley_permutation_oracle", "validate_assessments",
    "validate_scale", "validate_threat_tree",
}


def test_all_is_sorted_and_unique():
    assert riskshare.__all__ == sorted(set(riskshare.__all__))


def test_every_public_name_resolves():
    missing = [name for name in riskshare.__all__ if not hasattr(riskshare, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert set(riskshare.__all__) == PUBLIC
    assert len(PUBLIC) == 60


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


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskshare"


def test_every_perfbench_patch_point_exists(monkeypatch):
    """The benchmark's tracer wraps these names; one the program lost would silently drop out of its spans."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    points = tracing.patch_points(riskshare)
    assert points
    assert [f"{owner.__name__}.{attr}" for owner, attr, _ in points if not hasattr(owner, attr)] == []


def _names_used(tree: ast.Module) -> set[str]:
    """Every name a module loads, every attribute it reads and every name it imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_every_module_level_name_is_used():
    """A function, class or constant of ``src/riskshare`` that nothing references is dead code."""
    defined, used = {}, set()
    for name, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, name) for t in targets if isinstance(t, ast.Name))
        used |= _names_used(tree)
    dead = sorted(f"{module}: {name}" for name, module in defined.items()
                  if not (name.startswith("__") and name.endswith("__")) and name not in used)
    assert dead == []


#: The independent reference solver: the tests and the benchmark call it, the program never does.
REFERENCE_ONLY = {"shapley_permutation_oracle"}


def test_every_public_name_is_used_by_the_program():
    """A public name that no module but ``__init__.py`` names is library surface that nothing runs; the re-export is not a use."""
    used = set().union(*(_names_used(tree) for name, tree in _modules().items() if name != "__init__.py"))
    assert sorted(set(riskshare.__all__) - used - REFERENCE_ONLY) == []
