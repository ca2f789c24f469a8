"""The public API and the command line are pinned: a name or flag is added or removed on purpose."""

import argparse
import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import riskshare
from riskshare.cli import build_parser

PUBLIC = {
    "AxiomReport", "CapacityError", "CherryPickPlan", "CoalitionGame",
    "Control", "Cycle", "DocumentError", "GameDefinitionError",
    "Interval", "LeafCondition", "MATERIALIZATION_CAP", "Money", "ORACLE_PLAYER_CAP", "PayoutError",
    "PayoutReport", "PlayerPayout", "PlayerSet", "Provenance", "QualitativeScale", "RiskModel",
    "RiskshareError", "ScaleSet", "ShapleyResult", "Threat", "ThreatAssessment",
    "ThreatTree", "UnknownLabelError", "ValidationError", "ValidationIssue", "ValidationReport",
    "allocate_payments", "as_fraction", "check_axioms", "cherry_pick_plan", "compute_budget",
    "derive_attribution", "game_from_subset_results", "game_from_table", "interval_add",
    "interval_mul", "interval_sub", "leaf_coverage_game", "parse_commit_log", "parse_report",
    "render_report", "risk_delta", "sample_permutation", "shapley_exact", "shapley_monte_carlo",
    "shapley_permutation_oracle", "validate_assessments", "validate_scale", "validate_threat_tree",
}


def test_all_is_sorted_and_unique():
    assert riskshare.__all__ == sorted(set(riskshare.__all__))


def test_every_public_name_resolves():
    missing = [name for name in riskshare.__all__ if not hasattr(riskshare, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert set(riskshare.__all__) == PUBLIC
    assert len(PUBLIC) == 53


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


#: Each module of ``src/riskshare`` and the sibling modules it imports from, anywhere in its body.
IMPORTS = {
    "__init__": ["errors", "games", "intervals", "mining", "payout", "risk", "shapley"],
    "_frozen": [],
    "cli": ["config", "documents", "errors", "games", "mining", "payout", "risk", "shapley"],
    "config": ["_frozen", "documents", "mining", "payout", "risk"],
    "documents": ["errors", "games", "intervals", "risk"],
    "errors": [],
    "games": ["_frozen", "errors", "intervals", "risk"],
    "intervals": ["_frozen"],
    "mining": ["_frozen", "errors", "risk"],
    "payout": ["_frozen", "documents", "errors", "intervals", "shapley"],
    "risk": ["_frozen", "errors", "intervals"],
    "shapley": ["_frozen", "errors", "games"],
}


def test_import_graph_is_pinned():
    """An import between two of the package's modules is added or removed on purpose, as a public name is."""
    graph = {}
    for name, tree in _modules().items():
        relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
        # ``from .games import x`` names its module; ``from . import documents`` names the modules it imports
        graph[name.removesuffix(".py")] = sorted({n.module for n in relative if n.module} |
                                                 {a.name for n in relative if not n.module for a in n.names})
    assert graph == IMPORTS


def test_no_module_uses_python_warnings():
    """A finding is a ``ValidationIssue`` that a command prints itself, so no interpreter warning filter (``-W``,
    ``PYTHONWARNINGS``) can drop it or turn it into a traceback."""
    imported = {
        name: {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        for name, tree in _modules().items()
    }
    assert sorted(name for name, modules in imported.items() if "warnings" in modules) == []


#: The modules with an ``except`` handler that raises an input, validation or capacity error. ``documents`` puts
#: the file on an error (``reading``) and turns a value class's ValueError into a located input error;
#: ``mining`` locates a commit log's unparsable date line; ``shapley`` turns the sampler's float overflow into a
#: capacity error. Every other module lets its errors through, to be located by ``documents.reading``.
RELOCATING = ["documents", "mining", "shapley"]


def test_relocation_sites_are_pinned():
    """A new place that catches an error to raise a located one is added on purpose, as an import is."""
    raised = {"DocumentError", "ValidationError", "CapacityError"}
    sites = sorted(
        name.removesuffix(".py")
        for name, tree in _modules().items()
        if any(isinstance(node, ast.Raise) and node.exc is not None
               and raised & {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
               for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler))
    )
    assert sites == RELOCATING


#: The independent reference solver: the tests and the benchmark call it, the program never does.
REFERENCE_ONLY = {"shapley_permutation_oracle"}


def test_every_public_name_is_used_by_the_program():
    """A public name that no module but ``__init__.py`` names is library surface that nothing runs; the re-export is not a use."""
    used = set().union(*(_names_used(tree) for name, tree in _modules().items() if name != "__init__.py"))
    assert sorted(set(riskshare.__all__) - used - REFERENCE_ONLY) == []


def _modules_loaded(code: str) -> set[str]:
    """The module names a fresh isolated interpreter holds after running ``code``."""
    listing = "; import sys; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-I", "-c", code + listing], capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_import_path_stays_light():
    """Each command is one short process, so ``import riskshare.cli`` loads no module it can do without.

    ``dataclasses`` drags in ``inspect``, and ``hashlib`` loads OpenSSL; the
    baseline is a bare interpreter, so a module a site hook loads is not blamed.
    """
    baseline = _modules_loaded("pass")
    loaded = _modules_loaded(f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}]; import riskshare.cli")
    assert "riskshare.cli" in loaded
    assert sorted({"dataclasses", "inspect", "hashlib"} & (loaded - baseline)) == []
