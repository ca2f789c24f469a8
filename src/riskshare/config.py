"""Run configuration: one structured document drives a reproducible run.

Every knob the model leaves open must be spelled out here -- budget fraction
and anchor have no defaults on purpose, since they are policy decisions, not
math. Relative paths resolve against the config file's own directory. The static
checks (:meth:`RunConfig.issues`) open no file: a command reads the files it needs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional

from ._frozen import frozen
from .documents import load_json, _boolean, _built, _field, _integer, _rational, _record, _string, _strings
from .mining import Cycle
from .payout import ANCHORS, PER_RECIPIENT, REPORT_FORMATS, ROUNDING_MODES
from .risk import AGGREGATION_MODES, SUM, ValidationIssue

SOURCE_TYPES = ("coalition_table", "attribution", "commit_log", "subset_results")
SOLVER_METHODS = ("exact", "monte-carlo")

#: The keys each config object may hold; any other key is an input error.
_KEYS = {
    "config": ("risk_model", "source", "mode", "normalized", "solver", "budget", "rounding", "currency", "output"),
    "config.source": ("type", "path", "cycle", "aliases", "players"),
    "config.source.cycle": ("from_commit", "to_commit", "from_time", "to_time"),
    "config.solver": ("method", "samples", "seed"),
    "config.budget": ("fraction", "anchor", "value"),
    "config.output": ("format",),
}


@frozen
class SolverSpec:
    method: str = "exact"
    samples: Optional[int] = None
    seed: Optional[int] = None


@frozen
class BudgetSpec:
    fraction: Fraction
    anchor: str
    explicit_value: Optional[Fraction] = None


@frozen
class SourceSpec:
    type: str
    path: Path
    cycle: Cycle = Cycle()
    aliases_path: Optional[Path] = None
    players: Optional[tuple[str, ...]] = None


@frozen
class RunConfig:
    source: SourceSpec
    risk_model_path: Optional[Path] = None
    mode: str = SUM
    normalized: bool = False
    solver: SolverSpec = SolverSpec()
    budget: Optional[BudgetSpec] = None
    rounding: str = PER_RECIPIENT
    currency: str = "USD"
    output_format: str = "json"

    def issues(self) -> list[ValidationIssue]:
        """Static checks of the settings; every command that takes a config runs them before any work."""
        issues = []
        source = self.source
        kind = source.type
        if kind not in SOURCE_TYPES:
            issues.append(ValidationIssue("source.type", f"unknown source type {kind!r}"))
        elif kind != "coalition_table" and self.risk_model_path is None:
            issues.append(ValidationIssue("risk_model", f"source type {kind!r} needs a risk_model for its threat tree"))
        if kind == "coalition_table" and self.normalized:
            issues.append(ValidationIssue("normalized", "a coalition table states its own values"))
        roster = source.players
        if kind in SOURCE_TYPES and kind != "commit_log":
            if roster is not None:
                issues.append(ValidationIssue("source.players", "a document source names its own players"))
            if source.cycle != Cycle():
                issues.append(ValidationIssue("source.cycle", "only a commit_log source has a cycle"))
            if source.aliases_path is not None:
                issues.append(ValidationIssue("source.aliases", "only a commit_log source reads aliases"))
        elif kind == "commit_log" and roster is not None:
            repeated = ", ".join(repr(p) for p, count in Counter(roster).items() if count > 1)
            if not roster:
                issues.append(ValidationIssue("source.players", "the roster must not be empty"))
            elif "" in roster:
                issues.append(ValidationIssue("source.players", "a player id must not be empty"))
            elif repeated:
                issues.append(ValidationIssue("source.players", f"duplicate player id(s) {repeated}"))
        if self.mode not in AGGREGATION_MODES:
            issues.append(ValidationIssue("mode", f"unknown mode {self.mode!r}"))
        solver = self.solver
        if solver.method not in SOLVER_METHODS:
            issues.append(ValidationIssue("solver.method", f"unknown solver {solver.method!r}"))
        if solver.method == "monte-carlo":
            if solver.samples is None or solver.samples < 1:
                issues.append(ValidationIssue("solver.samples", "monte-carlo needs samples >= 1"))
            if solver.seed is None:
                issues.append(ValidationIssue("solver.seed", "monte-carlo needs an explicit seed"))
        else:
            for key, value in (("samples", solver.samples), ("seed", solver.seed)):
                if value is not None:
                    issues.append(ValidationIssue(f"solver.{key}", f"only monte-carlo takes {key}"))
        if self.rounding not in ROUNDING_MODES:
            issues.append(ValidationIssue("rounding", f"unknown rounding mode {self.rounding!r}"))
        if self.output_format not in REPORT_FORMATS:
            issues.append(ValidationIssue("output.format", f"unknown format {self.output_format!r}"))
        if self.budget is not None:
            if self.budget.anchor not in ANCHORS:
                issues.append(ValidationIssue("budget.anchor", f"unknown anchor {self.budget.anchor!r}"))
            if not 0 <= self.budget.fraction <= 1:
                issues.append(ValidationIssue("budget.fraction", f"fraction {self.budget.fraction} outside [0, 1]"))
            if self.budget.anchor == "explicit" and self.budget.explicit_value is None:
                issues.append(ValidationIssue("budget.value", "anchor 'explicit' needs a value"))
            elif self.budget.anchor != "explicit" and self.budget.explicit_value is not None:
                issues.append(ValidationIssue("budget.value", "only anchor 'explicit' takes a value"))
        return issues


def _section(value, where: str) -> dict:
    """A JSON object holding only the keys ``_KEYS`` allows at ``where``."""
    return _record(value, where, _KEYS[where])


def _path(value, where: str, base_dir: Path) -> Path:
    """A JSON string, resolved against ``base_dir``."""
    return base_dir / _string(value, where)


def _cycle(value, where: str) -> Cycle:
    doc = _section(value, where)
    return _built(
        where,
        Cycle,
        from_commit=_field(doc, "from_commit", where, _string, default=None),
        to_commit=_field(doc, "to_commit", where, _string, default=None),
        from_time=_field(doc, "from_time", where, _integer, default=None),
        to_time=_field(doc, "to_time", where, _integer, default=None),
    )


def _budget(value, where: str) -> BudgetSpec:
    doc = _section(value, where)
    return BudgetSpec(
        fraction=_field(doc, "fraction", where, _rational),
        anchor=_field(doc, "anchor", where, _string),
        explicit_value=_field(doc, "value", where, _rational, default=None),
    )


def run_config_from_document(doc: dict, base_dir: Path) -> RunConfig:
    """A run config; an absent optional setting takes its default, and a null one is an input error."""
    doc = _section(doc, "config")
    src_doc = _field(doc, "source", "config", _section)
    source = SourceSpec(
        type=_field(src_doc, "type", "config.source", _string),
        path=_field(src_doc, "path", "config.source", _path, base_dir),
        cycle=_field(src_doc, "cycle", "config.source", _cycle, default=Cycle()),
        aliases_path=_field(src_doc, "aliases", "config.source", _path, base_dir, default=None),
        players=_field(src_doc, "players", "config.source", _strings, default=None),
    )
    solver_doc = _field(doc, "solver", "config", _section, default={})
    solver = SolverSpec(
        method=_field(solver_doc, "method", "config.solver", _string, default="exact"),
        samples=_field(solver_doc, "samples", "config.solver", _integer, default=None),
        seed=_field(solver_doc, "seed", "config.solver", _integer, default=None),
    )
    out_doc = _field(doc, "output", "config", _section, default={})
    return RunConfig(
        source=source,
        risk_model_path=_field(doc, "risk_model", "config", _path, base_dir, default=None),
        mode=_field(doc, "mode", "config", _string, default=SUM),
        normalized=_field(doc, "normalized", "config", _boolean, default=False),
        solver=solver,
        budget=_field(doc, "budget", "config", _budget, default=None),
        rounding=_field(doc, "rounding", "config", _string, default=PER_RECIPIENT),
        currency=_field(doc, "currency", "config", _string, default="USD"),
        output_format=_field(out_doc, "format", "config.output", _string, default="json"),
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    return load_json(path, lambda doc: run_config_from_document(doc, path.parent))
