"""Run configuration: one structured document drives a reproducible run.

Every knob the model leaves open must be spelled out here -- budget fraction
and anchor have no defaults on purpose, since they are policy decisions, not
math. Relative paths resolve against the config file's own directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .documents import load_json, _describe, _expect, _integer, _object, _rational, _string, _strings
from .errors import DocumentError
from .mining import Cycle
from .payout import ANCHORS, PER_RECIPIENT, REPORT_FORMATS, ROUNDING_MODES
from .risk import AGGREGATION_MODES, SUM, ValidationIssue, ValidationReport

SOURCE_TYPES = ("coalition_table", "attribution", "commit_log", "subset_results")
SOLVER_METHODS = ("exact", "monte-carlo")

#: The keys each config object may hold; any other key is an input error.
_KEYS = {
    "config": ("risk_model", "source", "mode", "normalized", "solver", "budget", "rounding", "currency", "output"),
    "config.source": ("type", "path", "cycle", "aliases", "players"),
    "config.source.cycle": ("from_commit", "to_commit", "from_time", "to_time"),
    "config.solver": ("method", "samples", "seed"),
    "config.budget": ("fraction", "anchor", "value"),
    "config.output": ("format", "path"),
}


@dataclass(frozen=True)
class SolverSpec:
    method: str = "exact"
    samples: Optional[int] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class BudgetSpec:
    fraction: Fraction
    anchor: str
    explicit_value: Optional[Fraction] = None


@dataclass(frozen=True)
class SourceSpec:
    type: str
    path: Path
    cycle: Cycle = Cycle()
    aliases_path: Optional[Path] = None
    players: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
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
    output_path: Optional[Path] = None

    def validate(self) -> ValidationReport:
        """Static checks, and that the referenced files exist."""
        issues = []
        if not self.source.path.exists():
            issues.append(ValidationIssue("source.path", f"file not found: {self.source.path}"))
        if self.source.aliases_path is not None and not self.source.aliases_path.exists():
            issues.append(ValidationIssue("source.aliases", f"file not found: {self.source.aliases_path}"))
        if self.risk_model_path is not None and not self.risk_model_path.exists():
            issues.append(ValidationIssue("risk_model", f"file not found: {self.risk_model_path}"))
        return ValidationReport(tuple(issues + self.issues()))

    def issues(self) -> list[ValidationIssue]:
        """Static checks of the settings; ``payout`` and ``shapley`` run them before any work."""
        issues = []
        if self.source.type not in SOURCE_TYPES:
            issues.append(ValidationIssue("source.type", f"unknown source type {self.source.type!r}"))
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
        return issues


def _cycle_from_doc(doc: dict) -> Cycle:
    where = "config.source.cycle"
    try:
        return Cycle(
            from_commit=_optional(doc, "from_commit", where, _string),
            to_commit=_optional(doc, "to_commit", where, _string),
            from_time=_optional(doc, "from_time", where, _integer),
            to_time=_optional(doc, "to_time", where, _integer),
        )
    except ValueError as exc:
        raise DocumentError(f"source.cycle: {exc}") from exc


def _section(value, where: str) -> dict:
    """A JSON object holding only the keys ``_KEYS`` allows at ``where``."""
    value = _object(value, where)
    allowed = _KEYS[where]
    for key in value:
        if key not in allowed:
            raise DocumentError(f"{where}.{key}: unknown key (expected one of {', '.join(allowed)})")
    return value


def _optional(doc: dict, key: str, where: str, read):
    """``read`` applied to ``doc[key]``, or None when the key is absent or null."""
    value = doc.get(key)
    return None if value is None else read(value, f"{where}.{key}")


def _optional_path(doc: dict, key: str, where: str, base_dir: Path) -> Optional[Path]:
    """A JSON string resolved against ``base_dir``, or None when absent or null."""
    value = _optional(doc, key, where, _string)
    return None if value is None else base_dir / value


def run_config_from_document(doc: dict, base_dir: Path) -> RunConfig:
    doc = _section(doc, "config")
    src_doc = _section(_expect(doc, "source", "config"), "config.source")
    players = _optional(src_doc, "players", "config.source", _strings)
    source = SourceSpec(
        type=_string(_expect(src_doc, "type", "config.source"), "config.source.type"),
        path=base_dir / _string(_expect(src_doc, "path", "config.source"), "config.source.path"),
        cycle=_cycle_from_doc(_section(src_doc.get("cycle", {}), "config.source.cycle")),
        aliases_path=_optional_path(src_doc, "aliases", "config.source", base_dir),
        players=players,
    )

    solver_doc = _section(doc.get("solver", {}), "config.solver")
    solver = SolverSpec(
        method=_string(solver_doc.get("method", "exact"), "config.solver.method"),
        samples=_optional(solver_doc, "samples", "config.solver", _integer),
        seed=_optional(solver_doc, "seed", "config.solver", _integer),
    )
    normalized = doc.get("normalized", False)
    if not isinstance(normalized, bool):
        raise DocumentError(
            f"config.normalized: expected true or false, got {_describe(normalized)}"
        )

    budget = None
    if "budget" in doc:
        b_doc = _section(doc["budget"], "config.budget")
        budget = BudgetSpec(
            fraction=_rational(_expect(b_doc, "fraction", "config.budget"), "config.budget.fraction"),
            anchor=_string(_expect(b_doc, "anchor", "config.budget"), "config.budget.anchor"),
            explicit_value=_optional(b_doc, "value", "config.budget", _rational),
        )

    out_doc = _section(doc.get("output", {}), "config.output")
    return RunConfig(
        source=source,
        risk_model_path=_optional_path(doc, "risk_model", "config", base_dir),
        mode=_string(doc.get("mode", SUM), "config.mode"),
        normalized=normalized,
        solver=solver,
        budget=budget,
        rounding=_string(doc.get("rounding", PER_RECIPIENT), "config.rounding"),
        currency=_string(doc.get("currency", "USD"), "config.currency"),
        output_format=_string(out_doc.get("format", "json"), "config.output.format"),
        output_path=_optional_path(out_doc, "path", "config.output", base_dir),
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    return run_config_from_document(load_json(path), path.parent)
