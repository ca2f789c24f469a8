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

from .documents import load_json, _expect, _rational
from .errors import DocumentError
from .mining import Cycle
from .payout import ANCHORS, PER_RECIPIENT, REPORT_FORMATS, ROUNDING_MODES
from .risk import AGGREGATION_MODES, SUM, ValidationIssue, ValidationReport

SOURCE_TYPES = ("coalition_table", "attribution", "commit_log", "subset_results")
SOLVER_METHODS = ("exact", "oracle", "monte-carlo")

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

    def issues(self) -> list[ValidationIssue]:
        """Static checks of the solver settings; the CLI repeats them before solving."""
        issues = []
        if self.method not in SOLVER_METHODS:
            issues.append(ValidationIssue("solver.method", f"unknown solver {self.method!r}"))
        if self.method == "monte-carlo":
            if self.samples is None or self.samples < 1:
                issues.append(ValidationIssue("solver.samples", "monte-carlo needs samples >= 1"))
            if self.seed is None:
                issues.append(ValidationIssue("solver.seed", "monte-carlo needs an explicit seed"))
        return issues


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
        """Static checks; referenced files must exist at run time."""
        issues = []
        if self.source.type not in SOURCE_TYPES:
            issues.append(ValidationIssue("source.type", f"unknown source type {self.source.type!r}"))
        if not self.source.path.exists():
            issues.append(ValidationIssue("source.path", f"file not found: {self.source.path}"))
        if self.source.aliases_path is not None and not self.source.aliases_path.exists():
            issues.append(ValidationIssue("source.aliases", f"file not found: {self.source.aliases_path}"))
        if self.risk_model_path is not None and not self.risk_model_path.exists():
            issues.append(ValidationIssue("risk_model", f"file not found: {self.risk_model_path}"))
        if self.mode not in AGGREGATION_MODES:
            issues.append(ValidationIssue("mode", f"unknown mode {self.mode!r}"))
        issues.extend(self.solver.issues())
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
        return ValidationReport(tuple(issues))


def _cycle_from_doc(doc: dict) -> Cycle:
    try:
        return Cycle(
            from_commit=doc.get("from_commit"),
            to_commit=doc.get("to_commit"),
            from_time=doc.get("from_time"),
            to_time=doc.get("to_time"),
        )
    except ValueError as exc:
        raise DocumentError(f"source.cycle: {exc}") from exc


def _describe(value) -> str:
    """A parsed JSON value, named by its JSON type."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"boolean {str(value).lower()}"
    if isinstance(value, Fraction):  # JSON floats are parsed as exact Fractions
        return f"float {float(value)}"
    kind = {str: "string", list: "array", dict: "object", int: "integer"}.get(type(value), "value")
    return f"{kind} {value!r}"


def _object(value, where: str) -> dict:
    """A JSON object holding only the keys ``_KEYS`` allows at ``where``."""
    if not isinstance(value, dict):
        raise DocumentError(f"{where}: expected an object, got {_describe(value)}")
    allowed = _KEYS[where]
    for key in value:
        if key not in allowed:
            raise DocumentError(f"{where}.{key}: unknown key (expected one of {', '.join(allowed)})")
    return value


def _optional_int(doc: dict, key: str, where: str) -> Optional[int]:
    """A JSON integer (not a bool, float or string), or None when absent or null."""
    value = doc.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise DocumentError(f"{where}.{key}: expected an integer, got {_describe(value)}")
    return value


def run_config_from_document(doc: dict, base_dir: Path) -> RunConfig:
    doc = _object(doc, "config")
    src_doc = _object(_expect(doc, "source", "config"), "config.source")
    src_type = str(_expect(src_doc, "type", "config.source"))
    src_path = base_dir / str(_expect(src_doc, "path", "config.source"))
    aliases = src_doc.get("aliases")
    players = src_doc.get("players")
    source = SourceSpec(
        type=src_type,
        path=src_path,
        cycle=_cycle_from_doc(_object(src_doc.get("cycle", {}), "config.source.cycle")),
        aliases_path=None if aliases is None else base_dir / str(aliases),
        players=None if players is None else tuple(str(p) for p in players),
    )

    solver_doc = _object(doc.get("solver", {}), "config.solver")
    solver = SolverSpec(
        method=str(solver_doc.get("method", "exact")),
        samples=_optional_int(solver_doc, "samples", "config.solver"),
        seed=_optional_int(solver_doc, "seed", "config.solver"),
    )
    normalized = doc.get("normalized", False)
    if not isinstance(normalized, bool):
        raise DocumentError(
            f"config.normalized: expected true or false, got {_describe(normalized)}"
        )

    budget = None
    if "budget" in doc:
        b_doc = _object(doc["budget"], "config.budget")
        explicit = b_doc.get("value")
        budget = BudgetSpec(
            fraction=_rational(_expect(b_doc, "fraction", "config.budget"), "config.budget.fraction"),
            anchor=str(_expect(b_doc, "anchor", "config.budget")),
            explicit_value=None if explicit is None else _rational(explicit, "config.budget.value"),
        )

    out_doc = _object(doc.get("output", {}), "config.output")
    out_path = out_doc.get("path")
    risk_model = doc.get("risk_model")
    return RunConfig(
        source=source,
        risk_model_path=None if risk_model is None else base_dir / str(risk_model),
        mode=str(doc.get("mode", SUM)),
        normalized=normalized,
        solver=solver,
        budget=budget,
        rounding=str(doc.get("rounding", PER_RECIPIENT)),
        currency=str(doc.get("currency", "USD")),
        output_format=str(out_doc.get("format", "json")),
        output_path=None if out_path is None else base_dir / str(out_path),
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    return run_config_from_document(load_json(path), path.parent)
