"""Readers for the JSON input documents.

All numeric fields accept decimal strings, integers, or JSON numbers; every
number is parsed straight into an exact rational (JSON floats are hooked into
Fraction before any binary rounding can happen).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .errors import DocumentError
from .games import CoalitionGame, PlayerSet, game_from_table
from .intervals import Interval, as_fraction
from .mining import SubsetResult
from .risk import (
    Control,
    LeafCondition,
    QualitativeScale,
    RiskModel,
    ScaleSet,
    Threat,
    ThreatAssessment,
    ThreatTree,
)

Pathish = Union[str, Path]


def loads_exact(text: str):
    """json.loads with floats parsed as exact decimal Fractions."""
    try:
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def load_json(path: Pathish):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return loads_exact(text)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def _expect(doc: dict, key: str, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing key {key!r}")
    return doc[key]


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


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected an array, got {_describe(value)}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{where}: expected an object, got {_describe(value)}")
    return value


def _string(value, where: str) -> str:
    """A JSON string, never a value coerced into one."""
    if not isinstance(value, str):
        raise DocumentError(f"{where}: expected a string, got {_describe(value)}")
    return value


def _rows(value, where: str):
    """``(location, object)`` for each entry of a JSON array of objects."""
    for k, row in enumerate(_list(value, where)):
        at = f"{where}[{k}]"
        yield at, _object(row, at)


def _strings(value, where: str) -> tuple[str, ...]:
    """A JSON array of strings."""
    items = _list(value, where)
    if set(map(type, items)) - {str}:  # locate the culprit only on failure; rows can number 2^n
        for k, item in enumerate(items):
            _string(item, f"{where}[{k}]")
    return tuple(items)


def _rational(value, where: str) -> Fraction:
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _interval(doc, where: str) -> Interval:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object with 'lo' and 'hi'")
    lo = _rational(_expect(doc, "lo", where), f"{where}.lo")
    hi = _rational(_expect(doc, "hi", where), f"{where}.hi")
    try:
        return Interval(lo, hi)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def scale_from_document(doc: dict, where: str = "scale") -> QualitativeScale:
    doc = _object(doc, where)
    name = _string(_expect(doc, "name", where), f"{where}.name")
    kind = _string(_expect(doc, "kind", where), f"{where}.kind")
    categories = []
    for cat_where, cat in _rows(_expect(doc, "categories", where), f"{where}.categories"):
        label = _string(_expect(cat, "label", cat_where), f"{cat_where}.label")
        categories.append((label, _interval(cat, cat_where)))
    try:
        return QualitativeScale(name=name, kind=kind, categories=tuple(categories))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _id(doc: dict, where: str) -> str:
    return _string(_expect(doc, "id", where), f"{where}.id")


def _label(doc: dict, where: str) -> str:
    return _string(doc.get("label", ""), f"{where}.label")


def risk_model_from_document(doc: dict) -> RiskModel:
    """Build a RiskModel from a parsed risk-model document.

    Top-level keys: ``scales`` (object with ``likelihood`` and ``impact``
    slots), ``threats`` (nested controls/leaves), ``assessments``.
    """
    doc = _object(doc, "document")
    scales_doc = _object(_expect(doc, "scales", "document"), "scales")
    likelihood = scale_from_document(_expect(scales_doc, "likelihood", "scales"), "scales.likelihood")
    impact = scale_from_document(_expect(scales_doc, "impact", "scales"), "scales.impact")
    try:
        scales = ScaleSet(likelihood=likelihood, impact=impact)
    except ValueError as exc:
        raise DocumentError(f"scales: {exc}") from exc

    threats = []
    for t_where, t_doc in _rows(_expect(doc, "threats", "document"), "threats"):
        controls = []
        for c_where, c_doc in _rows(t_doc.get("controls", []), f"{t_where}.controls"):
            leaves = tuple(
                LeafCondition(id=_id(l_doc, l_where), label=_label(l_doc, l_where))
                for l_where, l_doc in _rows(c_doc.get("leaves", []), f"{c_where}.leaves")
            )
            controls.append(Control(id=_id(c_doc, c_where), label=_label(c_doc, c_where), leaves=leaves))
        threats.append(Threat(id=_id(t_doc, t_where), label=_label(t_doc, t_where), controls=tuple(controls)))
    tree = ThreatTree(threats=tuple(threats))

    assessments = []
    keys = ("threat", "likelihood_before", "impact_before", "likelihood_after", "impact_after")
    for a_where, a_doc in _rows(doc.get("assessments", []), "assessments"):
        fields = (_string(_expect(a_doc, key, a_where), f"{a_where}.{key}") for key in keys)
        assessments.append(ThreatAssessment(*fields))
    return RiskModel(scales=scales, tree=tree, assessments=tuple(assessments))


def load_risk_model(path: Pathish) -> RiskModel:
    return risk_model_from_document(load_json(path))


def coalition_game_from_document(doc, *, label: str = "coalition-table") -> CoalitionGame:
    """Parse a coalition-table document.

    Either a bare list of ``{"coalition": [...], "value": ...}`` rows, or an
    object with a ``players`` roster plus an ``entries`` list and an optional
    boolean ``default_zero``. With a bare list the roster is the sorted union
    of all named players.
    """
    roster = None
    default_zero = False
    if isinstance(doc, dict):
        roster = _strings(_expect(doc, "players", "coalition table"), "players")
        rows = _expect(doc, "entries", "coalition table")
        default_zero = doc.get("default_zero", False)
        if not isinstance(default_zero, bool):
            raise DocumentError(f"default_zero: expected true or false, got {_describe(default_zero)}")
    elif isinstance(doc, list):
        rows = doc
    else:
        raise DocumentError("coalition table must be a list or an object")
    entries = []
    for where, row in _rows(rows, "entries"):
        coalition = _strings(_expect(row, "coalition", where), f"{where}.coalition")
        value = _rational(_expect(row, "value", where), f"{where}.value")
        entries.append((coalition, value))
    if roster is None:
        roster = sorted({p for coalition, _ in entries for p in coalition})
        if not roster:
            raise DocumentError("coalition table names no players")
    players = PlayerSet(tuple(roster))
    return game_from_table(players, entries, default_zero=default_zero, label=label)


def load_coalition_game(path: Pathish) -> CoalitionGame:
    return coalition_game_from_document(load_json(path), label=f"coalition-table:{Path(path).name}")


def attribution_from_document(doc) -> tuple[Optional[tuple[str, ...]], dict[str, frozenset[str]]]:
    """Parse an attribution document: rows of ``{"leaf": id, "authors": [ids]}``.

    Returns an optional player roster (when the object form carries one) and
    the leaf-to-authors map.
    """
    roster: Optional[tuple[str, ...]] = None
    if isinstance(doc, dict):
        if "players" in doc:
            roster = _strings(doc["players"], "players")
        rows = _expect(doc, "attribution", "attribution document")
    elif isinstance(doc, list):
        rows = doc
    else:
        raise DocumentError("attribution document must be a list or an object")
    attribution: dict[str, frozenset[str]] = {}
    for where, row in _rows(rows, "attribution"):
        leaf = _string(_expect(row, "leaf", where), f"{where}.leaf")
        if leaf in attribution:
            raise DocumentError(f"{where}: duplicate leaf {leaf!r}")
        attribution[leaf] = frozenset(_strings(_expect(row, "authors", where), f"{where}.authors"))
    return roster, attribution


def load_attribution(path: Pathish):
    return attribution_from_document(load_json(path))


def subset_results_from_document(doc) -> tuple[Optional[tuple[str, ...]], list[SubsetResult]]:
    """Parse subset-evaluation results: rows of ``{"subset": [...], "passing": [...]}``."""
    roster: Optional[tuple[str, ...]] = None
    if isinstance(doc, dict):
        if "players" in doc:
            roster = _strings(doc["players"], "players")
        rows = _expect(doc, "results", "subset results document")
    elif isinstance(doc, list):
        rows = doc
    else:
        raise DocumentError("subset results document must be a list or an object")
    results = []
    for where, row in _rows(rows, "results"):
        subset = _strings(_expect(row, "subset", where), f"{where}.subset")
        passing = _strings(_expect(row, "passing", where), f"{where}.passing")
        results.append(SubsetResult(subset, passing))
    return roster, results


def load_subset_results(path: Pathish):
    return subset_results_from_document(load_json(path))


def load_aliases(path: Pathish) -> dict[str, str]:
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise DocumentError("alias document must be an object mapping identity -> player id")
    return {identity: _string(player, f"aliases[{identity!r}]") for identity, player in doc.items()}


def coalition_table_document(game: CoalitionGame) -> dict:
    """Serialize a game as a coalition-table document (feedable back in)."""
    players = game.players
    entries = [
        {"coalition": list(players.ids_of(mask)), "value": str(value)}
        for mask, value in enumerate(game.value_table())
    ]
    return {"players": list(players.players), "entries": entries}
