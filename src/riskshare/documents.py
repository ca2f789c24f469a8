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


def loads_exact(text: str, source: Pathish = ""):
    """json.loads with floats parsed as exact decimal Fractions, within :func:`as_fraction`'s bounds.

    A ``source`` names the text in the error for malformed JSON.
    """
    try:
        return json.loads(text, parse_float=as_fraction)
    except ValueError as exc:  # malformed JSON, or a number literal out of bounds
        reason = str(exc).partition(";")[0]  # without int()'s advice to raise Python's digit limit
        message = f"invalid JSON: {reason}"
        raise DocumentError(f"{source}: {message}" if source else message) from exc


def load_text(path: Pathish) -> str:
    """The text of an input file; one that cannot be read or is not UTF-8 is a DocumentError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def load_json(path: Pathish):
    return loads_exact(load_text(path), path)


def _expect(doc: dict, key: str, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing key {key!r}")
    return doc[key]


def _field(doc: dict, key: str, where: str, read, *args):
    """``read(doc[key], <its location>, *args)``; ``where`` locates ``doc``, "" for a whole document."""
    return read(_expect(doc, key, where or "document"), f"{where}.{key}" if where else key, *args)


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


def _record(value, where: str, allowed) -> dict:
    """A JSON object holding only the keys in ``allowed``; ``where`` locates it, "" for a whole document."""
    doc = _object(value, where or "document")
    for key in doc:
        if key not in allowed:
            at = f"{where}.{key}" if where else key
            raise DocumentError(f"{at}: unknown key (expected one of {', '.join(allowed)})")
    return doc


def _boolean(value, where: str) -> bool:
    """A JSON true or false, never a value coerced into one."""
    if not isinstance(value, bool):
        raise DocumentError(f"{where}: expected true or false, got {_describe(value)}")
    return value


def _string(value, where: str) -> str:
    """A JSON string, never a value coerced into one."""
    if not isinstance(value, str):
        raise DocumentError(f"{where}: expected a string, got {_describe(value)}")
    return value


def _integer(value, where: str) -> int:
    """A JSON integer, never a bool, float or string."""
    if type(value) is not int:
        raise DocumentError(f"{where}: expected an integer, got {_describe(value)}")
    return value


def _rows(value, where: str, keys):
    """``(location, object)`` for each entry of a JSON array of objects holding only ``keys``."""
    for k, row in enumerate(_list(value, where)):
        at = f"{where}[{k}]"
        yield at, _record(row, at, keys)


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


def _interval(doc: dict, where: str) -> Interval:
    lo = _field(doc, "lo", where, _rational)
    hi = _field(doc, "hi", where, _rational)
    try:
        return Interval(lo, hi)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def scale_from_document(doc: dict, where: str = "scale") -> QualitativeScale:
    doc = _record(doc, where, ("name", "kind", "categories"))
    name = _field(doc, "name", where, _string)
    kind = _field(doc, "kind", where, _string)
    categories = []
    for cat_where, cat in _field(doc, "categories", where, _rows, ("label", "lo", "hi")):
        label = _field(cat, "label", cat_where, _string)
        categories.append((label, _interval(cat, cat_where)))
    try:
        return QualitativeScale(name=name, kind=kind, categories=tuple(categories))
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def _named(doc: dict, where: str) -> tuple[str, str]:
    """A tree node's ``id`` and its optional ``label``."""
    return _field(doc, "id", where, _string), _string(doc.get("label", ""), f"{where}.label")


def risk_model_from_document(doc: dict) -> RiskModel:
    """Build a RiskModel from a parsed risk-model document.

    Top-level keys: ``scales`` (object with ``likelihood`` and ``impact``
    slots), ``threats`` (nested controls/leaves), ``assessments``. Every
    object holds only its documented keys.
    """
    doc = _record(doc, "", ("scales", "threats", "assessments"))
    scales_doc = _field(doc, "scales", "", _record, ("likelihood", "impact"))
    likelihood = _field(scales_doc, "likelihood", "scales", scale_from_document)
    impact = _field(scales_doc, "impact", "scales", scale_from_document)
    try:
        scales = ScaleSet(likelihood=likelihood, impact=impact)
    except ValueError as exc:
        raise DocumentError(f"scales: {exc}") from exc

    threats = []
    for t_where, t_doc in _field(doc, "threats", "", _rows, ("id", "label", "controls")):
        controls = []
        for c_where, c_doc in _rows(t_doc.get("controls", []), f"{t_where}.controls", ("id", "label", "leaves")):
            leaves = tuple(
                LeafCondition(*_named(l_doc, l_where))
                for l_where, l_doc in _rows(c_doc.get("leaves", []), f"{c_where}.leaves", ("id", "label"))
            )
            controls.append(Control(*_named(c_doc, c_where), leaves=leaves))
        threats.append(Threat(*_named(t_doc, t_where), controls=tuple(controls)))
    tree = ThreatTree(threats=tuple(threats))

    assessments = []
    keys = ("threat", "likelihood_before", "impact_before", "likelihood_after", "impact_after")
    for a_where, a_doc in _rows(doc.get("assessments", []), "assessments", keys):
        fields = (_field(a_doc, key, a_where, _string) for key in keys)
        assessments.append(ThreatAssessment(*fields))
    return RiskModel(scales=scales, tree=tree, assessments=tuple(assessments))


def load_risk_model(path: Pathish) -> RiskModel:
    return risk_model_from_document(load_json(path))


def _envelope(doc, key: str, what: str, *others: str) -> tuple[Optional[tuple[str, ...]], list]:
    """A bare list of rows, or an object with an optional ``players`` roster, the rows under ``key`` and ``others``."""
    if isinstance(doc, list):
        return None, doc
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be a list or an object")
    _record(doc, "", ("players", key, *others))
    roster = _strings(doc["players"], "players") if "players" in doc else None
    return roster, _expect(doc, key, what)


def coalition_game_from_document(doc, *, label: str = "coalition-table") -> CoalitionGame:
    """Parse a coalition-table document.

    Either a bare list of ``{"coalition": [...], "value": ...}`` rows, or an
    object with a ``players`` roster plus an ``entries`` list and an optional
    boolean ``default_zero``. With a bare list the roster is the sorted union
    of all named players.
    """
    if isinstance(doc, dict):
        _expect(doc, "players", "coalition table")  # required here, optional in the other envelopes
    roster, rows = _envelope(doc, "entries", "coalition table", "default_zero")
    default_zero = isinstance(doc, dict) and _boolean(doc.get("default_zero", False), "default_zero")
    entries = []
    for where, row in _rows(rows, "entries", ("coalition", "value")):
        coalition = _field(row, "coalition", where, _strings)
        value = _field(row, "value", where, _rational)
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
    roster, rows = _envelope(doc, "attribution", "attribution document")
    attribution: dict[str, frozenset[str]] = {}
    for where, row in _rows(rows, "attribution", ("leaf", "authors")):
        leaf = _field(row, "leaf", where, _string)
        if leaf in attribution:
            raise DocumentError(f"{where}: duplicate leaf {leaf!r}")
        attribution[leaf] = frozenset(_field(row, "authors", where, _strings))
    return roster, attribution


def load_attribution(path: Pathish):
    return attribution_from_document(load_json(path))


def subset_results_from_document(doc) -> tuple[Optional[tuple[str, ...]], list[SubsetResult]]:
    """Parse subset-evaluation results: rows of ``{"subset": [...], "passing": [...]}``."""
    roster, rows = _envelope(doc, "results", "subset results document")
    results = []
    for where, row in _rows(rows, "results", ("subset", "passing")):
        subset = _field(row, "subset", where, _strings)
        passing = _field(row, "passing", where, _strings)
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
