"""Readers for the JSON input documents.

All numeric fields accept decimal strings, integers, or JSON numbers; every
number is parsed straight into an exact rational (JSON floats are hooked into
Fraction before any binary rounding can happen).
"""

from __future__ import annotations

import json
import re
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


#: A JSON string literal, skipped, or a number literal (group 1).
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)')


def _bad_number(text: str) -> Optional[int]:
    """The offset of the first number literal outside strings that :func:`loads_exact` cannot convert."""
    for match in _TOKEN.finditer(text):
        literal = match[1]
        if literal is None:
            continue
        try:
            (int if literal.lstrip("-").isdigit() else as_fraction)(literal)
        except ValueError:
            return match.start(1)
    return None


def loads_exact(text: str):
    """json.loads with floats parsed as exact decimal Fractions, within :func:`as_fraction`'s bounds.

    A number literal out of bounds is located as ``json`` locates a syntax error:
    ``<reason>: line L column C (char N)``. Nesting deeper than the decoder's
    recursion limit is an error too, not a RecursionError.
    """
    try:
        return json.loads(text, parse_float=as_fraction)
    except ValueError as exc:  # malformed JSON, or a number literal out of bounds
        reason = str(exc).partition(";")[0]  # without int()'s advice to raise Python's digit limit
        at = None if isinstance(exc, json.JSONDecodeError) else _bad_number(text)
        if at is not None:  # int() and as_fraction raise without a position
            reason = str(json.JSONDecodeError(reason, text, at))
        raise DocumentError(f"invalid JSON: {reason}") from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise DocumentError("invalid JSON: nested too deeply") from exc


def load(path: Pathish, parse):
    """``parse`` applied to an input file's text; a read error or a DocumentError of ``parse`` names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def load_json(path: Pathish, read=lambda doc: doc):
    """``read`` applied to the JSON document at ``path``, read through :func:`load`."""
    return load(path, lambda text: read(loads_exact(text)))


def _expect(doc: dict, key: str, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing key {key!r}")
    return doc[key]


#: ``_field``'s default: the key must be present.
_REQUIRED = object()


def _field(doc: dict, key: str, where: str, read, *args, default=_REQUIRED):
    """``read(doc[key], <its location>, *args)``; ``where`` locates ``doc``, "" for a whole document.

    An absent key is an error, or gives ``default`` when one is passed. A present
    key always goes to ``read``, so a ``null`` is the reader's to reject.
    """
    if default is not _REQUIRED and key not in doc:
        return default
    return read(_expect(doc, key, where or "document"), f"{where}.{key}" if where else key, *args)


def _nullable(doc: dict, key: str, where: str, read, *args):
    """:func:`_field` for a key that must be present and may be null (read as None), as stored reports write it."""
    return None if _expect(doc, key, where or "document") is None else _field(doc, key, where, read, *args)


def _describe(value) -> str:
    """A parsed JSON value, named by its JSON type and quoted up to 60 characters."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return f"boolean {str(value).lower()}"
    if isinstance(value, Fraction):  # JSON floats are parsed as exact Fractions
        return f"float {float(value)}"
    kind = {str: "string", list: "array", dict: "object", int: "integer"}.get(type(value), "value")
    try:
        text = repr(value)
    except RecursionError:  # nested deeper than repr can recurse
        return f"{kind} nested too deeply to quote"
    return f"{kind} {text[:60]}…" if len(text) > 60 else f"{kind} {text}"


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
    return _field(doc, "id", where, _string), _field(doc, "label", where, _string, default="")


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
        for c_where, c_doc in _field(t_doc, "controls", t_where, _rows, ("id", "label", "leaves"), default=()):
            leaves = tuple(
                LeafCondition(*_named(l_doc, l_where))
                for l_where, l_doc in _field(c_doc, "leaves", c_where, _rows, ("id", "label"), default=())
            )
            controls.append(Control(*_named(c_doc, c_where), leaves=leaves))
        threats.append(Threat(*_named(t_doc, t_where), controls=tuple(controls)))
    tree = ThreatTree(threats=tuple(threats))

    assessments = []
    keys = ("threat", "likelihood_before", "impact_before", "likelihood_after", "impact_after")
    for a_where, a_doc in _field(doc, "assessments", "", _rows, keys, default=()):
        fields = (_field(a_doc, key, a_where, _string) for key in keys)
        assessments.append(ThreatAssessment(*fields))
    return RiskModel(scales=scales, tree=tree, assessments=tuple(assessments))


def load_risk_model(path: Pathish) -> RiskModel:
    return load_json(path, risk_model_from_document)


def _envelope(doc, key: str, *others: str) -> tuple[Optional[tuple[str, ...]], list]:
    """An object's optional ``players`` (the document's only roster) and its rows under ``key``, beside ``others``."""
    doc = _record(doc, "", ("players", key, *others))
    return _field(doc, "players", "", _strings, default=None), _field(doc, key, "", _list)


def coalition_game_from_document(doc, *, label: str = "coalition-table") -> CoalitionGame:
    """Parse a coalition-table document.

    An object with its required ``players`` roster, an ``entries`` list of
    ``{"coalition": [...], "value": ...}`` rows and an optional boolean
    ``default_zero``.
    """
    roster, rows = _envelope(doc, "entries", "default_zero")
    _expect(doc, "players", "document")  # required here, optional in the other documents
    default_zero = _field(doc, "default_zero", "", _boolean, default=False)
    entries = []
    for where, row in _rows(rows, "entries", ("coalition", "value")):
        coalition = _field(row, "coalition", where, _strings)
        value = _field(row, "value", where, _rational)
        entries.append((coalition, value))
    return game_from_table(PlayerSet(roster), entries, default_zero=default_zero, label=label)


def load_coalition_game(path: Pathish) -> CoalitionGame:
    return load_json(path, lambda doc: coalition_game_from_document(doc, label=f"coalition-table:{Path(path).name}"))


def attribution_from_document(doc) -> tuple[Optional[tuple[str, ...]], dict[str, frozenset[str]]]:
    """Parse an attribution document: an optional ``players`` roster and rows of ``{"leaf": id, "authors": [ids]}``.

    Returns the roster (None when absent) and the leaf-to-authors map.
    """
    roster, rows = _envelope(doc, "attribution")
    attribution: dict[str, frozenset[str]] = {}
    for where, row in _rows(rows, "attribution", ("leaf", "authors")):
        leaf = _field(row, "leaf", where, _string)
        if leaf in attribution:
            raise DocumentError(f"{where}: duplicate leaf {leaf!r}")
        attribution[leaf] = frozenset(_field(row, "authors", where, _strings))
    return roster, attribution


def load_attribution(path: Pathish):
    return load_json(path, attribution_from_document)


def subset_results_from_document(doc) -> tuple[Optional[tuple[str, ...]], list[SubsetResult]]:
    """Parse subset results: an optional ``players`` roster and rows of ``{"subset": [...], "passing": [...]}``."""
    roster, rows = _envelope(doc, "results")
    results = []
    for where, row in _rows(rows, "results", ("subset", "passing")):
        subset = _field(row, "subset", where, _strings)
        passing = _field(row, "passing", where, _strings)
        results.append(SubsetResult(subset, passing))
    return roster, results


def load_subset_results(path: Pathish):
    return load_json(path, subset_results_from_document)


def _aliases(doc) -> dict[str, str]:
    if not isinstance(doc, dict):
        raise DocumentError("alias document must be an object mapping identity -> player id")
    return {identity: _string(player, f"aliases[{identity!r}]") for identity, player in doc.items()}


def load_aliases(path: Pathish) -> dict[str, str]:
    return load_json(path, _aliases)


def coalition_table_document(game: CoalitionGame) -> dict:
    """Serialize a game as a coalition-table document (feedable back in)."""
    players = game.players
    entries = [
        {"coalition": list(players.ids_of(mask)), "value": str(value)}
        for mask, value in enumerate(game.value_table())
    ]
    return {"players": list(players.players), "entries": entries}
