"""Version-control evidence -> attribution maps and coalition games.

The input is a line-oriented commit log (one field per line, records separated
by ``---``) that any hosted repository can export; commits claim credit for
leaf conditions through repeatable ``Satisfies: <leaf-id>`` trailers, which are
reviewable in pull requests like any other change.

Evidence comes in two shapes, each with one game builder in :mod:`riskshare.games`:

* leaf -> authors, from trailers via :func:`derive_attribution` -> ``leaf_coverage_game``;
* a value per coalition, from subset rebuilds via :func:`game_from_subset_results` -> ``game_from_table``.

Rebuilding a product from only a subset's commits is never done here; the
library emits :func:`cherry_pick_plan` documents and consumes the resulting
pass/fail evidence, because partial cherry-picks can produce non-compiling
trees that need human judgment.
"""

from __future__ import annotations

import io
import json
import warnings
from datetime import datetime
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Set, Union

from ._frozen import frozen
from .errors import CommitLogWarning, DocumentError, GameDefinitionError, ValidationError
from .games import CoalitionGame, PlayerSet, game_from_table
from .risk import ThreatTree

SATISFIES_KEY = "Satisfies"
RECORD_SEPARATOR = "---"
KNOWN_TRAILER_KEYS = frozenset({SATISFIES_KEY})


class CommitRecord(NamedTuple):
    """One commit of the log: id, author, time, ancestry and trailers.

    An immutable tuple compared field by field. ``timestamp`` is in epoch
    seconds; ``parents`` holds the parent ids as the log lists them (ids
    outside the log are kept); ``trailers`` holds the ``(key, value)`` pairs
    in log order, unknown keys included.
    """

    commit_id: str
    author: str
    timestamp: int
    parents: tuple[str, ...] = ()
    trailers: tuple[tuple[str, str], ...] = ()


#: ``CommitRecord(*fields)`` without the Python-level ``__new__`` that NamedTuple adds; one per parsed commit.
_record = partial(tuple.__new__, CommitRecord)

_PIECE_SIZE = 1 << 16  # bytes of a log file read, decoded and split into lines at a time


def _file_pieces(log: BinaryIO) -> Iterator[str]:
    """The UTF-8 text of the binary file ``log`` in pieces of about ``_PIECE_SIZE`` bytes.

    Each piece is read up to just after a ``b"\\n"``, a byte that no multi-byte character contains, and is
    decoded on its own; a decoding error quotes its position in the file, as decoding the whole file would.
    """
    offset = 0
    for piece in iter(lambda: log.read(_PIECE_SIZE) + log.readline(), b""):
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:  # zero bytes stand in for the pieces already parsed
            raise UnicodeDecodeError(
                exc.encoding, bytes(offset) + piece, offset + exc.start, offset + exc.end, exc.reason
            ) from None
        offset += len(piece)
        yield text


def parse_commit_log(text: Union[str, BinaryIO]) -> list[CommitRecord]:
    """Parse the line-oriented log format into ordered records.

    ``text`` is a binary file to read the log from as UTF-8, or the log's
    text, which is encoded to UTF-8 strictly and read the same way: a ``str``
    holding a lone surrogate (which no UTF-8 file can hold) raises
    :class:`UnicodeEncodeError` before any line is parsed.

    Fields: ``commit:``, ``author:``, ``date:`` (RFC 3339 with a UTC offset,
    ``Z`` or ``z``), ``parent:`` (repeatable), ``trailer:`` (repeatable,
    value is ``Key: value``). Whitespace around keys and values, blank lines
    and CRLF line ends are ignored. Records end with a ``---`` line, the last
    one also with the end of the text. Unknown trailer keys are kept on the
    record but flagged with a :class:`CommitLogWarning`. Structural problems
    (an empty commit id, author, parent, trailer key or trailer value among
    them) raise :class:`DocumentError` naming the offending line; a record's
    missing field or duplicate id is reported at its ``---`` (or the last) line.

    A line ends where :meth:`str.splitlines` ends one: at ``\\r\\n``, ``\\r``,
    ``\\n``, ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028 or U+2029.
    The log is read, decoded and split into lines a piece at a time, so a
    file's parse holds the records and one piece, never the whole text. An
    undecodable byte raises :class:`UnicodeDecodeError` (quoting its offset
    in the file) when its piece is reached, so an error on an earlier line
    is raised first.
    Records share their repeated strings rather than copy them: a parent id
    that names an earlier commit of the log is that commit's id string, equal
    authors are one string, and equal ``trailer:`` values one ``(key, value)``
    pair.
    """
    records: list[CommitRecord] = []
    ids: dict[str, str] = {}  # each commit id to itself, so that parent ids can share it
    authors: dict[str, str] = {}  # each author to itself, so that the records of one author share it
    pairs: dict[str, tuple[str, str]] = {}  # each raw trailer value to its checked (key, value) pair
    unknown_keys: set[str] = set()
    commit = author = timestamp = previous = None
    parents: tuple[str, ...] = ()
    trailers: tuple[tuple[str, str], ...] = ()

    log = io.BytesIO(text.encode("utf-8")) if isinstance(text, str) else text
    lines = chain.from_iterable(map(str.splitlines, _file_pieces(log)))
    numbered = enumerate(chain(lines, (RECORD_SEPARATOR,)), start=1)  # closes an unterminated final record
    for line_no, raw in numbered:
        key, sep, value = raw.partition(":")
        if sep:
            key = key.strip()
            value = value.strip()
            if not value and (key == "commit" or key == "author" or key == "parent"):
                raise DocumentError(f"line {line_no}: empty {key!r} field")
            if key == "commit":
                if commit is not None:
                    raise DocumentError(f"line {line_no}: duplicate 'commit' field in record")
                commit = value
            elif key == "author":
                if author is not None:
                    raise DocumentError(f"line {line_no}: duplicate 'author' field in record")
                author = authors.setdefault(value, value)
            elif key == "date":
                if timestamp is not None:
                    raise DocumentError(f"line {line_no}: duplicate 'date' field in record")
                try:  # Python 3.10's fromisoformat rejects a "Z" suffix
                    stamp = datetime.fromisoformat(value[:-1] + "+00:00" if value.endswith(("Z", "z")) else value)
                except ValueError as exc:
                    raise DocumentError(f"line {line_no}: invalid RFC3339 date {value!r}") from exc
                if stamp.tzinfo is None:
                    raise DocumentError(f"line {line_no}: date {value!r} lacks a UTC offset")
                timestamp = int(stamp.timestamp())
            elif key == "parent":
                # exported oldest first, a commit's parent is most often the record just before it
                parents += (previous if value == previous else ids.get(value, value),)
            elif key == "trailer":
                pair = pairs.get(value)
                if pair is None:  # a value seen before was checked then
                    t_key, t_sep, t_value = value.partition(":")
                    if not t_sep:
                        raise DocumentError(f"line {line_no}: trailer {value!r} is not of the form 'Key: value'")
                    t_key, t_value = t_key.strip(), t_value.strip()
                    if not t_key or not t_value:
                        raise DocumentError(f"line {line_no}: trailer {value!r} has an empty {'value' if t_key else 'key'}")
                    if t_key not in KNOWN_TRAILER_KEYS:
                        unknown_keys.add(t_key)
                    pair = pairs[value] = (t_key, t_value)
                trailers += (pair,)
            else:
                raise DocumentError(f"line {line_no}: unknown field {key!r}")
            continue
        line = raw.strip()
        if line != RECORD_SEPARATOR:
            if line:
                raise DocumentError(f"line {line_no}: malformed line {raw!r} (expected 'field: value')")
            continue
        if commit is None or author is None or timestamp is None or commit in ids:
            if commit is author is timestamp is None and not parents and not trailers:
                continue  # no record open: a repeated or trailing separator
            at = line_no if next(numbered, None) else line_no - 1  # the closing separator reports the last line
            for required, got in (("commit", commit), ("author", author), ("date", timestamp)):
                if got is None:
                    raise DocumentError(f"line {at}: record missing {required!r} field")
            raise DocumentError(f"line {at}: duplicate commit id {commit!r}")
        ids[commit] = previous = commit
        records.append(_record((commit, author, timestamp, parents, trailers)))
        commit = author = timestamp = None
        parents = trailers = ()

    if unknown_keys:
        warnings.warn(
            f"ignoring unknown trailer keys: {sorted(unknown_keys)}",
            CommitLogWarning,
            stacklevel=2,
        )
    return records


def resolve_identities(records: Sequence[CommitRecord], aliases: Mapping[str, str]) -> list[CommitRecord]:
    """Map author identities (emails, display names) to canonical player ids.

    Identities without an alias entry become provisional players under their
    raw identity: one :class:`CommitLogWarning` names them all, in order of
    first appearance, and is not fatal. An identity that already *is* a
    canonical id passes through silently.
    """
    known = set(aliases.values())  # canonical ids, then each provisional identity once seen
    resolved: list[CommitRecord] = []
    provisional: list[str] = []  # in order of first appearance
    for r in records:
        if r.author in aliases:
            resolved.append(
                CommitRecord(r.commit_id, aliases[r.author], r.timestamp, r.parents, r.trailers)
            )
        else:
            if r.author not in known:
                known.add(r.author)
                provisional.append(r.author)
            resolved.append(r)
    if provisional:
        warnings.warn(
            f"identities without alias entries kept as provisional players: {provisional}",
            CommitLogWarning,
            stacklevel=2,
        )
    return resolved


# --------------------------------------------------------------------------
# Appraisal cycles
# --------------------------------------------------------------------------


@frozen
class Cycle:
    """The stretch of history one appraisal run covers.

    Either commit-bounded or time-bounded (an inclusive timestamp range, its
    end not before its start). Commit bounds mean what
    ``git log from_commit..to_commit`` means: the
    commits reachable from ``to_commit`` over ``parent`` links, minus those
    reachable from ``from_commit``. An open end stands for every commit in the
    log, and parents that are not in the log are outside the window, so a
    branch that forked before ``from_commit`` and merged after it counts. A
    commit bound that does not occur in the log is a validation error.
    """

    from_commit: Optional[str] = None
    to_commit: Optional[str] = None
    from_time: Optional[int] = None
    to_time: Optional[int] = None

    def __post_init__(self):
        commit_bounded = self.from_commit is not None or self.to_commit is not None
        time_bounded = self.from_time is not None or self.to_time is not None
        if commit_bounded and time_bounded:
            raise ValueError("a cycle is bounded by commits or by times, not both")
        if self.from_time is not None and self.to_time is not None and self.to_time < self.from_time:
            raise ValueError(f"cycle end time {self.to_time} precedes its start time {self.from_time}")


def _ancestry(parents: Mapping[str, tuple[str, ...]], tip: str) -> set[str]:
    """``tip`` and every log commit reachable from it over parent links."""
    reached = {tip}
    stack = [tip]
    while stack:
        for parent in parents[stack.pop()]:
            if parent in parents and parent not in reached:
                reached.add(parent)
                stack.append(parent)
    return reached


def select_cycle(records: Sequence[CommitRecord], cycle: Cycle) -> list[CommitRecord]:
    """Records inside the cycle, in log order.

    A commit-bounded window is git's ``from_commit..to_commit`` over the
    log's parent links (see :class:`Cycle`); on a linear log it is the
    records after ``from_commit`` up to and including ``to_commit``. A bound
    missing from the log, or a ``to_commit`` that ``from_commit`` already
    reaches, is a :class:`ValidationError`.
    """
    if cycle.from_time is not None or cycle.to_time is not None:
        lo = cycle.from_time if cycle.from_time is not None else float("-inf")
        hi = cycle.to_time if cycle.to_time is not None else float("inf")
        return [r for r in records if lo <= r.timestamp <= hi]
    if cycle.from_commit is None and cycle.to_commit is None:
        return list(records)
    parents = {r.commit_id: r.parents for r in records}
    for bound in (cycle.from_commit, cycle.to_commit):
        if bound is not None and bound not in parents:
            raise ValidationError(f"cycle boundary commit {bound!r} not found in the log")
    before = set() if cycle.from_commit is None else _ancestry(parents, cycle.from_commit)
    if cycle.to_commit is None:
        return [r for r in records if r.commit_id not in before]
    if cycle.to_commit in before:
        raise ValidationError(
            f"cycle end {cycle.to_commit!r} precedes its start {cycle.from_commit!r}"
        )
    window = _ancestry(parents, cycle.to_commit) - before
    return [r for r in records if r.commit_id in window]


def derive_attribution(
    records: Sequence[CommitRecord],
    tree: ThreatTree,
    cycle: Cycle = Cycle(),
) -> dict[str, frozenset[str]]:
    """Per-leaf author sets from in-cycle ``Satisfies`` trailers.

    Every tree leaf appears in the result; a leaf no in-cycle commit claimed
    maps to the empty set (covered by no coalition). A trailer naming an
    unknown leaf is a validation error listing all offenders.
    """
    known = set(tree.leaf_ids())
    authors: dict[str, set[str]] = {leaf: set() for leaf in tree.leaf_ids()}
    offenders: list[tuple[str, str]] = []
    for r in select_cycle(records, cycle):
        for key, leaf_id in r.trailers:
            if key != SATISFIES_KEY:
                continue
            if leaf_id not in known:
                offenders.append((r.commit_id, leaf_id))
            else:
                authors[leaf_id].add(r.author)
    if offenders:
        shown = ", ".join(f"{c}->{leaf}" for c, leaf in offenders)
        raise ValidationError(f"trailers reference unknown leaf ids: {shown}")
    return {leaf: frozenset(people) for leaf, people in authors.items()}


# --------------------------------------------------------------------------
# Cherry-pick plans
# --------------------------------------------------------------------------


@frozen
class CherryPickPlan:
    """Instructions for rebuilding the product from one coalition's commits.

    The plan is emitted, never executed: step 4's picks may not even compile
    on their own, and judging that is build-system work, not accounting work.
    """

    base_commit: str
    subset: tuple[str, ...]
    picks: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    def branch_name(self) -> str:
        return "coalition-" + "-".join(self.subset) if self.subset else "coalition-empty"

    def to_document(self) -> dict:
        return {
            "base_commit": self.base_commit,
            "subset": list(self.subset),
            "warnings": list(self.warnings),
            "steps": [
                {
                    "step": 1,
                    "action": "evaluate-current",
                    "description": "record the current full-team evaluation v1 before touching anything",
                },
                {"step": 2, "action": "declare-base", "commit": self.base_commit},
                {
                    "step": 3,
                    "action": "create-branch",
                    "name": self.branch_name(),
                    "from": self.base_commit,
                },
                {"step": 4, "action": "cherry-pick", "commits": list(self.picks)},
                {
                    "step": 5,
                    "action": "rebuild-and-evaluate",
                    "description": "rebuild, run the leaf checks, record the subset evaluation v2",
                },
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"


def cherry_pick_plan(
    records: Sequence[CommitRecord],
    base_commit: str,
    subset: Set[str],
    *,
    to_commit: Optional[str] = None,
) -> CherryPickPlan:
    """Plan for evaluating coalition ``subset`` from commits after ``base_commit``.

    Picks are the in-window commits authored by the subset, in their original
    log order (so interleaved authors replay in the order they landed). An
    empty pick list is allowed but marked with a warning.
    """
    window = select_cycle(records, Cycle(from_commit=base_commit, to_commit=to_commit))
    picks = tuple(r.commit_id for r in window if r.author in subset)
    plan_warnings = []
    if not window:
        plan_warnings.append("window after base commit contains no commits")
    elif not picks:
        plan_warnings.append("no commits in the window were authored by the subset")
    return CherryPickPlan(
        base_commit=base_commit,
        subset=tuple(sorted(subset)),
        picks=picks,
        warnings=tuple(plan_warnings),
    )


# --------------------------------------------------------------------------
# Subset evaluation results
# --------------------------------------------------------------------------


@frozen
class SubsetResult:
    """Outcome of externally rebuilding one coalition: which leaves passed."""

    subset: frozenset[str]
    passing: frozenset[str]

    def __init__(self, subset: Iterable[str], passing: Iterable[str]):
        object.__setattr__(self, "subset", frozenset(subset))
        object.__setattr__(self, "passing", frozenset(passing))


def game_from_subset_results(
    results: Iterable[SubsetResult],
    tree: ThreatTree,
    players: PlayerSet,
    normalized: bool = False,
) -> CoalitionGame:
    """Build a game from per-coalition pass lists, through :func:`game_from_table`.

    Unknown leaves, conflicting duplicates and a nonempty pass list for the
    empty coalition are errors here; the table builder checks the player cap,
    unknown players and the coverage of all ``2**n`` coalitions.
    """
    if normalized and tree.leaf_count == 0:
        raise GameDefinitionError("cannot normalize over a tree with no leaves")
    denom = tree.leaf_count if normalized else 1
    known = set(tree.leaf_ids())
    passing: dict[frozenset[str], frozenset[str]] = {}
    for result in results:
        bad = sorted(result.passing - known)
        if bad:
            raise GameDefinitionError(f"subset result references unknown leaf ids: {bad}")
        if passing.setdefault(result.subset, result.passing) != result.passing:
            coalition = players.ids_of(players.mask_of(result.subset))
            raise GameDefinitionError(f"conflicting duplicate results for coalition {coalition}")
        if not result.subset and result.passing:
            raise GameDefinitionError(
                f"empty coalition cannot pass leaves, got {sorted(result.passing)}"
            )
    rows = [(subset, Fraction(len(leaves), denom)) for subset, leaves in passing.items()]
    return game_from_table(players, rows, label="subset-results")
