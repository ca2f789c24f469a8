"""Version-control evidence: commit logs, attribution maps and cherry-pick plans.

The input is a line-oriented commit log (one field per line, records separated
by ``---``) that any hosted repository can export; commits claim credit for
leaf conditions through repeatable ``Satisfies: <leaf-id>`` trailers, which are
reviewable in pull requests like any other change. :func:`derive_attribution`
turns them into a leaf -> authors map, which ``games.leaf_coverage_game``
makes a game.

Rebuilding a product from only a subset's commits is never done here, because
partial cherry-picks can produce non-compiling trees that need human judgment.
The library emits :func:`cherry_pick_plan` documents, and
``games.game_from_subset_results`` turns the resulting pass/fail evidence
into a game.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Optional, Set, Union

from ._frozen import frozen
from .errors import DocumentError, ValidationError
from .risk import ThreatTree, ValidationIssue

SATISFIES_KEY = "Satisfies"
RECORD_SEPARATOR = "---"
KNOWN_TRAILER_KEYS = frozenset({SATISFIES_KEY})
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


#: A commit's fields: its id, author, time in epoch seconds (rounded down), parent ids (as the log lists them; ids
#: outside the log are kept) and ``(key, value)`` trailer pairs (in log order, unknown keys included).
_Fields = tuple[str, str, int, tuple[str, ...], tuple[tuple[str, str], ...]]

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


def parse_commit_log(log: BinaryIO, authors: dict[str, str], *, findings: list[ValidationIssue]) -> Iterator[_Fields]:
    """The records of the line-oriented log in the binary file ``log``, read as UTF-8, in log order.

    Each record is a plain tuple ``(commit id, author, timestamp, parents, trailers)``, yielded once it is
    complete: the timestamp is in epoch seconds, rounded down; the parents are the parent ids as the log lists
    them (ids outside the log are kept); the trailers are ``(key, value)`` pairs in log order, unknown keys
    included. The records are read once, as a stream, and nothing keeps them but the reader.

    Fields: ``commit:``, ``author:``, ``date:`` (RFC 3339 with a UTC offset,
    ``Z`` or ``z``), ``parent:`` (repeatable), ``trailer:`` (repeatable,
    value is ``Key: value``). Whitespace around keys and values, blank lines
    and CRLF line ends are ignored. Records end with a ``---`` line, the last
    one also with the end of the file. Unknown trailer keys are kept on the
    record and named by one warning issue, appended to ``findings`` after the
    last record.
    Structural problems (an empty commit id, author, parent, trailer key or
    trailer value among them) raise :class:`DocumentError` naming the offending
    line; a record's missing field or duplicate id is reported at its ``---``
    (or the last) line.

    A line ends where :meth:`str.splitlines` ends one: at ``\\r\\n``, ``\\r``,
    ``\\n``, ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028 or U+2029.
    The log is read, decoded and split into lines a piece at a time, so the
    reader holds one piece, never the whole text. An undecodable byte raises
    :class:`UnicodeDecodeError` (quoting its offset in the file) when its
    piece is reached, so an error on an earlier line is raised first.

    Records share their repeated strings rather than copy them: a parent id
    that names an earlier commit of the log is that commit's id string, equal
    authors are one string, and equal ``trailer:`` values one ``(key, value)``
    pair. ``authors`` maps each author to itself, in order of first
    appearance, so a reader that keeps no records still learns every author.
    """
    ids: dict[str, str] = {}  # each commit id to itself, so that parent ids can share it
    pairs: dict[str, tuple[str, str]] = {}  # each raw trailer value to its checked (key, value) pair
    unknown_keys: set[str] = set()
    commit = author = timestamp = previous = None
    parents: tuple[str, ...] = ()
    trailers: tuple[tuple[str, str], ...] = ()
    fromisoformat, shared_author = datetime.fromisoformat, authors.setdefault  # bound once, called once a line
    shared_id, checked_pair = ids.get, pairs.get

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
                author = shared_author(value, value)
            elif key == "date":
                if timestamp is not None:
                    raise DocumentError(f"line {line_no}: duplicate 'date' field in record")
                try:  # Python 3.10's fromisoformat rejects a "Z" suffix; an empty value, read as "+00:00", fails too
                    stamp = fromisoformat(value[:-1] + "+00:00" if value[-1:] in "Zz" else value)
                except ValueError as exc:
                    raise DocumentError(f"line {line_no}: invalid RFC3339 date {value!r}") from exc
                if stamp.tzinfo is None:
                    raise DocumentError(f"line {line_no}: date {value!r} lacks a UTC offset")
                span = stamp - _EPOCH  # whole days and seconds, the exact floor; timestamp() rounds through a float
                timestamp = span.days * 86400 + span.seconds
            elif key == "parent":
                # exported oldest first, a commit's parent is most often the record just before it
                parents += (previous if value == previous else shared_id(value, value),)
            elif key == "trailer":
                pair = checked_pair(value)
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
        yield commit, author, timestamp, parents, trailers
        commit = author = timestamp = None
        parents = trailers = ()

    if unknown_keys:
        message = f"ignoring unknown trailer keys: {sorted(unknown_keys)}"
        findings.append(ValidationIssue("CommitLogWarning", message, severity="warning"))


def _warn_provisional(authors: Iterable[str], aliases: Mapping[str, str]) -> Optional[ValidationIssue]:
    """The warning issue naming the ``authors`` that are neither an alias nor a canonical id, or None.

    They stay players under their raw identity; each is named once, in order of first appearance.
    """
    canonical = set(aliases.values())
    provisional = [a for a in dict.fromkeys(authors) if a not in aliases and a not in canonical]
    if not provisional:
        return None
    message = f"identities without alias entries kept as provisional players: {provisional}"
    return ValidationIssue("CommitLogWarning", message, severity="warning")


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


#: A commit's parent ids, or the one id of a commit that has one parent.
_Parents = Union[str, tuple[str, ...]]


def _ancestry(parents: Mapping[str, _Parents], tip: str) -> set[str]:
    """``tip`` and every log commit reachable from it over parent links."""
    reached = {tip}
    stack = [tip]
    while stack:
        links = parents[stack.pop()]
        for parent in (links,) if isinstance(links, str) else links:
            if parent in parents and parent not in reached:
                reached.add(parent)
                stack.append(parent)
    return reached


def _time_range(cycle: Cycle) -> tuple[float, float]:
    """The cycle's inclusive timestamp range; an open end, or a commit-bounded cycle's, is unbounded."""
    return (
        float("-inf") if cycle.from_time is None else cycle.from_time,
        float("inf") if cycle.to_time is None else cycle.to_time,
    )


def _window(parents: Mapping[str, _Parents], cycle: Cycle) -> Callable[[str], bool]:
    """Whether a commit of the log, given by id, is inside the commit-bounded ``cycle``.

    ``parents`` maps every commit of the log to its parent ids. A bound missing from the log, or a ``to_commit``
    that ``from_commit`` already reaches, is a :class:`ValidationError`.
    """
    for bound in (cycle.from_commit, cycle.to_commit):
        if bound is not None and bound not in parents:
            raise ValidationError(f"cycle boundary commit {bound!r} not found in the log")
    before = set() if cycle.from_commit is None else _ancestry(parents, cycle.from_commit)
    if cycle.to_commit is None:
        return lambda commit: commit not in before
    if cycle.to_commit in before:
        raise ValidationError(
            f"cycle end {cycle.to_commit!r} precedes its start {cycle.from_commit!r}"
        )
    return (_ancestry(parents, cycle.to_commit) - before).__contains__


def derive_attribution(
    records: Iterable[_Fields],
    tree: ThreatTree,
    cycle: Cycle = Cycle(),
) -> dict[str, frozenset[str]]:
    """Per-leaf author sets from in-cycle ``Satisfies`` trailers.

    Every tree leaf appears in the result; a leaf no in-cycle commit claimed
    maps to the empty set (covered by no coalition). A trailer naming an
    unknown leaf is a validation error listing all offenders; a commit bound
    missing from the log, or a ``to_commit`` that ``from_commit`` already
    reaches, is refused first, with its own validation error.

    ``records`` hold each commit's fields in :func:`parse_commit_log`'s order
    and are read once, in log order, so they may be its stream. Of each
    record only its ``Satisfies`` claims are kept (those in range, for a
    time-bounded cycle), and for a commit-bounded cycle its parent ids, until
    the window is known.
    """
    lo, hi = _time_range(cycle)
    graph: Optional[dict[str, _Parents]] = None  # each commit's parents, for a commit-bounded cycle
    if cycle.from_commit is not None or cycle.to_commit is not None:
        graph = {}
    claims: list[tuple[str, str, str]] = []  # (commit id, author, leaf id) in log order
    for commit_id, author, timestamp, parents, trailers in records:
        if graph is not None:  # a lone parent is kept as its id, an earlier commit's string, not as a new tuple
            graph[commit_id] = parents[0] if len(parents) == 1 else parents
        if trailers and lo <= timestamp <= hi:
            for key, leaf in trailers:
                if key == SATISFIES_KEY:
                    claims.append((commit_id, author, leaf))
    if graph is not None:
        inside = _window(graph, cycle)
        claims = [claim for claim in claims if inside(claim[0])]
    authors: dict[str, set[str]] = {leaf: set() for leaf in tree.leaf_ids()}
    offenders = [f"{commit}->{leaf}" for commit, _, leaf in claims if leaf not in authors]
    if offenders:
        raise ValidationError(f"trailers reference unknown leaf ids: {', '.join(offenders)}")
    for _, author, leaf in claims:
        authors[leaf].add(author)
    return {leaf: frozenset(people) for leaf, people in authors.items()}


# --------------------------------------------------------------------------
# Cherry-pick plans
# --------------------------------------------------------------------------


#: The bytes of a player id that a plan's branch name keeps as they are.
_BRANCH_BYTES = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_@")


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
        """``coalition``, then each player id of the subset, joined by ``-``.

        Each byte of an id's UTF-8 outside ``[A-Za-z0-9_@]`` is written ``%XX``,
        so distinct subsets name distinct branches and every name is one that
        ``git check-ref-format --branch`` accepts. A lone surrogate, which a
        JSON roster and a command line can both hold, counts as its three bytes.
        """
        parts = ["coalition"]
        for player in self.subset:
            utf8 = player.encode("utf-8", "surrogatepass")
            parts.append("".join(chr(b) if b in _BRANCH_BYTES else f"%{b:02X}" for b in utf8))
        return "-".join(parts)

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
    records: Iterable[_Fields],
    base_commit: str,
    subset: Set[str],
    *,
    to_commit: Optional[str] = None,
    aliases: Optional[Mapping[str, str]] = None,
) -> CherryPickPlan:
    """Plan for evaluating coalition ``subset`` from the commits after ``base_commit``.

    The window is the :class:`Cycle` from ``base_commit`` to ``to_commit``,
    refused as :func:`derive_attribution` refuses it. Picks are the in-window
    commits whose author, or the player id ``aliases`` maps it to, is in the
    subset, in their original log order (so interleaved authors replay in the
    order they landed). An empty pick list is allowed but marked with a warning.

    ``records`` are read once, as :func:`derive_attribution` reads them: of
    each commit only its parent ids and its author are kept, until the window
    is known. ``aliases`` is read after the last record.
    """
    graph: dict[str, _Parents] = {}  # a lone parent is kept as its id, as derive_attribution keeps it
    authors: dict[str, str] = {}  # each commit's author, in log order
    for commit_id, author, _, parents, _ in records:
        graph[commit_id] = parents[0] if len(parents) == 1 else parents
        authors[commit_id] = author
    inside = _window(graph, Cycle(from_commit=base_commit, to_commit=to_commit))
    window = [commit for commit in authors if inside(commit)]
    player_of = (aliases or {}).get
    picks = tuple(commit for commit in window if player_of(authors[commit], authors[commit]) in subset)
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
