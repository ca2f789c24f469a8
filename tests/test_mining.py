import io
import json
import random
import re
import shutil
import subprocess
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riskshare import (
    CherryPickPlan,
    Control,
    Cycle,
    DocumentError,
    GameDefinitionError,
    LeafCondition,
    PlayerSet,
    Threat,
    ThreatTree,
    ValidationError,
    ValidationIssue,
    cherry_pick_plan,
    derive_attribution,
    game_from_subset_results,
    leaf_coverage_game,
    parse_commit_log,
    shapley_exact,
)
from riskshare import cli, documents, mining
from riskshare.config import load_run_config

from conftest import (
    FIXTURES,
    CommitRecord,
    build_fix_count_game,
    build_three_fix_tree,
    commits_in_cycle,
    listed_main,
    load_records,
    parse_records,
    render_commit_log,
    select_cycle,
    subset_results_from_attribution,
    value,
)

SIMPLE_LOG = """\
commit: aaa1
author: alice
date: 2023-01-10T09:00:00+00:00
trailer: Satisfies: U-46365-1
---
"""

FULL_LOG = """\
commit: base0
author: lead
date: 2023-01-01T08:00:00+00:00
---
commit: c-alice-1
author: alice
date: 2023-01-02T09:00:00+00:00
parent: base0
trailer: Satisfies: U-46365-1
---
commit: c-bob-1
author: bob
date: 2023-01-03T09:00:00+00:00
parent: c-alice-1
trailer: Satisfies: U-45802-1
---
commit: c-carol-1
author: carol
date: 2023-01-04T09:00:00+00:00
parent: c-bob-1
trailer: Satisfies: U-45802-1
---
commit: c-alice-2
author: alice
date: 2023-01-05T09:00:00+00:00
parent: c-carol-1
trailer: Satisfies: U-45801-1
---
commit: c-carol-2
author: carol
date: 2023-01-06T09:00:00+00:00
parent: c-alice-2
trailer: Satisfies: U-45801-1
---
"""


class TestParse:
    def test_single_commit_with_trailer(self):
        records = parse_records(SIMPLE_LOG)
        assert len(records) == 1
        assert records[0].commit_id == "aaa1"
        assert records[0].author == "alice"
        assert records[0].trailers == (("Satisfies", "U-46365-1"),)

    def test_empty_document(self):
        assert parse_records("") == []
        assert parse_records("\n\n") == []

    def test_two_satisfies_trailers_both_captured(self):
        text = SIMPLE_LOG.replace(
            "trailer: Satisfies: U-46365-1",
            "trailer: Satisfies: U-46365-1\ntrailer: Satisfies: U-45801-1",
        )
        (record,) = parse_records(text)
        assert record.trailers == (("Satisfies", "U-46365-1"), ("Satisfies", "U-45801-1"))

    def test_malformed_line_reports_line_number(self):
        bad = SIMPLE_LOG.replace("author: alice", "author alice")
        with pytest.raises(DocumentError, match="line 2"):
            parse_records(bad)

    def test_unknown_field_rejected(self):
        bad = SIMPLE_LOG.replace("author:", "committer:")
        with pytest.raises(DocumentError, match="unknown field"):
            parse_records(bad)

    def test_unknown_trailer_key_warns_but_parses(self):
        text = SIMPLE_LOG.replace(
            "trailer: Satisfies: U-46365-1", "trailer: Reviewed-by: bob"
        )
        findings = []
        (record,) = parse_records(text, findings)
        assert findings == [commit_log_warning("ignoring unknown trailer keys: ['Reviewed-by']")]
        assert record.trailers == (("Reviewed-by", "bob"),)

    def test_duplicate_commit_id_rejected(self):
        with pytest.raises(DocumentError, match="duplicate commit id"):
            parse_records(SIMPLE_LOG + SIMPLE_LOG)

    def test_missing_date_rejected(self):
        bad = "commit: x\nauthor: a\n---\n"
        with pytest.raises(DocumentError, match="date"):
            parse_records(bad)

    def test_invalid_date_rejected(self):
        bad = SIMPLE_LOG.replace("2023-01-10T09:00:00+00:00", "last tuesday")
        with pytest.raises(DocumentError, match="RFC3339"):
            parse_records(bad)

    def test_zulu_offset_accepted(self):
        text = SIMPLE_LOG.replace("+00:00", "Z")
        assert parse_records(text)[0].timestamp == parse_records(SIMPLE_LOG)[0].timestamp

    @pytest.mark.parametrize(
        "date, seconds",
        [
            ("9999-12-31T23:59:59.999999Z", 253402300799),  # a float's rounding read 253402300800
            ("1969-12-31T23:59:59.5Z", -1),  # and 0 here
            ("1970-01-01T00:00:00.5Z", 0),
            ("0001-01-01T00:00:00+14:00", -62135647200),
            ("9999-12-31T23:59:59-01:00", 253402304399),
        ],
    )
    def test_timestamp_is_the_floor_of_the_epoch_seconds(self, date, seconds):
        assert parse_records(SIMPLE_LOG.replace("2023-01-10T09:00:00+00:00", date))[0].timestamp == seconds

    def test_final_record_without_separator_is_flushed(self):
        records = parse_records(SIMPLE_LOG.rstrip().rstrip("-"))
        assert len(records) == 1

    def test_round_trip(self):
        records = parse_records(FULL_LOG)
        assert parse_records(render_commit_log(records)) == records


DATE = "2023-01-10T09:00:00+00:00"

#: "feature" forks before "start" and merges after it; the parent "root" was not exported.
MERGE_LOG = "".join(
    f"commit: {c}\nauthor: {c}-dev\ndate: {DATE}\n" + "".join(f"parent: {p}\n" for p in parents) + "---\n"
    for c, parents in [
        ("fork", ["root"]),
        ("feature", ["fork"]),
        ("start", ["fork"]),
        ("after", ["start"]),
        ("merge", ["after", "feature"]),
    ]
)


class TestParseErrors:
    """Every structural problem names its line; a record's checks run when its ``---`` (or the end) is reached."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "commit: a\n  author alice \n---\n",
                "line 2: malformed line '  author alice ' (expected 'field: value')",
            ),
            ("commit: a\ncommitter: alice\n---\n", "line 2: unknown field 'committer'"),
            ("commit: a\n commit : b\n---\n", "line 2: duplicate 'commit' field in record"),
            ("commit: a\nauthor: x\nauthor: y\n---\n", "line 3: duplicate 'author' field in record"),
            (f"commit: a\ndate: {DATE}\ndate: never\n---\n", "line 3: duplicate 'date' field in record"),
            (f"author: x\ndate: {DATE}\n---\n", "line 3: record missing 'commit' field"),
            (f"commit: a\ndate: {DATE}\n\n---\n", "line 4: record missing 'author' field"),
            ("commit: a\nauthor: x\n---\n", "line 3: record missing 'date' field"),
            ("trailer: Satisfies: f1\n---\n", "line 2: record missing 'commit' field"),
            (
                f"commit: a\nauthor: x\ndate: {DATE}\n---\ncommit: a\nauthor: y\ndate: {DATE}\n---\n",
                "line 8: duplicate commit id 'a'",
            ),
            ("commit: a\nauthor: x\ndate:  last tuesday \n---\n", "line 3: invalid RFC3339 date 'last tuesday'"),
            ("commit: a\ndate: 2023-01-10T09:00:00\n", "line 2: date '2023-01-10T09:00:00' lacks a UTC offset"),
            ("commit: a\ntrailer: Satisfies f1\n", "line 2: trailer 'Satisfies f1' is not of the form 'Key: value'"),
            ("commit: a\nauthor: x\n\n  \n", "line 4: record missing 'date' field"),
            (
                f"commit: a\nauthor: x\ndate: {DATE}\n---\ncommit: a\nauthor: y\ndate: {DATE}",
                "line 7: duplicate commit id 'a'",
            ),
            ("commit: a\nauthor alice\ncommitter: x\n", "line 2: malformed line 'author alice' (expected 'field: value')"),
            ("commit: a\r\ndate: soon\r\nauthor x\r\n", "line 2: invalid RFC3339 date 'soon'"),
            (f"commit: a\nauthor:\ndate: {DATE}\n---\n", "line 2: empty 'author' field"),
            (f"commit:  \t\nauthor: x\ndate: {DATE}\n---\n", "line 1: empty 'commit' field"),
            (f"commit: a\nauthor: x\ndate: {DATE}\nparent:\n---\n", "line 4: empty 'parent' field"),
            (f"commit: a\nauthor: x\ndate: {DATE}\ntrailer: Satisfies:\n---\n",
             "line 4: trailer 'Satisfies:' has an empty value"),
            (f"commit: a\nauthor: x\ndate: {DATE}\ntrailer: :\n---\n", "line 4: trailer ':' has an empty key"),
            (f"commit: a\nauthor: x\ndate: {DATE}\ntrailer:  : f1\n---\n", "line 4: trailer ': f1' has an empty key"),
        ],
        ids=[
            "malformed",
            "unknown-field",
            "duplicate-commit",
            "duplicate-author",
            "duplicate-date",
            "missing-commit",
            "missing-author",
            "missing-date",
            "missing-all",
            "duplicate-id",
            "invalid-date",
            "naive-date",
            "bad-trailer",
            "unterminated-missing",
            "unterminated-duplicate-id",
            "first-error-wins",
            "crlf",
            "empty-author",
            "empty-commit",
            "empty-parent",
            "empty-trailer-value",
            "empty-trailer-key-and-value",
            "empty-trailer-key",
        ],
    )
    def test_message_and_line(self, text, message, tmp_path):
        with pytest.raises(DocumentError) as error:
            parse_both_ways(text, tmp_path)
        assert str(error.value) == message


#: Field values: no surrounding whitespace (the parser strips it) and no line breaks.
TOKENS = st.text("ab1@.:_- ", min_size=1, max_size=6).map(str.strip).filter(bool)
#: Padding that :meth:`str.strip` removes and that ends no line, so that it cannot split a field.
PADDING = ("", " ", "\t", "  ", "\xa0", "\u3000", "\x1f")


@st.composite
def commit_records(draw):
    ids = draw(st.lists(TOKENS, unique=True, max_size=4))
    trailer = st.tuples(st.sampled_from(["Satisfies", "Reviewed-by", "Co-authored-by"]), TOKENS)
    return [
        CommitRecord(
            commit_id,
            draw(TOKENS),
            draw(st.integers(0, 2**33)),
            tuple(draw(st.lists(TOKENS, max_size=2))),
            tuple(draw(st.lists(trailer, max_size=3))),
        )
        for commit_id in ids
    ]


def commit_log_warning(message: str) -> ValidationIssue:
    """The warning issue that the commit-log reader or the alias check gives with ``message``."""
    return ValidationIssue("CommitLogWarning", message, severity="warning")


def parse_with_warnings(text):
    findings = []
    records = parse_records(text, findings)
    return records, findings


def parse_file(path) -> list[CommitRecord]:
    """The records of the log file at ``path``, read as the command line reads it: a piece at a time."""
    with open(path, "rb") as log:
        return parse_records(log)


def stream(text: str):
    """The stream of records that ``parse_commit_log`` reads from the UTF-8 file holding ``text``: plain tuples."""
    return parse_commit_log(io.BytesIO(text.encode("utf-8")), {}, findings=[])


def parse_both_ways(text: str, tmp_path) -> list[CommitRecord]:
    """``text``'s records read from memory and from a UTF-8 file holding it, which give equal records or equal
    errors."""
    path = tmp_path / "commits.log"
    path.write_bytes(text.encode("utf-8"))
    try:
        records = parse_records(text)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as error:
            parse_file(path)
        assert str(error.value) == str(exc)
        raise
    assert parse_file(path) == records
    return records


class TestParseLayout:
    """Whitespace, blank lines, line endings and a missing final ``---`` do not change the records."""

    @settings(max_examples=100, deadline=None)
    @given(records=commit_records(), rng=st.randoms(use_true_random=False))
    def test_perturbed_rendering_parses_to_the_same_records(self, records, rng):
        def pad():
            return rng.choice(PADDING)

        lines = []
        for line in render_commit_log(records).splitlines():
            if rng.random() < 0.3:
                lines.append(pad())
            if line != "---":
                key, _, value = line.partition(": ")
                if key == "trailer":
                    t_key, _, t_value = value.partition(": ")
                    value = t_key + pad() + ":" + pad() + t_value
                line = pad() + key + pad() + ":" + pad() + value + pad()
            lines.append(line)
        if records and rng.random() < 0.5:  # drop the final ``---``
            del lines[max(k for k, line in enumerate(lines) if line == "---")]
        text = rng.choice(["\n", "\r\n"]).join(lines)

        unknown = sorted({key for r in records for key, _ in r.trailers if key != "Satisfies"})
        expected = [commit_log_warning(f"ignoring unknown trailer keys: {unknown}")] if unknown else []
        assert parse_with_warnings(text) == (records, expected)


def linear_history(n: int, seed: int = 0) -> list[CommitRecord]:
    """``n`` commits shaped like an exported repository's log: 40-hex ids, each the parent of the next, few trailers."""
    rng = random.Random(seed)
    records, parents = [], ()
    for k in range(n):
        commit = f"{rng.getrandbits(160):040x}"
        trailers = (("Satisfies", f"L-{rng.randrange(120)}"),) if rng.random() < 0.1 else ()
        records.append(CommitRecord(commit, f"dev{rng.randrange(40)}", 1_672_531_200 + 600 * k, parents, trailers))
        parents = (commit,)
    return records


def pad_to(text: str, end: int) -> str:
    """``text`` followed by blank lines up to ``end`` characters."""
    assert text.endswith("\n") and len(text) < end
    return text + "\n" * (end - len(text))


class TestParsePieces:
    """The log is read, decoded and split into lines a piece at a time, and records share their repeated
    strings. No piece boundary changes a record, a line number or an error."""

    def boundary_log(self, third_cut_line: str, final_date: bool) -> tuple[str, list[CommitRecord]]:
        """A four-piece log: a CRLF pair ends the first piece (its ``\\r`` ends the first read of a file), a blank
        line starts the third and ``third_cut_line`` the fourth; the log ends on an unterminated record, with or
        without its date."""
        size = mining._PIECE_SIZE
        quarter = size // 200  # commits per piece, well under a piece each
        records = linear_history(4 * quarter)

        crlf_record = render_commit_log(records[quarter - 1 : quarter]).split("\n", 1)
        text = pad_to(render_commit_log(records[: quarter - 1]), size - len(crlf_record[0]) - 1)
        text += crlf_record[0] + "\r\n" + crlf_record[1]
        text = pad_to(text + render_commit_log(records[quarter : 2 * quarter]), 2 * size + 2) + "\n"
        text += render_commit_log(records[2 * quarter : 3 * quarter]).removesuffix("---\n")
        text = pad_to(text, 3 * size + 3) + third_cut_line + "\n"
        final = render_commit_log(records[3 * quarter :]).removesuffix("\n---\n")
        if not final_date:
            head, _, tail = final.rpartition("\ndate: ")
            final = head + tail[tail.index("\n") :]
        text += final

        pieces = list(mining._file_pieces(io.BytesIO(text.encode("utf-8"))))
        assert "".join(pieces) == text and len(pieces) == 4
        assert len(pieces[0]) == size + 1 and pieces[0].endswith("\r\n")
        assert pieces[2].startswith("\ncommit: ") and pieces[3].startswith(third_cut_line + "\n")
        return text, records

    def test_records_survive_every_boundary(self, tmp_path):
        text, records = self.boundary_log("---", final_date=True)
        assert not text.endswith(("---", "\n"))
        assert parse_both_ways(text, tmp_path) == records

    def test_malformed_line_at_a_boundary_keeps_its_line_number(self, tmp_path):
        text, _ = self.boundary_log("oops", final_date=True)
        at = text.splitlines().index("oops") + 1
        with pytest.raises(DocumentError) as error:
            parse_both_ways(text, tmp_path)
        assert str(error.value) == f"line {at}: malformed line 'oops' (expected 'field: value')"

    def test_unterminated_final_record_is_reported_at_the_last_line(self, tmp_path):
        text, _ = self.boundary_log("---", final_date=False)
        with pytest.raises(DocumentError) as error:
            parse_both_ways(text, tmp_path)
        assert str(error.value) == f"line {len(text.splitlines())}: record missing 'date' field"

    def command_peak(self, tmp_path, command: str) -> tuple[int, int]:
        """The peak of a 40-player ``game`` build or a two-player ``plan`` from a 20k-commit linear log over a
        commit-bounded cycle, and the size of the log file."""
        records = linear_history(20_000)
        log = tmp_path / "commits.log"
        log.write_text(render_commit_log(records), encoding="utf-8")
        source = {"type": "commit_log", "path": log.name, "cycle": {"from_commit": records[0].commit_id}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": source, "risk_model": "unread.json"}), encoding="utf-8")
        plan = ["plan-cherry-pick", "--config", str(config), "--subset", "dev1,dev2", "--out", str(tmp_path / "plan")]
        loaded = load_run_config(config)
        leaves = tuple(LeafCondition(f"L-{k}") for k in range(120))
        model = SimpleNamespace(tree=ThreatTree((Threat("T", controls=(Control("C", leaves=leaves),)),)))
        tracemalloc.start()
        try:
            built = cli.build_game(loaded, model) if command == "game" else cli.main(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if command == "game":
            assert built.n == 40
        else:
            picks = json.loads((tmp_path / "plan").read_text(encoding="utf-8"))["steps"][3]["commits"]
            assert built == 0 and len(picks) == sum(r.author in ("dev1", "dev2") for r in records[1:])
        return peak, log.stat().st_size

    @pytest.mark.parametrize("command", ["game", "plan"])
    def test_a_command_reads_a_log_file_below_one_point_one_five_times_its_size(self, tmp_path, command):
        """A command streams the log and keeps only the parent graph and, of each commit, the game its claims and
        the plan its author. The graph maps a commit with one parent to that parent's id, the string of an earlier
        commit: the game peaks at about 1.03x the file (154 B per commit), where a one-element tuple per commit
        took 1.34x (201 B), and the plan at about 1.1x, where listing every record took 2.07x."""
        peak, size = self.command_peak(tmp_path, command)
        assert peak < 1.15 * size

    def test_equal_authors_and_trailer_values_share_one_object(self, tmp_path):
        path = tmp_path / "commits.log"
        path.write_text(render_commit_log(linear_history(2_000)), encoding="utf-8")
        with open(path, "rb") as log:
            records = list(parse_commit_log(log, {}, findings=[]))
        assert {type(r) for r in records} == {tuple}
        authors, pairs = {}, {}
        for _, author, _, _, trailers in records:
            assert authors.setdefault(author, author) is author
            for pair in trailers:
                assert pairs.setdefault(pair, pair) is pair
        assert len(authors) == 40 and sum(len(r[4]) for r in records) > len(pairs)  # repeats shared

    def test_parent_ids_share_the_ids_of_earlier_commits(self):
        records = parse_records(MERGE_LOG)  # "root" is outside the log; "start" names a commit two records back
        ids = {r.commit_id: r.commit_id for r in records}
        assert [[parent is ids.get(parent) for parent in r.parents] for r in records] == [
            [False], [True], [True], [True], [True, True]
        ]


class TestReadLogFile:
    """A log file is read and decoded a piece at a time, and parses as its text does."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*/*.log")), ids=lambda path: path.name)
    def test_fixture_logs_parse_alike_from_text_and_file(self, path):
        records = parse_file(path)
        assert records and records == parse_records(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("bad", [b"\xff", b"caf\xe9", b"\xe2\x82", b"\xf0\x9f\x98"], ids=bytes.hex)
    @pytest.mark.parametrize("end", [b"\n", b""], ids=["line-end", "file-end"])
    def test_undecodable_bytes_are_located_in_the_file(self, bad, end):
        """The error quotes the bytes' offset in the file, as decoding the whole file at once would."""
        data = render_commit_log(linear_history(1_000)).encode("utf-8") + b"\n" * mining._PIECE_SIZE + bad + end
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(UnicodeDecodeError) as error:
            parse_records(io.BytesIO(data))
        assert str(error.value) == str(whole.value)
        assert error.value.start > 2 * mining._PIECE_SIZE

    def test_a_content_error_is_raised_before_later_undecodable_bytes(self):
        data = b"commit: a\nbogus\n" + b"\n" * (2 * mining._PIECE_SIZE) + b"\xff\n"
        with pytest.raises(DocumentError, match="^line 2: malformed line 'bogus'"):
            parse_records(io.BytesIO(data))


def log_game(tmp_path, text: str, aliases: dict):
    """The three-fix game that ``cli.build_game`` builds from the log ``text`` and an alias file of ``aliases``."""
    (tmp_path / "commits.log").write_text(text, encoding="utf-8")
    (tmp_path / "aliases.json").write_text(json.dumps(aliases), encoding="utf-8")
    source = {"type": "commit_log", "path": "commits.log", "aliases": "aliases.json"}
    (tmp_path / "config.json").write_text(json.dumps({"source": source}), encoding="utf-8")
    return cli.build_game(load_run_config(tmp_path / "config.json"), SimpleNamespace(tree=build_three_fix_tree()))


class TestIdentities:
    """A command renames the log's authors by the alias file; an author that the file neither maps nor names stays
    a provisional player under its own identity, and one warning names them all."""

    PROVISIONAL = "warning: CommitLogWarning: identities without alias entries kept as provisional players: {}\n"

    def test_alias_lookup(self, tmp_path, capsys):
        aliases = {"alice@corp": "alice", "Alice L.": "alice"}
        game = log_game(tmp_path, SIMPLE_LOG.replace("alice", "alice@corp"), aliases)
        assert game.players.players == ("alice",)
        assert capsys.readouterr().err == ""  # no identity is provisional

    def test_unmapped_identity_is_provisional_with_warning(self, tmp_path, capsys):
        game = log_game(tmp_path, SIMPLE_LOG, {"bob@corp": "bob"})
        assert game.players.players == ("alice",)
        assert capsys.readouterr().err == self.PROVISIONAL.format("['alice']")

    def test_empty_alias_map_keeps_records(self, tmp_path, capsys):
        game = log_game(tmp_path, FULL_LOG, {})
        assert game.players.players == ("alice", "bob", "carol")
        assert capsys.readouterr().err == self.PROVISIONAL.format("['lead', 'alice', 'bob', 'carol']")

    def test_canonical_ids_pass_through_silently(self, tmp_path, capsys):
        game = log_game(tmp_path, SIMPLE_LOG, {"alice@corp": "alice"})
        assert game.players.players == ("alice",)
        assert capsys.readouterr().err == ""


class TestCycles:
    """The window of a cycle, as ``derive_attribution`` finds it, and as ``cherry_pick_plan`` does for a
    commit-bounded one."""

    def test_after_commit_excludes_base(self):
        assert commits_in_cycle(parse_records(FULL_LOG), Cycle(from_commit="base0")) == [
            "c-alice-1",
            "c-bob-1",
            "c-carol-1",
            "c-alice-2",
            "c-carol-2",
        ]

    def test_to_commit_is_inclusive(self):
        window = commits_in_cycle(parse_records(FULL_LOG), Cycle(from_commit="base0", to_commit="c-carol-1"))
        assert window == ["c-alice-1", "c-bob-1", "c-carol-1"]

    def test_unknown_boundary(self):
        with pytest.raises(ValidationError, match="not found"):
            commits_in_cycle(parse_records(FULL_LOG), Cycle(from_commit="nope"))

    def test_time_window_inclusive(self):
        records = parse_records(FULL_LOG)
        t = {r.commit_id: r.timestamp for r in records}
        window = commits_in_cycle(records, Cycle(from_time=t["c-bob-1"], to_time=t["c-alice-2"]))
        assert window == ["c-bob-1", "c-carol-1", "c-alice-2"]

    def test_time_window_ends_at_the_last_second_of_9999(self):
        text = SIMPLE_LOG.replace("2023-01-10T09:00:00+00:00", "9999-12-31T23:59:59.999999Z")
        cycle = Cycle(from_time=253402300799, to_time=253402300799)
        assert commits_in_cycle(parse_records(text), cycle) == ["aaa1"]
        assert derive_attribution(stream(text), build_three_fix_tree(), cycle)["U-46365-1"] == {"alice"}

    def test_linear_log_window_is_positional(self):
        records = parse_records(FULL_LOG)
        ids = [r.commit_id for r in records]
        everyone = {r.author for r in records}
        for start in range(len(ids)):
            for end in range(len(ids)):
                cycle = Cycle(from_commit=ids[start], to_commit=ids[end])
                if end > start:
                    assert commits_in_cycle(records, cycle) == ids[start + 1 : end + 1]
                    plan = cherry_pick_plan(records, ids[start], everyone, to_commit=ids[end])
                    assert list(plan.picks) == ids[start + 1 : end + 1]
                else:
                    with pytest.raises(ValidationError, match="precedes"):
                        commits_in_cycle(records, cycle)
                    with pytest.raises(ValidationError, match="precedes"):
                        cherry_pick_plan(records, ids[start], everyone, to_commit=ids[end])

    @pytest.mark.parametrize(
        "cycle, expected",
        [
            (Cycle(from_commit="start", to_commit="merge"), ["feature", "after", "merge"]),
            (Cycle(from_commit="start"), ["feature", "after", "merge"]),
            (Cycle(from_commit="feature", to_commit="merge"), ["start", "after", "merge"]),
            (Cycle(from_commit="feature", to_commit="start"), ["start"]),
            (Cycle(to_commit="after"), ["fork", "start", "after"]),
            (Cycle(from_commit="fork", to_commit="feature"), ["feature"]),
        ],
    )
    def test_merge_window_follows_parents(self, cycle, expected):
        assert commits_in_cycle(parse_records(MERGE_LOG), cycle) == expected

    def test_mixed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Cycle(from_commit="x", from_time=0)

    def test_inverted_time_window_rejected(self):
        with pytest.raises(ValueError, match="^cycle end time 1000000000 precedes its start time 2000000000$"):
            Cycle(from_time=2000000000, to_time=1000000000)

    def test_one_instant_window_selects_its_commits(self):
        records = parse_records(FULL_LOG)
        t = records[1].timestamp
        window = commits_in_cycle(records, Cycle(from_time=t, to_time=t))
        assert window == [r.commit_id for r in records if r.timestamp == t] != []


class TestAttribution:
    def test_three_fix_scenario(self):
        records = parse_records(FULL_LOG)
        attribution = derive_attribution(records, build_three_fix_tree(), Cycle(from_commit="base0"))
        assert attribution == {
            "U-46365-1": frozenset({"alice"}),
            "U-45802-1": frozenset({"bob", "carol"}),
            "U-45801-1": frozenset({"alice", "carol"}),
        }

    def test_no_commits_means_all_leaves_unaddressed(self):
        attribution = derive_attribution([], build_three_fix_tree())
        assert set(attribution) == {"U-46365-1", "U-45802-1", "U-45801-1"}
        assert all(authors == frozenset() for authors in attribution.values())

    def test_duplicate_claims_collapse_to_set(self):
        text = FULL_LOG + (
            "commit: c-alice-3\nauthor: alice\n"
            "date: 2023-01-07T09:00:00+00:00\nparent: c-carol-2\n"
            "trailer: Satisfies: U-46365-1\n---\n"
        )
        records = parse_records(text)
        attribution = derive_attribution(records, build_three_fix_tree())
        assert attribution["U-46365-1"] == frozenset({"alice"})

    def test_other_trailers_claim_nothing(self):
        text = SIMPLE_LOG.replace("trailer: Satisfies: U-46365-1", "trailer: Reviewed-by: U-46365-1")
        findings = []
        records = parse_records(text, findings)
        assert findings == [commit_log_warning("ignoring unknown trailer keys: ['Reviewed-by']")]
        assert derive_attribution(records, build_three_fix_tree())["U-46365-1"] == frozenset()

    def test_the_satisfies_key_matches_case_included(self):
        text = SIMPLE_LOG.replace("trailer: Satisfies: U-46365-1", "trailer: satisfies: U-46365-1")
        findings = []
        records = parse_records(text, findings)
        assert findings == [commit_log_warning("ignoring unknown trailer keys: ['satisfies']")]
        assert derive_attribution(records, build_three_fix_tree())["U-46365-1"] == frozenset()

    def test_unknown_leaf_lists_offenders(self):
        text = SIMPLE_LOG.replace("U-46365-1", "U-00000-9")
        records = parse_records(text)
        with pytest.raises(ValidationError, match="U-00000-9"):
            derive_attribution(records, build_three_fix_tree())


AUTHORS = ("alice", "bob", "carol@corp", "dave")


@st.composite
def histories(draw):
    """A small log and the bounds of a cycle over it.

    Commits may have no parent, one or two (a merge), name parents outside the log or later in it, repeat a
    claim, claim an unknown leaf or carry an unknown trailer key. The cycle is open, bounded by ``from_commit``,
    ``to_commit`` or both (a bound may be missing from the log), or bounded by times.
    """
    ids = [f"c{k}" for k in range(draw(st.integers(0, 7)))]
    parent = st.sampled_from(ids + ["root", "gone"])
    leaf = st.sampled_from(build_three_fix_tree().leaf_ids() + ("U-99999-9",))
    trailer = st.tuples(st.sampled_from(["Satisfies", "Satisfies", "Reviewed-by"]), leaf)
    records = [
        CommitRecord(commit, draw(st.sampled_from(AUTHORS)), draw(st.integers(0, 9)),
                     tuple(draw(st.lists(parent, max_size=2))), tuple(draw(st.lists(trailer, max_size=3))))
        for commit in ids
    ]
    bound = st.sampled_from(ids + ["missing"])
    kind = draw(st.sampled_from(["open", "from", "to", "both", "time"]))
    if kind == "time":
        lo, hi = sorted(draw(st.lists(st.integers(0, 9), min_size=2, max_size=2)))
        bounds = {"from_time": draw(st.sampled_from([None, lo])), "to_time": draw(st.sampled_from([None, hi]))}
    else:
        bounds = {"from_commit": draw(bound) if kind in ("from", "both") else None,
                  "to_commit": draw(bound) if kind in ("to", "both") else None}
    return records, {key: value for key, value in bounds.items() if value is not None}


def listed_attribution(records, tree, cycle):
    """The attribution of a list of records: the window that :func:`select_cycle` keeps, then each claim in it."""
    authors = {leaf: set() for leaf in tree.leaf_ids()}
    offenders = []
    for r in select_cycle(records, cycle):
        for key, leaf in r.trailers:
            if key == "Satisfies":
                if leaf in authors:
                    authors[leaf].add(r.author)
                else:
                    offenders.append(f"{r.commit_id}->{leaf}")
    if offenders:
        raise ValidationError(f"trailers reference unknown leaf ids: {', '.join(offenders)}")
    return {leaf: frozenset(people) for leaf, people in authors.items()}


def listed_game(config, tree):
    """The config's game with the log's records listed, and renamed by the alias file, before the cycle is applied."""
    records = load_records(config)
    with documents.reading(config.source.path):
        attribution = listed_attribution(records, tree, config.source.cycle)
        players = cli._roster(config.source.players, (a for people in attribution.values() for a in people))
        return leaf_coverage_game(tree, attribution, players)


def outcome(build):
    """``build()``'s result, or its validation error as ``type: message``."""
    try:
        return build()
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"


def command_outcome(build, capsys):
    """``build()``'s game as ``(players, terms)``, and the stderr lines it prints for its warnings and ``cli.main``
    for its error."""
    capsys.readouterr()
    try:
        game, error = build(), []
    except ValidationError as exc:
        game, error = None, [f"validation error: {exc}"]
    lines = capsys.readouterr().err.splitlines() + error
    return (game.players.players, game.terms) if game else None, lines


class TestStreamedAttribution:
    """``derive_attribution`` reads its records once, as a stream, and attributes what a list of them attributes."""

    @settings(max_examples=300, deadline=None)
    @given(history=histories())
    @example(history=(  # merges, a root and parents outside the log or later in it, each form in the window
        [CommitRecord(c, AUTHORS[k % 4], k, parents, (("Satisfies", "U-45802-1"),)) for k, (c, parents) in enumerate(
            [("c0", ()), ("c1", ("c0",)), ("c2", ("gone",)), ("c3", ("c1", "c2")), ("c4", ("c5",)),
             ("c5", ("c3", "c6")), ("c6", ())]
        )],
        {"from_commit": "c1", "to_commit": "c4"},
    ))
    def test_a_stream_attributes_as_the_listed_records(self, history):
        records, bounds = history
        cycle, tree, text = Cycle(**bounds), build_three_fix_tree(), render_commit_log(records)
        listed = parse_records(text)
        expected = outcome(lambda: listed_attribution(listed, tree, cycle))
        assert outcome(lambda: derive_attribution(iter(records), tree, cycle)) == expected
        log = io.BytesIO(text.encode("utf-8"))
        assert outcome(lambda: derive_attribution(parse_commit_log(log, {}, findings=[]), tree, cycle)) == expected

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(history=histories(), aliases=st.dictionaries(st.sampled_from(AUTHORS), st.sampled_from(["alice", "zed"])))
    def test_a_command_renames_the_streamed_authors_as_the_listed_records(self, tmp_path, capsys, history, aliases):
        """The game, the warnings and the error of ``build_game`` are those of the records listed and renamed first."""
        records, bounds = history
        (tmp_path / "commits.log").write_text(render_commit_log(records), encoding="utf-8")
        (tmp_path / "aliases.json").write_text(json.dumps(aliases), encoding="utf-8")
        source = {"type": "commit_log", "path": "commits.log", "aliases": "aliases.json", "cycle": bounds}
        (tmp_path / "config.json").write_text(json.dumps({"source": source}), encoding="utf-8")
        config = load_run_config(tmp_path / "config.json")
        model = SimpleNamespace(tree=build_three_fix_tree())
        streamed = command_outcome(lambda: cli.build_game(config, model), capsys)
        assert streamed == command_outcome(lambda: listed_game(config, model.tree), capsys)


class TestStreamedPlan:
    """``plan-cherry-pick`` streams the log once and prints what it printed when it listed every record first."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        history=histories(),
        aliases=st.none() | st.dictionaries(st.sampled_from(AUTHORS), st.sampled_from(["alice", "zed", ""])),
        subset=st.lists(st.sampled_from(AUTHORS + ("zed", "nobody")), max_size=3),
        base=st.sampled_from(["c0", "c1", "c2", "missing"]),
    )
    def test_the_streamed_plan_prints_what_the_listed_plan_prints(self, tmp_path, capsys, history, aliases, subset,
                                                                   base):
        """Exit code, stdout and stderr: the plan, or the first error (an empty player id is the alias file's),
        after the warnings in their order."""
        records, bounds = history
        (tmp_path / "commits.log").write_text(render_commit_log(records), encoding="utf-8")
        cycle = {key: value for key, value in bounds.items() if key.endswith("_commit")}  # a plan's are commits
        cycle.setdefault("from_commit", base)
        source = {"type": "commit_log", "path": "commits.log", "cycle": cycle}
        if aliases is not None:
            (tmp_path / "aliases.json").write_text(json.dumps(aliases), encoding="utf-8")
            source["aliases"] = "aliases.json"
        doc = {"source": source, "risk_model": "unread.json"}  # a commit log needs a model; a plan never reads it
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = ["plan-cherry-pick", "--config", str(tmp_path / "config.json"), "--subset", ",".join(subset)]
        streamed = (cli.main(argv), *capsys.readouterr())
        assert streamed == (listed_main(argv), *capsys.readouterr())


#: Subsets whose ids collided or made invalid branch names when the ids were joined as they are, and their names.
BRANCHES = [
    ((), "coalition"),
    (("empty",), "coalition-empty"),
    (("a-b",), "coalition-a%2Db"),
    (("a", "b"), "coalition-a-b"),
    (("alice", "carol"), "coalition-alice-carol"),
    (("Alice L.",), "coalition-Alice%20L%2E"),
    (("Alice%20L%2E",), "coalition-Alice%2520L%252E"),
    (("x.lock", "@", "a@{1}"), "coalition-x%2Elock-@-a@%7B1%7D"),
    (("..", "~^:?*[\\", "/"), "coalition-%2E%2E-%7E%5E%3A%3F%2A%5B%5C-%2F"),
    (("é", "\udcff"), "coalition-%C3%A9-%ED%B3%BF"),
]


class TestCherryPickPlan:
    def test_full_subset_picks_everything_in_order(self):
        records = stream(FULL_LOG)
        plan = cherry_pick_plan(records, "base0", {"alice", "bob", "carol"})
        assert plan.picks == ("c-alice-1", "c-bob-1", "c-carol-1", "c-alice-2", "c-carol-2")

    def test_excluded_author_never_appears(self):
        records = stream(FULL_LOG)
        plan = cherry_pick_plan(records, "base0", {"bob", "carol"})
        assert all("alice" not in c for c in plan.picks)
        assert plan.picks == ("c-bob-1", "c-carol-1", "c-carol-2")

    def test_interleaved_authors_keep_original_order(self):
        records = stream(FULL_LOG)
        plan = cherry_pick_plan(records, "base0", {"alice", "carol"})
        assert plan.picks == ("c-alice-1", "c-carol-1", "c-alice-2", "c-carol-2")

    def test_pick_lists_are_monotone_in_subset(self):
        records = parse_records(FULL_LOG)
        people = ("alice", "bob", "carol")
        for small_mask in range(8):
            for big_mask in range(8):
                if small_mask & big_mask != small_mask:
                    continue
                small = {people[k] for k in range(3) if small_mask >> k & 1}
                big = {people[k] for k in range(3) if big_mask >> k & 1}
                picks_small = set(cherry_pick_plan(records, "base0", small).picks)
                picks_big = set(cherry_pick_plan(records, "base0", big).picks)
                assert picks_small <= picks_big

    def test_unknown_base_commit(self):
        records = stream(FULL_LOG)
        with pytest.raises(ValidationError):
            cherry_pick_plan(records, "missing", {"alice"})

    def test_empty_window_warns_in_plan(self):
        records = stream(FULL_LOG)
        plan = cherry_pick_plan(records, "c-carol-2", {"alice"})
        assert plan.picks == ()
        assert plan.warnings

    def test_merged_branch_commits_are_picked(self):
        plan = cherry_pick_plan(stream(MERGE_LOG), "start", {"feature-dev", "merge-dev"})
        assert plan.picks == ("feature", "merge")

    def test_document_has_five_ordered_steps(self):
        records = stream(FULL_LOG)
        doc = cherry_pick_plan(records, "base0", {"alice"}).to_document()
        assert [step["step"] for step in doc["steps"]] == [1, 2, 3, 4, 5]
        assert doc["steps"][3]["action"] == "cherry-pick"
        assert doc["steps"][1]["commit"] == "base0"

    def test_aliases_rename_the_authors_before_the_subset_is_matched(self):
        text = FULL_LOG.replace("author: alice", "author: alice@corp")
        plan = cherry_pick_plan(stream(text), "base0", {"alice", "bob"}, aliases={"alice@corp": "alice", "bob": "x"})
        assert plan.picks == ("c-alice-1", "c-alice-2")
        assert cherry_pick_plan(stream(text), "base0", {"alice"}).picks == ()

    @pytest.mark.parametrize("subset, name", BRANCHES, ids=[name for _, name in BRANCHES])
    def test_branch_names_are_valid_and_name_one_subset_each(self, subset, name):
        assert CherryPickPlan("base", subset, ()).branch_name() == name
        assert [other for other, same in BRANCHES if same == name] == [subset]
        assert re.fullmatch(r"coalition(-[A-Za-z0-9_@%]+)*", name)
        if shutil.which("git") is not None:
            subprocess.run(["git", "check-ref-format", "--branch", name], check=True, capture_output=True)


class TestSubsetResults:
    def players(self):
        return PlayerSet(("1", "2", "3"))

    def joint_feature_results(self):
        # leaves pass only when {1,2} <= S or {3} <= S
        rows = []
        for mask in range(8):
            subset = {p for k, p in enumerate(("1", "2", "3")) if mask >> k & 1}
            passing = []
            if {"1", "2"} <= subset:
                passing.append("f1")
            if "3" in subset:
                passing.append("f2")
            rows.append((subset, passing))
        return rows

    def two_leaf_tree(self):
        from riskshare.risk import Control, LeafCondition, Threat, ThreatTree

        return ThreatTree(
            threats=(
                Threat(
                    "T",
                    controls=(
                        Control("C1", leaves=(LeafCondition("f1"),)),
                        Control("C2", leaves=(LeafCondition("f2"),)),
                    ),
                ),
            )
        )

    def test_reconstructs_joint_feature_game(self, joint_feature_game):
        game = game_from_subset_results(
            self.joint_feature_results(), self.two_leaf_tree(), self.players()
        )
        for mask in range(8):
            assert game.value_of_mask(mask) == joint_feature_game.value_of_mask(mask)

    def test_empty_subset_with_passes_rejected(self):
        rows = [(set(), {"f1"})]
        with pytest.raises(GameDefinitionError, match="empty coalition"):
            game_from_subset_results(rows, self.two_leaf_tree(), self.players())

    def test_all_failing_gives_zero_game(self):
        rows = [
            ({p for k, p in enumerate(("1", "2", "3")) if mask >> k & 1}, [])
            for mask in range(8)
        ]
        game = game_from_subset_results(rows, self.two_leaf_tree(), self.players())
        assert all(game.value_of_mask(m) == 0 for m in range(8))

    def test_coverage_gap_lists_missing(self):
        rows = self.joint_feature_results()[:5]
        with pytest.raises(GameDefinitionError, match=r"^missing coalitions: \{1,3\}, \{2,3\}, \{1,2,3\}$"):
            game_from_subset_results(rows, self.two_leaf_tree(), self.players())

    def test_conflicting_duplicates_rejected(self):
        rows = self.joint_feature_results() + [({"3"}, [])]
        with pytest.raises(GameDefinitionError, match="conflicting"):
            game_from_subset_results(rows, self.two_leaf_tree(), self.players())

    def test_consistent_duplicates_tolerated(self):
        rows = self.joint_feature_results()
        game = game_from_subset_results(rows + rows[:2], self.two_leaf_tree(), self.players())
        assert game.grand_value() == 2

    def test_duplicate_naming_its_coalition_in_another_order(self):
        rows = self.joint_feature_results()  # row 3 is ({"1", "2"}, ["f1"])
        game = game_from_subset_results(rows + [(["2", "1"], ["f1"])], self.two_leaf_tree(), self.players())
        assert game.value_of_mask(0b011) == 1
        message = re.escape("conflicting duplicate results for coalition ('1', '2')")
        with pytest.raises(GameDefinitionError, match=f"^{message}$"):
            game_from_subset_results(rows + [(["2", "1"], [])], self.two_leaf_tree(), self.players())

    def test_unknown_player_is_reported_at_its_row_before_the_cap(self):
        players = PlayerSet(tuple(f"p{k}" for k in range(40)))
        rows = [(["zz"], []), (["p0"], ["zzz"])]
        with pytest.raises(GameDefinitionError, match="^unknown player 'zz'$"):
            game_from_subset_results(rows, self.two_leaf_tree(), players)

    def test_unknown_leaf_rejected(self):
        rows = self.joint_feature_results()
        rows[7] = ({"1", "2", "3"}, {"f1", "f2", "zzz"})
        with pytest.raises(GameDefinitionError, match="zzz"):
            game_from_subset_results(rows, self.two_leaf_tree(), self.players())


def test_pathway_equivalence_at_random_sizes():
    """Attribution-derived coverage equals the rebuild-evidence game, any n <= 8."""
    import random

    from riskshare.risk import Control, LeafCondition, Threat, ThreatTree

    rng = random.Random(606)
    for _ in range(15):
        n = rng.randint(1, 8)
        players = PlayerSet(tuple(f"p{k}" for k in range(n)))
        leaves = tuple(LeafCondition(f"f{k}") for k in range(rng.randint(1, 8)))
        tree = ThreatTree(threats=(Threat("T", controls=(Control("C", leaves=leaves),)),))
        attribution = {
            leaf.id: frozenset(rng.sample(players.players, rng.randint(1, n)))
            for leaf in leaves
            if rng.random() < 0.75
        }
        coverage = leaf_coverage_game(tree, attribution, players)
        rebuilt = game_from_subset_results(
            subset_results_from_attribution(attribution, players), tree, players
        )
        assert rebuilt.value_table() == coverage.value_table()


def test_both_evidence_pathways_agree():
    """Trailer-derived coverage and rebuild results define the same game."""
    records = parse_records(FULL_LOG)
    tree = build_three_fix_tree()
    attribution = derive_attribution(records, tree, Cycle(from_commit="base0"))
    players = PlayerSet(("alice", "bob", "carol"))

    via_trailers = leaf_coverage_game(tree, attribution, players)
    via_rebuilds = game_from_subset_results(
        subset_results_from_attribution(attribution, players), tree, players
    )
    for mask in range(8):
        assert via_trailers.value_of_mask(mask) == via_rebuilds.value_of_mask(mask)

    # and the game is the three-fix count table (A=alice, B=bob, C=carol)
    expected = build_fix_count_game(3)
    rename = {"alice": "A", "bob": "B", "carol": "C"}
    for mask in range(8):
        subset = [rename[p] for p in players.ids_of(mask)]
        assert via_trailers.value_of_mask(mask) == value(expected, subset)

    phi = shapley_exact(via_trailers).phi
    assert phi["alice"] == shapley_exact(expected).phi["A"]
