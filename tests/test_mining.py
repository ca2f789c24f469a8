import io
import json
import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import (
    CommitLogWarning,
    CommitRecord,
    Cycle,
    DocumentError,
    GameDefinitionError,
    PlayerSet,
    ValidationError,
    cherry_pick_plan,
    derive_attribution,
    game_from_subset_results,
    leaf_coverage_game,
    parse_commit_log,
    resolve_identities,
    select_cycle,
    shapley_exact,
)
from riskshare import cli, mining
from riskshare.config import load_run_config
from riskshare.mining import SubsetResult

from conftest import (
    FIXTURES,
    build_fix_count_game,
    build_three_fix_tree,
    render_commit_log,
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
        records = parse_commit_log(SIMPLE_LOG)
        assert len(records) == 1
        assert records[0].commit_id == "aaa1"
        assert records[0].author == "alice"
        assert records[0].trailers == (("Satisfies", "U-46365-1"),)

    def test_empty_document(self):
        assert parse_commit_log("") == []
        assert parse_commit_log("\n\n") == []

    def test_two_satisfies_trailers_both_captured(self):
        text = SIMPLE_LOG.replace(
            "trailer: Satisfies: U-46365-1",
            "trailer: Satisfies: U-46365-1\ntrailer: Satisfies: U-45801-1",
        )
        (record,) = parse_commit_log(text)
        assert record.trailers == (("Satisfies", "U-46365-1"), ("Satisfies", "U-45801-1"))

    def test_malformed_line_reports_line_number(self):
        bad = SIMPLE_LOG.replace("author: alice", "author alice")
        with pytest.raises(DocumentError, match="line 2"):
            parse_commit_log(bad)

    def test_unknown_field_rejected(self):
        bad = SIMPLE_LOG.replace("author:", "committer:")
        with pytest.raises(DocumentError, match="unknown field"):
            parse_commit_log(bad)

    def test_unknown_trailer_key_warns_but_parses(self):
        text = SIMPLE_LOG.replace(
            "trailer: Satisfies: U-46365-1", "trailer: Reviewed-by: bob"
        )
        with pytest.warns(CommitLogWarning, match="Reviewed-by"):
            (record,) = parse_commit_log(text)
        assert record.trailers == (("Reviewed-by", "bob"),)

    def test_duplicate_commit_id_rejected(self):
        with pytest.raises(DocumentError, match="duplicate commit id"):
            parse_commit_log(SIMPLE_LOG + SIMPLE_LOG)

    def test_missing_date_rejected(self):
        bad = "commit: x\nauthor: a\n---\n"
        with pytest.raises(DocumentError, match="date"):
            parse_commit_log(bad)

    def test_invalid_date_rejected(self):
        bad = SIMPLE_LOG.replace("2023-01-10T09:00:00+00:00", "last tuesday")
        with pytest.raises(DocumentError, match="RFC3339"):
            parse_commit_log(bad)

    def test_zulu_offset_accepted(self):
        text = SIMPLE_LOG.replace("+00:00", "Z")
        assert parse_commit_log(text)[0].timestamp == parse_commit_log(SIMPLE_LOG)[0].timestamp

    def test_final_record_without_separator_is_flushed(self):
        records = parse_commit_log(SIMPLE_LOG.rstrip().rstrip("-"))
        assert len(records) == 1

    def test_round_trip(self):
        records = parse_commit_log(FULL_LOG)
        assert parse_commit_log(render_commit_log(records)) == records


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
PADDING = ("", " ", "\t", "  ")


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


def parse_with_warnings(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = parse_commit_log(text)
    return records, [str(w.message) for w in caught if w.category is CommitLogWarning]


def parse_file(path) -> list[CommitRecord]:
    """The records of the log file at ``path``, read as the command line reads it: a piece at a time."""
    with open(path, "rb") as log:
        return parse_commit_log(log)


def parse_both_ways(text: str, tmp_path) -> list[CommitRecord]:
    """``parse_commit_log`` of ``text`` and of a UTF-8 file holding it, which give equal records or equal errors."""
    path = tmp_path / "commits.log"
    path.write_bytes(text.encode("utf-8"))
    try:
        records = parse_commit_log(text)
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
        expected = [f"ignoring unknown trailer keys: {unknown}"] if unknown else []
        assert parse_with_warnings(text) == (records, expected)
        assert parse_with_warnings(io.BytesIO(text.encode("utf-8"))) == (records, expected)  # as a file is read


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

    def test_peak_memory_stays_a_small_multiple_of_the_text(self):
        """The parse holds the text's UTF-8 copy and the records, about 3.0x the text; a list of every line would
        take the peak to about 6.6x."""
        text = render_commit_log(linear_history(20_000))
        tracemalloc.start()
        try:
            records = parse_commit_log(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)
        assert all(records[k].parents[0] is records[k - 1].commit_id for k in range(1, len(records)))

    def test_loading_a_log_file_peaks_below_two_and_a_half_times_its_size(self, tmp_path):
        """The command line reads the file a piece at a time: it never holds the file's bytes or its text,
        which would take the peak to about 3.7x the file."""
        log = tmp_path / "commits.log"
        log.write_text(render_commit_log(linear_history(20_000)), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": {"type": "commit_log", "path": log.name}}), encoding="utf-8")
        loaded = load_run_config(config)
        tracemalloc.start()
        try:
            records = cli._load_records(loaded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 20_000
        assert peak < 2.5 * log.stat().st_size

    def test_equal_authors_and_trailer_values_share_one_object(self, tmp_path):
        text = render_commit_log(linear_history(2_000))
        path = tmp_path / "commits.log"
        path.write_text(text, encoding="utf-8")
        for records in (parse_commit_log(text), parse_file(path)):
            authors, pairs = {}, {}
            for r in records:
                assert authors.setdefault(r.author, r.author) is r.author
                for pair in r.trailers:
                    assert pairs.setdefault(pair, pair) is pair
            assert len(authors) == 40 and sum(len(r.trailers) for r in records) > len(pairs)  # repeats shared

    def test_parent_ids_share_the_ids_of_earlier_commits(self):
        records = parse_commit_log(MERGE_LOG)  # "root" is outside the log; "start" names a commit two records back
        ids = {r.commit_id: r.commit_id for r in records}
        assert [[parent is ids.get(parent) for parent in r.parents] for r in records] == [
            [False], [True], [True], [True], [True, True]
        ]


class TestReadLogFile:
    """A log file is read and decoded a piece at a time, and parses as its text does."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*/*.log")), ids=lambda path: path.name)
    def test_fixture_logs_parse_alike_from_text_and_file(self, path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CommitLogWarning)
            records = parse_file(path)
            assert records and records == parse_commit_log(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("bad", [b"\xff", b"caf\xe9", b"\xe2\x82", b"\xf0\x9f\x98"], ids=bytes.hex)
    @pytest.mark.parametrize("end", [b"\n", b""], ids=["line-end", "file-end"])
    def test_undecodable_bytes_are_located_in_the_file(self, bad, end):
        """The error quotes the bytes' offset in the file, as decoding the whole file at once would."""
        data = render_commit_log(linear_history(1_000)).encode("utf-8") + b"\n" * mining._PIECE_SIZE + bad + end
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(UnicodeDecodeError) as error:
            parse_commit_log(io.BytesIO(data))
        assert str(error.value) == str(whole.value)
        assert error.value.start > 2 * mining._PIECE_SIZE

    def test_a_content_error_is_raised_before_later_undecodable_bytes(self):
        data = b"commit: a\nbogus\n" + b"\n" * (2 * mining._PIECE_SIZE) + b"\xff\n"
        with pytest.raises(DocumentError, match="^line 2: malformed line 'bogus'"):
            parse_commit_log(io.BytesIO(data))

    def test_text_with_a_lone_surrogate_is_rejected_before_any_line(self):
        """Text is read as the UTF-8 file holding it, and no UTF-8 file holds a lone surrogate."""
        text = "commit: a\nbogus\n" + SIMPLE_LOG.replace("alice", "al\ud800ice")
        with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
            parse_commit_log(text)


class TestIdentities:
    def test_alias_lookup(self):
        records = parse_commit_log(SIMPLE_LOG.replace("alice", "alice@corp"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no identity is provisional
            resolved = resolve_identities(records, {"alice@corp": "alice", "Alice L.": "alice"})
        assert resolved[0].author == "alice"

    def test_unmapped_identity_is_provisional_with_warning(self):
        records = parse_commit_log(SIMPLE_LOG)
        with pytest.warns(CommitLogWarning, match=r"provisional players: \['alice'\]$"):
            resolved = resolve_identities(records, {"bob@corp": "bob"})
        assert resolved[0].author == "alice"

    def test_empty_alias_map_keeps_records(self):
        records = parse_commit_log(FULL_LOG)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resolved = resolve_identities(records, {})
        assert resolved == records

    def test_canonical_ids_pass_through_silently(self):
        records = parse_commit_log(SIMPLE_LOG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = resolve_identities(records, {"alice@corp": "alice"})
        assert resolved == records


class TestCycles:
    def test_after_commit_excludes_base(self):
        records = parse_commit_log(FULL_LOG)
        window = select_cycle(records, Cycle(from_commit="base0"))
        assert [r.commit_id for r in window] == [
            "c-alice-1",
            "c-bob-1",
            "c-carol-1",
            "c-alice-2",
            "c-carol-2",
        ]

    def test_to_commit_is_inclusive(self):
        records = parse_commit_log(FULL_LOG)
        window = select_cycle(records, Cycle(from_commit="base0", to_commit="c-carol-1"))
        assert [r.commit_id for r in window] == ["c-alice-1", "c-bob-1", "c-carol-1"]

    def test_unknown_boundary(self):
        records = parse_commit_log(FULL_LOG)
        with pytest.raises(ValidationError, match="not found"):
            select_cycle(records, Cycle(from_commit="nope"))

    def test_time_window_inclusive(self):
        records = parse_commit_log(FULL_LOG)
        t = {r.commit_id: r.timestamp for r in records}
        window = select_cycle(records, Cycle(from_time=t["c-bob-1"], to_time=t["c-alice-2"]))
        assert [r.commit_id for r in window] == ["c-bob-1", "c-carol-1", "c-alice-2"]

    def test_linear_log_window_is_positional(self):
        records = parse_commit_log(FULL_LOG)
        ids = [r.commit_id for r in records]
        for start in range(len(ids)):
            for end in range(len(ids)):
                cycle = Cycle(from_commit=ids[start], to_commit=ids[end])
                if end > start:
                    assert [r.commit_id for r in select_cycle(records, cycle)] == ids[start + 1 : end + 1]
                else:
                    with pytest.raises(ValidationError, match="precedes"):
                        select_cycle(records, cycle)

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
        assert [r.commit_id for r in select_cycle(parse_commit_log(MERGE_LOG), cycle)] == expected

    def test_mixed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Cycle(from_commit="x", from_time=0)

    def test_inverted_time_window_rejected(self):
        with pytest.raises(ValueError, match="^cycle end time 1000000000 precedes its start time 2000000000$"):
            Cycle(from_time=2000000000, to_time=1000000000)

    def test_one_instant_window_selects_its_commits(self):
        records = parse_commit_log(FULL_LOG)
        t = records[1].timestamp
        window = select_cycle(records, Cycle(from_time=t, to_time=t))
        assert window and all(r.timestamp == t for r in window)


class TestAttribution:
    def test_three_fix_scenario(self):
        records = parse_commit_log(FULL_LOG)
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
        records = parse_commit_log(text)
        attribution = derive_attribution(records, build_three_fix_tree())
        assert attribution["U-46365-1"] == frozenset({"alice"})

    def test_other_trailers_claim_nothing(self):
        text = SIMPLE_LOG.replace("trailer: Satisfies: U-46365-1", "trailer: Reviewed-by: U-46365-1")
        with pytest.warns(CommitLogWarning, match="Reviewed-by"):
            records = parse_commit_log(text)
        assert derive_attribution(records, build_three_fix_tree())["U-46365-1"] == frozenset()

    def test_unknown_leaf_lists_offenders(self):
        text = SIMPLE_LOG.replace("U-46365-1", "U-00000-9")
        records = parse_commit_log(text)
        with pytest.raises(ValidationError, match="U-00000-9"):
            derive_attribution(records, build_three_fix_tree())


class TestCherryPickPlan:
    def test_full_subset_picks_everything_in_order(self):
        records = parse_commit_log(FULL_LOG)
        plan = cherry_pick_plan(records, "base0", {"alice", "bob", "carol"})
        assert plan.picks == ("c-alice-1", "c-bob-1", "c-carol-1", "c-alice-2", "c-carol-2")

    def test_excluded_author_never_appears(self):
        records = parse_commit_log(FULL_LOG)
        plan = cherry_pick_plan(records, "base0", {"bob", "carol"})
        assert all("alice" not in c for c in plan.picks)
        assert plan.picks == ("c-bob-1", "c-carol-1", "c-carol-2")

    def test_interleaved_authors_keep_original_order(self):
        records = parse_commit_log(FULL_LOG)
        plan = cherry_pick_plan(records, "base0", {"alice", "carol"})
        assert plan.picks == ("c-alice-1", "c-carol-1", "c-alice-2", "c-carol-2")

    def test_pick_lists_are_monotone_in_subset(self):
        records = parse_commit_log(FULL_LOG)
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
        records = parse_commit_log(FULL_LOG)
        with pytest.raises(ValidationError):
            cherry_pick_plan(records, "missing", {"alice"})

    def test_empty_window_warns_in_plan(self):
        records = parse_commit_log(FULL_LOG)
        plan = cherry_pick_plan(records, "c-carol-2", {"alice"})
        assert plan.picks == ()
        assert plan.warnings

    def test_merged_branch_commits_are_picked(self):
        plan = cherry_pick_plan(parse_commit_log(MERGE_LOG), "start", {"feature-dev", "merge-dev"})
        assert plan.picks == ("feature", "merge")

    def test_document_has_five_ordered_steps(self):
        records = parse_commit_log(FULL_LOG)
        doc = cherry_pick_plan(records, "base0", {"alice"}).to_document()
        assert [step["step"] for step in doc["steps"]] == [1, 2, 3, 4, 5]
        assert doc["steps"][3]["action"] == "cherry-pick"
        assert doc["steps"][1]["commit"] == "base0"


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
            rows.append(SubsetResult(subset, passing))
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
        rows = [SubsetResult(set(), {"f1"})]
        with pytest.raises(GameDefinitionError, match="empty coalition"):
            game_from_subset_results(rows, self.two_leaf_tree(), self.players())

    def test_all_failing_gives_zero_game(self):
        rows = [
            SubsetResult({p for k, p in enumerate(("1", "2", "3")) if mask >> k & 1}, [])
            for mask in range(8)
        ]
        game = game_from_subset_results(rows, self.two_leaf_tree(), self.players())
        assert all(game.value_of_mask(m) == 0 for m in range(8))

    def test_coverage_gap_lists_missing(self):
        rows = self.joint_feature_results()[:5]
        with pytest.raises(GameDefinitionError, match=r"^missing coalitions: \{1,3\}, \{2,3\}, \{1,2,3\}$"):
            game_from_subset_results(rows, self.two_leaf_tree(), self.players())

    def test_conflicting_duplicates_rejected(self):
        rows = self.joint_feature_results() + [SubsetResult({"3"}, [])]
        with pytest.raises(GameDefinitionError, match="conflicting"):
            game_from_subset_results(rows, self.two_leaf_tree(), self.players())

    def test_consistent_duplicates_tolerated(self):
        rows = self.joint_feature_results()
        game = game_from_subset_results(rows + rows[:2], self.two_leaf_tree(), self.players())
        assert game.grand_value() == 2

    def test_unknown_leaf_rejected(self):
        rows = self.joint_feature_results()
        rows[7] = SubsetResult({"1", "2", "3"}, {"f1", "f2", "zzz"})
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
    records = parse_commit_log(FULL_LOG)
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
