import copy
import gc
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskshare import (
    CapacityError,
    CoalitionGame,
    DocumentError,
    GameDefinitionError,
    Interval,
    Money,
    PlayerSet,
    Provenance,
    RiskshareError,
    ValidationError,
    allocate_payments,
    check_axioms,
    game_from_table,
    parse_report,
    render_report,
    risk_delta,
    shapley_exact,
)
from riskshare import documents
from riskshare.documents import (
    _field,
    _rational,
    _rows,
    _strings,
    attribution_from_document,
    coalition_game_from_document,
    coalition_table_document,
    load_aliases,
    load_coalition_game,
    load_json,
    load_risk_model,
    load_subset_results,
    loads_exact,
    reading,
    risk_model_from_document,
    subset_results_from_document,
)


class TestExactNumbers:
    def test_json_floats_become_exact_decimals(self):
        doc = loads_exact('{"x": 0.1, "y": "0.1", "z": 3}')
        assert doc["x"] == Fraction(1, 10)
        assert doc["y"] == "0.1"
        assert doc["z"] == 3

    def test_invalid_json(self):
        with pytest.raises(DocumentError):
            loads_exact("{nope")

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000],
                             ids=["arrays", "objects"])
    def test_nesting_deeper_than_the_decoder_recurses_is_document_error(self, text):
        with pytest.raises(DocumentError, match=r"^invalid JSON: nested too deeply$"):
            loads_exact(text)

    def test_a_value_too_deep_to_quote_is_still_named(self):
        value = []
        for _ in range(sys.getrecursionlimit() + 10):  # built in a loop: deeper than repr can recurse
            value = [value]
        with pytest.raises(DocumentError, match=r"^document: expected an object, got array nested too deeply to quote$"):
            attribution_from_document(value)

    def test_integer_beyond_the_digit_limit_is_document_error(self):
        with pytest.raises(DocumentError, match=r"^invalid JSON: Exceeds the limit \(4300 digits\)[^;]*: line 2 column 3 \(char 6\)$"):
            loads_exact("[1,\n  " + "7" * 5000 + "]")

    def test_number_out_of_bounds_is_located_past_strings(self):
        text = '{\n  "note": "say \\"1e1000\\"",\n  "values": [1, 2.5e3,\n    -1e1000]\n}'
        with pytest.raises(DocumentError) as info:
            loads_exact(text)
        assert str(info.value) == (
            "invalid JSON: not a rational literal: '-1e1000' (exponent of more than 3 digits): line 4 column 5 (char 57)"
        )

    @pytest.mark.parametrize("value", ["1e1000000", '"1e1000000"', '"-2.5E+0001000"'])
    def test_exponent_of_four_digits_is_document_error(self, value):
        text = f'{{"players": ["a"], "entries": [{{"coalition": ["a"], "value": {value}}}]}}'
        with pytest.raises(DocumentError, match="exponent of more than 3 digits"):
            coalition_game_from_document(loads_exact(text))
        assert loads_exact('[1e999, 1E-999]') == [Fraction(10**999), Fraction(1, 10**999)]


class TestRiskModelDocument:
    def test_worked_example_fixture_loads_and_computes(self, fixtures_dir):
        model = load_risk_model(fixtures_dir / "worked_example" / "risk_model.json")
        assert model.validate().ok
        assert model.tree.leaf_count == 3
        delta = risk_delta(model.assessments, model.scales, findings=[])
        assert delta == Interval(2125900, 15622700)

    def test_missing_scales_key(self):
        with pytest.raises(DocumentError, match="scales"):
            risk_model_from_document({"threats": []})

    def test_decimal_strings_parse_exactly(self):
        doc = {
            "scales": {
                "likelihood": {
                    "name": "l",
                    "kind": "likelihood",
                    "categories": [
                        {"label": "lo", "lo": "0", "hi": 0.5},
                        {"label": "hi", "lo": 0.5, "hi": "1"},
                    ],
                },
                "impact": {
                    "name": "d",
                    "kind": "lookup",
                    "categories": [{"label": "x", "lo": "10.25", "hi": "20.75"}],
                },
            },
            "threats": [],
            "assessments": [],
        }
        # raw python floats are rejected; route through exact JSON parsing
        with pytest.raises(DocumentError):
            risk_model_from_document(doc)
        import json

        model = risk_model_from_document(loads_exact(json.dumps(doc)))
        assert model.scales.likelihood.resolve("lo") == Interval(0, Fraction(1, 2))
        assert model.scales.impact.resolve("x") == Interval(Fraction(41, 4), Fraction(83, 4))

    def test_bad_interval_bounds(self):
        doc = {
            "scales": {
                "likelihood": {
                    "name": "l",
                    "kind": "likelihood",
                    "categories": [{"label": "a", "lo": "1", "hi": "0"}],
                },
                "impact": {"name": "d", "kind": "lookup", "categories": [{"label": "x", "lo": 0, "hi": 0}]},
            },
            "threats": [],
        }
        with pytest.raises(DocumentError, match="lo"):
            risk_model_from_document(doc)


class TestCoalitionTableDocument:
    def test_fixture_reported_variant(self, fixtures_dir):
        game = load_coalition_game(fixtures_dir / "worked_example" / "coalition_table.json")
        assert game.players.players == ("A", "B", "C")
        assert game.grand_value() == 2
        assert shapley_exact(game).phi["A"] == Fraction(7, 6)

    def test_bare_list_is_rejected(self):
        doc = [
            {"coalition": ["b"], "value": "1"},
            {"coalition": ["a"], "value": "0"},
            {"coalition": ["a", "b"], "value": "2"},
            {"coalition": [], "value": 0},
        ]
        with pytest.raises(DocumentError) as error:
            coalition_game_from_document(doc)
        assert str(error.value) == (
            "document: expected an object, got array [{'coalition': ['b'], 'value': '1'}, {'coalition': ['a'], 'v…"
        )

    def test_players_are_required(self):
        with pytest.raises(DocumentError, match="^document: missing key 'players'$"):
            coalition_game_from_document({"entries": [{"coalition": [], "value": 0}]})

    def test_round_trips_through_document(self, fixtures_dir):
        game = load_coalition_game(fixtures_dir / "worked_example" / "coalition_table.json")
        doc = coalition_table_document(game)
        regame = coalition_game_from_document(doc)
        assert regame.value_table() == game.value_table()

    def test_rejects_non_table(self):
        with pytest.raises(DocumentError):
            coalition_game_from_document("nope")

    @pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
    def test_loading_leaves_the_garbage_collector_as_it_found_it(self, collecting, fixtures_dir, tmp_path, monkeypatch):
        """The collector is paused while a table is built, and left as it was after a load and a refusal alike."""
        refused = tmp_path / "table.json"
        refused.write_text(json.dumps({"players": ["A"], "entries": [{"coalition": ["B"], "value": 1}]}))
        during = []

        def build(*args, **kwargs):
            during.append(gc.isenabled())
            return game_from_table(*args, **kwargs)

        monkeypatch.setattr(documents, "game_from_table", build)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert load_coalition_game(fixtures_dir / "worked_example" / "coalition_table.json").n == 3
            assert gc.isenabled() is collecting
            with pytest.raises(ValidationError, match="^" + re.escape(f"{refused}: ")):
                load_coalition_game(refused)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False, False]


class TestAttributionDocument:
    def test_rows_parse(self):
        roster, attribution = attribution_from_document(
            {
                "attribution": [
                    {"leaf": "f1", "authors": ["a", "b"]},
                    {"leaf": "f2", "authors": []},
                ]
            }
        )
        assert roster is None
        assert attribution == {"f1": frozenset({"a", "b"}), "f2": frozenset()}

    def test_object_form_carries_roster(self):
        roster, attribution = attribution_from_document(
            {"players": ["a", "b", "c"], "attribution": [{"leaf": "f1", "authors": ["a"]}]}
        )
        assert roster == ("a", "b", "c")
        assert attribution["f1"] == frozenset({"a"})

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(DocumentError, match="duplicate leaf"):
            attribution_from_document(
                {"attribution": [{"leaf": "f1", "authors": []}, {"leaf": "f1", "authors": []}]}
            )


class TestSubsetResultsDocument:
    def test_fixture_loads(self, fixtures_dir):
        roster, results = load_subset_results(fixtures_dir / "worked_example" / "subset_results.json")
        assert roster == ("alice", "bob", "carol")
        assert len(results) == 8

    def test_missing_keys(self):
        with pytest.raises(DocumentError, match=r"^results\[0\]: missing key 'passing'$"):
            subset_results_from_document({"results": [{"subset": ["a"]}]})


#: A well-formed two-player table: v(a) = 1/2, v(b) = 1, v(ab) = 3/2.
TABLE = {
    "players": ["a", "b"],
    "entries": [
        {"coalition": [], "value": 0},
        {"coalition": ["a"], "value": "1/2"},
        {"coalition": ["b"], "value": 1},
        {"coalition": ["b", "a"], "value": "3/2"},
    ],
}


#: An edit's value that deletes its key or row.
DROP = object()


def edited(doc, *edits) -> dict:
    """A copy of ``doc`` with each ``(path, value)`` set, a value of ``DROP`` deleting its key or row."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return doc


class TestCoalitionTableReader:
    """``game_from_table`` builds the document's game from its rows; a refused table gives the exact message of its
    first refused row, or else the build's own error."""

    @pytest.mark.parametrize(
        "edits, error",
        [
            ([(("entries", 1), 5)], "DocumentError: entries[1]: expected an object, got integer 5"),
            ([(("entries", 2, "coalition"), "b")], "DocumentError: entries[2].coalition: expected an array, got string 'b'"),
            ([(("entries", 2, "value"), True)], "DocumentError: entries[2].value: bool is not a rational value"),
            ([(("entries", 2, "value"), None)], "DocumentError: entries[2].value: expected int, str or Fraction, got "
             "NoneType; pass decimal strings instead of floats to keep arithmetic exact"),
            ([(("entries", 3, "note"), "x")], "DocumentError: entries[3].note: unknown key (expected one of coalition, value)"),
            ([(("entries", 1, "value"), DROP)], "DocumentError: entries[1]: missing key 'value'"),
            ([(("entries", 3, "coalition", 1), "c")], "GameDefinitionError: unknown player 'c'"),
            ([(("entries", 3, "coalition"), ["c", "a", "d"])], "GameDefinitionError: unknown players 'c', 'd'"),
            ([(("entries", 3, "coalition", 0), 1)], "DocumentError: entries[3].coalition[0]: expected a string, got integer 1"),
            ([(("entries", 3, "coalition", 0), ["b"])], "DocumentError: entries[3].coalition[0]: expected a string, got array ['b']"),
            ([(("entries", 1, "value"), "1/0")], "DocumentError: entries[1].value: not a rational literal: '1/0'"),
            ([(("entries", 1, "value"), "half")], "DocumentError: entries[1].value: not a rational literal: 'half'"),
            ([(("entries", 1, "value"), "1" * 5000)], "DocumentError: entries[1].value: not a rational literal: '" + "1" * 5000 + "'"),
            ([(("entries", 2, "coalition"), ["a"])], "GameDefinitionError: duplicate entry for coalition ('a',)"),
            ([(("entries", 0, "coalition"), ["b", "a"])], "GameDefinitionError: duplicate entry for coalition ('a', 'b')"),
            ([(("entries", 3), DROP)], "GameDefinitionError: missing coalitions: {a,b}"),
            ([(("entries", 0, "value"), "1/3")], "GameDefinitionError: v(empty set) must be 0, got 1/3"),
            ([(("players",), ["a", "a"])], "GameDefinitionError: duplicate player id 'a'"),
            ([(("players",), [f"p{k}" for k in range(25)])],
             "CapacityError: coalition-table for 25 players needs 2^25 values (cap 24 players)"),
            # a refused row wins over an unknown player, a bad roster or the cap, wherever it stands
            ([(("entries", 1, "coalition"), ["c"]), (("entries", 3, "value"), "x")],
             "DocumentError: entries[3].value: not a rational literal: 'x'"),
            ([(("players",), ["a", "a"]), (("entries", 3, "note"), 1)],
             "DocumentError: entries[3].note: unknown key (expected one of coalition, value)"),
            ([(("players",), [f"p{k}" for k in range(25)]), (("entries", 3), [])],
             "DocumentError: entries[3]: expected an object, got array []"),
            # the player before a duplicate, a duplicate before v(empty), v(empty) before a missing row
            ([(("entries", 2, "coalition"), ["a"]), (("entries", 3, "coalition"), ["z"])],
             "GameDefinitionError: duplicate entry for coalition ('a',)"),
            ([(("entries", 0, "value"), 1), (("entries", 2, "coalition"), ["a"])],
             "GameDefinitionError: duplicate entry for coalition ('a',)"),
            ([(("entries", 0, "value"), 1), (("entries", 3), DROP)], "GameDefinitionError: v(empty set) must be 0, got 1"),
        ],
        ids=[
            "row", "coalition", "bool-value", "null-value", "extra-key", "missing-key", "unknown-id", "unknown-ids",
            "integer-id", "array-id", "zero-denominator", "word", "beyond-int-digits", "duplicate",
            "duplicate-in-another-order", "missing-row", "nonzero-empty", "roster", "cap", "row-before-player",
            "row-before-roster", "row-before-cap", "duplicate-before-later-player", "duplicate-before-empty",
            "empty-before-missing",
        ],
    )
    def test_refused_table_gives_the_located_message(self, edits, error):
        with pytest.raises(RiskshareError) as raised:
            coalition_game_from_document(edited(TABLE, *edits))
        assert f"{type(raised.value).__name__}: {raised.value}" == error

    @pytest.mark.parametrize(
        "edits",
        [
            [(("entries", 2, "coalition"), ["b", "b"])],
            [(("entries", 1, "value"), " 1/2 "), (("entries", 3, "value"), "1.5")],
            [(("entries", 1, "value"), Fraction(1, 2)), (("entries", 3, "value"), "15e-1")],
            [(("entries", 1, "value"), "2/4"), (("entries", 3, "value"), "-0/7"), (("entries", 2, "value"), "3/3")],
        ],
        ids=["repeated-id", "padded-and-decimal", "float-and-exponent", "unreduced"],
    )
    def test_accepted_rows_outside_the_one_pass_read_as_before(self, edits):
        doc = edited(TABLE, *edits)
        entries = [(row["coalition"], row["value"]) for row in doc["entries"]]
        expected = game_from_table(PlayerSet(doc["players"]), entries, label="coalition-table")
        game = coalition_game_from_document(doc)
        assert (game.terms, game.label) == (expected.terms, expected.label)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), default_zero=st.booleans())
    def test_one_pass_game_equals_the_game_of_the_rows(self, data, n, default_zero):
        players = data.draw(st.permutations([f"p{k}" for k in range(n)]))
        rows, entries = [], []
        for mask in range(1 << n):
            coalition = data.draw(st.permutations([p for k, p in enumerate(players) if mask >> k & 1]))
            if default_zero and data.draw(st.booleans()):
                continue
            value, token = (Fraction(0), "0") if mask == 0 else data.draw(value_tokens())
            rows.append('{"coalition": %s, "value": %s}' % (json.dumps(coalition), token))
            entries.append((coalition, value))
        order = data.draw(st.permutations(range(len(rows))))
        text = '{"players": %s, "default_zero": %s, "entries": [%s]}' % (
            json.dumps(players), json.dumps(default_zero), ", ".join(rows[k] for k in order))
        game = coalition_game_from_document(loads_exact(text))
        expected = game_from_table(PlayerSet(players), entries, default_zero=default_zero)
        assert game.terms == expected.terms

    def test_reading_a_table_of_ratio_literals_builds_no_fraction_per_row(self, tmp_path):
        n = 8
        players = [f"p{k}" for k in range(n)]
        entries = [{"coalition": [p for k, p in enumerate(players) if m >> k & 1], "value": f"{m % 7}/{m % 5 + 1}"}
                   for m in range(1 << n)]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"players": players, "entries": entries}))
        built = 0

        def count(frame, event, arg):
            nonlocal built
            built += event == "call" and frame.f_code is Fraction.__new__.__code__

        sys.setprofile(count)
        try:
            game = load_coalition_game(path)
        finally:
            sys.setprofile(None)
        assert game.grand_value() == Fraction(255 % 7, 255 % 5 + 1)
        assert built < n  # none per row; a Fraction per row would make 2^n of them


class TestSubsetResultsReader:
    """Rows are checked in bulk; the first refused row is the error, named at its own index."""

    RESULTS = {"players": ["a", "b"], "results": [
        {"subset": [], "passing": []}, {"subset": ["a"], "passing": ["f1"]},
        {"subset": ["b"], "passing": []}, {"subset": ["a", "b"], "passing": ["f1", "f2"]},
    ]}

    def test_rows_read_as_id_lists(self):
        roster, results = subset_results_from_document(self.RESULTS)
        assert roster == ("a", "b")
        assert results == [([], []), (["a"], ["f1"]), (["b"], []), (["a", "b"], ["f1", "f2"])]

    @pytest.mark.parametrize(
        "edits, error",
        [
            ([(("results", 1, "note"), "x")], "results[1].note: unknown key (expected one of subset, passing)"),
            ([(("results", 2, "passing"), DROP)], "results[2]: missing key 'passing'"),
            ([(("results", 3, "subset", 1), 2)], "results[3].subset[1]: expected a string, got integer 2"),
            ([(("results", 3, "passing"), None)], "results[3].passing: expected an array, got null"),
            ([(("results", 3, "passing", 0), ["f1"]), (("results", 1, "subset"), "a")],
             "results[1].subset: expected an array, got string 'a'"),
        ],
        ids=["extra-key", "missing-key", "integer-id", "null-passing", "first-refused-row"],
    )
    def test_refused_row_is_located(self, edits, error):
        with pytest.raises(DocumentError) as raised:
            subset_results_from_document(edited(self.RESULTS, *edits))
        assert str(raised.value) == error


def _outcome(read, doc):
    """What ``read(doc)`` gives, or ``<error type>: <message>`` for what it raises."""
    try:
        return read(doc)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _table_in_two_stages(doc) -> tuple:
    """The reference reader: every row through the located readers, then the roster, then the build over Fractions."""
    entries = [(_field(row, "coalition", at, _strings), _field(row, "value", at, _rational))
               for at, row in _rows(doc["entries"], "entries", ("coalition", "value"))]
    game = game_from_table(PlayerSet(doc["players"]), entries, default_zero=doc["default_zero"], label="coalition-table")
    return game.terms, game.label


def _results_in_one_stage(doc) -> tuple:
    """The reference reader of subset results: every row through the located readers, in order."""
    results = [(list(_field(row, "subset", at, _strings)), list(_field(row, "passing", at, _strings)))
               for at, row in _rows(doc["results"], "results", ("subset", "passing"))]
    return (tuple(doc["players"]) if "players" in doc else None), results


def _coalitions(draw, n: int) -> list[list[str]]:
    """Each coalition of ``p0 … p{n-1}`` by mask, its ids in a drawn order."""
    ids = [f"p{k}" for k in range(n)]
    return [draw(st.permutations([p for k, p in enumerate(ids) if m >> k & 1])) for m in range(1 << n)]


#: Ways a row can be refused for its shape, each made from a well-formed row ``{key: ids, other: value}``.
REFUSED_SHAPES = [
    lambda key, row: 5,
    lambda key, row: [],
    lambda key, row: None,
    lambda key, row: {**row, "note": 1},
    lambda key, row: {k: v for k, v in row.items() if k != key},
    lambda key, row: {k: v for k, v in row.items() if k == key},
    lambda key, row: {**row, key: "p0"},
    lambda key, row: {**row, key: {"p0": 1}},
    lambda key, row: {**row, key: [*row[key], 1]},
    lambda key, row: {**row, key: [["p0"], *row[key]]},
    lambda key, row: {**row, key: [None]},
]

#: The kinds of defect planted in a table, in the order they are planted: a refused shape after the other row
#: defects, so that each of those finds its row an object, and a bad roster after the cap, so that it can extend it.
TABLE_DEFECTS = ("unknown-id", "repeat", "value", "shape", "cap", "roster")


@st.composite
def defective_tables(draw) -> dict:
    """A valid table of n <= 5 players, its rows shuffled, with 1 to 3 defects of different kinds at drawn rows."""
    n = draw(st.integers(1, 5))
    default_zero = draw(st.booleans())
    rows = []
    for mask, ids in enumerate(_coalitions(draw, n)):
        if default_zero and draw(st.booleans()):
            continue
        value = draw(st.fractions(-20, 20, max_denominator=12)) if mask else Fraction(0)
        forms = [str(value), value] + ([value.numerator] if value.denominator == 1 else [])
        rows.append({"coalition": ids, "value": draw(st.sampled_from(forms))})
    rows = draw(st.permutations(rows))
    players = [f"p{k}" for k in range(n)]
    targets = iter(draw(st.permutations(range(len(rows)))))
    for kind in sorted(draw(st.lists(st.sampled_from(TABLE_DEFECTS), min_size=1, max_size=3, unique=True)),
                       key=TABLE_DEFECTS.index):
        if kind == "cap":
            players = players + [f"q{k}" for k in range(25 - n)]
        elif kind == "roster":
            players = draw(st.sampled_from([players + players[:1], [], players + [""]]))
        elif (k := next(targets, None)) is None:  # every row already has a defect, or there is none
            continue
        elif kind == "unknown-id":
            ids = rows[k]["coalition"]
            ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(["zz", "P0", "p0 "])))
        elif kind == "repeat":
            rows[k]["coalition"] = list(reversed(draw(st.sampled_from(rows))["coalition"]))
        elif kind == "value":
            rows[k]["value"] = draw(st.sampled_from(["x", "1/0", "1e1000", " ", True, None, [1], 0.5, "1" * 5000]))
        else:
            rows[k] = draw(st.sampled_from(REFUSED_SHAPES))("coalition", rows[k])
    return {"players": players, "default_zero": default_zero, "entries": rows}


class TestWhichErrorWins:
    """The document readers raise what a reader of every row first, and of the whole table after, would raise."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=defective_tables())
    def test_a_table_reads_as_its_rows_first_then_its_roster_then_its_game(self, doc):
        game = _outcome(coalition_game_from_document, copy.deepcopy(doc))
        expected = _outcome(_table_in_two_stages, doc)
        assert (game if isinstance(game, str) else (game.terms, game.label)) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), roster=st.booleans())
    def test_subset_results_read_as_their_rows_in_order(self, data, n, roster):
        leaves = st.lists(st.sampled_from(["f1", "f2", "f3"]), unique=True)
        rows = data.draw(st.permutations([{"subset": ids, "passing": data.draw(leaves)} for ids in _coalitions(data.draw, n)]))
        targets = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3, unique=True))
        shapes = data.draw(st.lists(st.sampled_from(REFUSED_SHAPES), min_size=len(targets), max_size=len(targets),
                                    unique_by=REFUSED_SHAPES.index))
        for k, shape in zip(targets, shapes):
            rows[k] = shape(data.draw(st.sampled_from(["subset", "passing"])), rows[k])
        doc = {"players": [f"p{k}" for k in range(n)], "results": rows} if roster else {"results": rows}
        assert _outcome(subset_results_from_document, copy.deepcopy(doc)) == _outcome(_results_in_one_stage, doc)


@st.composite
def value_tokens(draw):
    """A rational and a JSON token for it: an integer, a float, or a string of an integer, ratio, decimal or exponent."""
    num = draw(st.integers(-60, 60))
    kind = draw(st.sampled_from(["int", "ratio", "decimal", "exponent", "float", "float-exponent"]))
    if kind == "int":
        return Fraction(num), str(num)
    if kind == "ratio":
        den = draw(st.integers(1, 12))
        return Fraction(num, den), json.dumps(f"{num}/{den}")
    exp = draw(st.integers(-3, 3))
    if kind in ("decimal", "float"):
        text = str(Decimal(num).scaleb(-abs(exp)))
        return Fraction(text), (json.dumps(text) if kind == "decimal" else text)
    text = f"{num}e{exp}"
    return Fraction(text), (json.dumps(text) if kind == "exponent" else text)


def assert_located(reader, doc, path, value, location):
    """Setting ``doc[path[0]][path[1]]...`` to ``value`` makes ``reader`` fail at ``location``."""
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    with pytest.raises(DocumentError) as error:
        reader(doc)
    assert str(error.value).startswith(location)


class TestReading:
    @pytest.mark.parametrize("raised, kind", [(GameDefinitionError, ValidationError), (CapacityError, CapacityError)])
    def test_a_validation_or_capacity_error_inside_names_the_file_once(self, tmp_path, raised, kind):
        path = tmp_path / "source.json"
        with pytest.raises(RiskshareError) as error:
            with reading(path):
                raise raised("too many players")
        assert type(error.value) is kind  # a subclass comes out as ValidationError, as the command line reports it
        assert str(error.value) == f"{path}: too many players"

    def test_a_game_built_while_loading_names_the_file_once(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"players": ["a"], "entries": [{"coalition": [], "value": "1"}]}))
        with pytest.raises(ValidationError) as error:
            load_coalition_game(path)
        assert str(error.value) == f"{path}: v(empty set) must be 0, got 1"


class TestRowShapes:
    @pytest.mark.parametrize(
        "path, value, location",
        [
            (("threats",), 5, "threats: expected an array"),
            (("threats", 0), 5, "threats[0]: expected an object, got integer 5"),
            (("threats", 0, "controls", 0), "C", "threats[0].controls[0]: expected an object"),
            (("threats", 0, "controls", 1, "leaves"), {}, "threats[0].controls[1].leaves: expected an array"),
            (("threats", 0, "controls", 2, "leaves", 0), None, "threats[0].controls[2].leaves[0]: expected an object"),
            (("assessments", 0), 5, "assessments[0]: expected an object, got integer 5"),
            (("scales", "impact"), [], "scales.impact: expected an object"),
            (("scales", "likelihood", "categories", 1), "low", "scales.likelihood.categories[1]: expected an object"),
            (("threats", 0, "id"), 7, "threats[0].id: expected a string, got integer 7"),
            (("threats", 0, "label"), None, "threats[0].label: expected a string, got null"),
            (("threats", 0, "controls", 1, "id"), ["C"], "threats[0].controls[1].id: expected a string, got array"),
            (("threats", 0, "controls", 1, "label"), True, "threats[0].controls[1].label: expected a string, got boolean true"),
            (("threats", 0, "controls", 2, "leaves", 0, "id"), 7, "threats[0].controls[2].leaves[0].id: expected a string"),
            (("threats", 0, "controls", 2, "leaves", 0, "label"), None, "threats[0].controls[2].leaves[0].label: expected a string"),
            (("assessments", 0, "threat"), 1, "assessments[0].threat: expected a string, got integer 1"),
            (("assessments", 0, "impact_after"), None, "assessments[0].impact_after: expected a string, got null"),
            (("scales", "impact", "name"), False, "scales.impact.name: expected a string, got boolean false"),
            (("scales", "likelihood", "categories", 0, "label"), 0, "scales.likelihood.categories[0].label: expected a string"),
            (("threats", 0, "label"), Fraction("1e400"), "threats[0].label: expected a string, got float 1e+400"),
            (("threats", 0, "id"), Fraction("-1e-400"), "threats[0].id: expected a string, got float -1e-400"),
        ],
        ids=[
            "threats", "threat", "control", "leaves", "leaf", "assessment", "scale", "category",
            "threat-id", "threat-label", "control-id", "control-label", "leaf-id", "leaf-label",
            "assessment-threat", "assessment-label", "scale-name", "category-label", "label-beyond-float-range",
            "id-below-float-range",
        ],
    )
    def test_risk_model_row_that_is_not_an_object(self, fixtures_dir, path, value, location):
        doc = load_json(fixtures_dir / "worked_example" / "risk_model.json")
        assert_located(risk_model_from_document, doc, path, value, location)

    def test_risk_model_that_is_not_an_object(self):
        with pytest.raises(DocumentError, match="^document: expected an object, got array"):
            risk_model_from_document([])

    def test_long_value_is_quoted_up_to_60_characters(self):
        with pytest.raises(DocumentError) as error:
            risk_model_from_document([{"threat": "T1"}] * 20000)
        quoted = "[" + "{'threat': 'T1'}, " * 3 + "{'thr"
        assert len(quoted) == 60
        assert str(error.value) == f"document: expected an object, got array {quoted}…"

    @pytest.mark.parametrize(
        "path, value, location",
        [
            (("results", 2), 5, "results[2]: expected an object, got integer 5"),
            (("results", 3, "subset"), "carol", "results[3].subset: expected an array, got string 'carol'"),
            (("results", 4, "passing", 0), 1, "results[4].passing[0]: expected a string, got integer 1"),
            (("players",), 5, "players: expected an array, got integer 5"),
            (("players", 1), None, "players[1]: expected a string, got null"),
        ],
        ids=["row", "subset", "passing", "players", "player"],
    )
    def test_subset_results_shape(self, fixtures_dir, path, value, location):
        doc = load_json(fixtures_dir / "worked_example" / "subset_results.json")
        assert_located(subset_results_from_document, doc, path, value, location)

    @pytest.mark.parametrize(
        "path, value, location",
        [
            (("attribution", 0), 5, "attribution[0]: expected an object, got integer 5"),
            (("attribution",), {"leaf": "f1"}, "attribution: expected an array"),
            (("attribution", 0, "authors"), "ab", "attribution[0].authors: expected an array, got string 'ab'"),
            (("attribution", 0, "authors", 0), ["a"], "attribution[0].authors[0]: expected a string"),
            (("players",), 5, "players: expected an array, got integer 5"),
            (("attribution", 0, "leaf"), 7, "attribution[0].leaf: expected a string, got integer 7"),
        ],
        ids=["row", "rows", "authors", "author", "players", "leaf"],
    )
    def test_attribution_shape(self, path, value, location):
        doc = {"players": ["a", "b"], "attribution": [{"leaf": "f1", "authors": ["a"]}]}
        assert_located(attribution_from_document, doc, path, value, location)


#: Keys the document readers look for, so generated objects reach past the top level.
KEYS = (
    "scales likelihood impact name kind categories label lo hi threats id controls leaves "
    "assessments threat likelihood_before impact_before likelihood_after impact_after "
    "players attribution leaf authors results subset passing entries coalition value default_zero"
).split()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.sampled_from(["", "a", "b", "0.5", "low"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)

READERS = [
    risk_model_from_document,
    coalition_game_from_document,
    attribution_from_document,
    subset_results_from_document,
]


def report_document() -> dict:
    """A stored two-player payout report, as ``render_report`` writes it."""
    game = CoalitionGame(PlayerSet(("a", "b")), terms=[(0b11, 1), (0b01, 1)])
    result = shapley_exact(game)
    provenance = Provenance("table", delta=Interval(1, 2), solver=result.method)
    report = allocate_payments(result, Money(100), provenance=provenance, axioms=check_axioms(game, result))
    return json.loads(render_report(report, "json"))


def node_paths(node, path=()):
    """The key path of every node below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


REPORT_PATHS = list(node_paths(report_document()))


class TestFuzz:
    """Arbitrary JSON fed to each reader ends in a library error, never a traceback."""

    @pytest.mark.parametrize("reader", READERS + [parse_report], ids=lambda r: r.__name__)
    @settings(max_examples=150, deadline=None)
    @given(value=json_values)
    def test_document_readers(self, reader, value):
        text = json.dumps(value)
        try:
            reader(text) if reader is parse_report else reader(loads_exact(text))
        except RiskshareError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(REPORT_PATHS), value=json_values)
    def test_report_reader_on_a_report_with_one_node_replaced(self, path, value):
        doc = report_document()
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        try:
            report = parse_report(json.dumps(doc))
        except RiskshareError:
            return
        for format in ("json", "csv", "markdown"):  # what parses also renders
            render_report(report, format)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=json_values)
    def test_alias_reader(self, tmp_path, value):
        path = tmp_path / "aliases.json"
        path.write_text(json.dumps(value))
        try:
            load_aliases(path)
        except RiskshareError:
            pass
