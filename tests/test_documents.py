import json
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskshare import (
    CoalitionGame,
    DocumentError,
    Interval,
    Money,
    PlayerSet,
    Provenance,
    RiskshareError,
    allocate_payments,
    check_axioms,
    parse_report,
    render_report,
    risk_delta,
    shapley_exact,
)
from riskshare.documents import (
    attribution_from_document,
    coalition_game_from_document,
    coalition_table_document,
    load_aliases,
    load_coalition_game,
    load_json,
    load_risk_model,
    load_subset_results,
    loads_exact,
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
        delta = risk_delta(model.assessments, model.scales)
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
        ],
        ids=[
            "threats", "threat", "control", "leaves", "leaf", "assessment", "scale", "category",
            "threat-id", "threat-label", "control-id", "control-label", "leaf-id", "leaf-label",
            "assessment-threat", "assessment-label", "scale-name", "category-label",
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
