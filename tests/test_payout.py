import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import (
    AxiomReport,
    CoalitionGame,
    DocumentError,
    Interval,
    Money,
    PayoutError,
    PlayerSet,
    Provenance,
    ShapleyResult,
    allocate_payments,
    check_axioms,
    compute_budget,
    parse_report,
    render_report,
    shapley_exact,
    shapley_monte_carlo,
)

from conftest import allocate, scaled

WORKED_DELTA = Interval(2125900, 15622700)


def result_from_phi(phi_values, method="external") -> ShapleyResult:
    players = tuple(f"p{k}" for k in range(len(phi_values)))
    return ShapleyResult(players=players, phi={p: Fraction(v) for p, v in zip(players, phi_values)}, method=method)


class TestMoney:
    def test_display(self):
        assert Money(1240108).display() == "12401.08"
        assert str(Money(5, "EUR")) == "EUR 0.05"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Money(-1)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Money("100")


class TestComputeBudget:
    def test_one_percent_of_lower_bound(self):
        assert compute_budget(WORKED_DELTA, "1/100", "lower") == Money(2125900)

    def test_zero_fraction(self):
        assert compute_budget(WORKED_DELTA, 0, "lower") == Money(0)

    def test_upper_anchor(self):
        assert compute_budget(WORKED_DELTA, "1/100", "upper") == Money(15622700)

    def test_midpoint_anchor(self):
        assert compute_budget(Interval(100, 200), 1, "midpoint") == Money(15000)

    def test_midpoint_of_an_odd_sum_keeps_its_half(self):
        """(100 + 201) / 2 is 150.5 major units, 15050 minor; flooring the midpoint first would give 15000."""
        assert compute_budget(Interval(100, 201), 1, "midpoint") == Money(15050)

    def test_explicit_anchor_inside_delta(self):
        assert compute_budget(WORKED_DELTA, "1/100", "explicit", explicit_value=3000000) == Money(3000000)

    def test_explicit_anchor_outside_delta_rejected(self):
        with pytest.raises(PayoutError, match="outside"):
            compute_budget(WORKED_DELTA, "1/100", "explicit", explicit_value=1)

    def test_negative_fraction_rejected(self):
        with pytest.raises(PayoutError):
            compute_budget(WORKED_DELTA, "-1/100", "lower")

    def test_fraction_above_one_rejected(self):
        with pytest.raises(PayoutError):
            compute_budget(WORKED_DELTA, 2, "lower")

    def test_negative_delta_rejected(self):
        with pytest.raises(PayoutError):
            compute_budget(Interval(-5, 10), "1/100", "lower")

    def test_result_floors_to_minor_units(self):
        # 1/3 of [1, 1] dollars = 33.33... cents -> 33
        assert compute_budget(Interval(1, 1), Fraction(1, 3), "lower") == Money(33)

    @pytest.mark.parametrize("point, fraction, minor", [(2, Fraction(1, 3), 66), ("0.015", 1, 1), ("0.0251", 1, 2)])
    def test_a_fractional_cent_of_one_half_or_more_is_floored(self, point, fraction, minor):
        """66.67, 1.5 and 2.51 cents: rounding would pay 67, 2 and 3; flooring pays 66, 1 and 2."""
        assert compute_budget(Interval(point, 3), fraction, "lower") == Money(minor)

    def test_delta_reaching_below_zero_by_less_than_one_is_rejected(self):
        with pytest.raises(PayoutError, match=r"^risk delta must be non-negative, got \[-1/2, 5\]$"):
            compute_budget(Interval("-1/2", 5), "1/100", "lower")


class TestAllocate:
    def test_reported_shares_reproduce_published_payments(self):
        result = result_from_phi([Fraction(7, 6), Fraction(1, 6), Fraction(2, 3)])
        report = allocate(result, Money(2125900), "per-recipient")
        assert [row.payment.amount_minor for row in report.payouts] == [1240108, 177158, 708633]
        assert report.residual_minor == -1

    def test_largest_remainder_conserves_and_breaks_tie_by_id(self):
        # all three dropped fractions are exactly 1/3; the first player id wins
        result = result_from_phi([Fraction(7, 6), Fraction(1, 6), Fraction(2, 3)])
        report = allocate(result, Money(2125900), "largest-remainder")
        assert [row.payment.amount_minor for row in report.payouts] == [1240109, 177158, 708633]
        assert report.residual_minor == 0

    def test_largest_remainder_tie_at_the_cut_goes_by_player_id_not_roster_order(self):
        """Four equal shares of 102 units leave 25.5 each: the two leftover units go to ids a and b."""
        roster = ("c", "a", "d", "b")
        result = ShapleyResult(players=roster, phi={p: Fraction(1) for p in roster}, method="external")
        report = allocate(result, Money(102), "largest-remainder")
        assert [(row.player, row.payment.amount_minor) for row in report.payouts] == [
            ("c", 25), ("a", 26), ("d", 25), ("b", 26)
        ]

    @pytest.mark.parametrize("budget, paid", [(1, 1), (3, 2), (5, 3)])
    def test_per_recipient_rounds_an_exact_half_cent_up(self, budget, paid):
        """Two equal shares of an odd budget are each a whole number of minor units and a half: half-up pays more."""
        report = allocate(result_from_phi([1, 1]), Money(budget), "per-recipient")
        assert [row.payment.amount_minor for row in report.payouts] == [paid, paid]
        assert report.residual_minor == 1

    def test_single_player_gets_everything(self):
        result = result_from_phi([Fraction(5)])
        for mode in ("per-recipient", "largest-remainder"):
            report = allocate(result, Money(123457), mode)
            assert report.payouts[0].payment == Money(123457)
            assert report.residual_minor == 0

    def test_negative_contribution_rejected(self):
        result = result_from_phi([Fraction(2), Fraction(-1)])
        with pytest.raises(PayoutError, match="negative contribution"):
            allocate(result, Money(100))

    def test_zero_total_pays_nobody_with_notice(self):
        result = result_from_phi([0, 0, 0])
        report = allocate(result, Money(100))
        assert all(row.payment.amount_minor == 0 for row in report.payouts)
        assert "zero" in report.notice

    def test_unknown_rounding_mode(self):
        with pytest.raises(PayoutError):
            allocate(result_from_phi([1]), Money(1), "stochastic")

    def test_unknown_anchor(self):
        """A report with an anchor that ``parse_report`` would refuse is never written."""
        with pytest.raises(PayoutError, match=r"^unknown anchor 'middle'; expected one of \("):
            allocate(result_from_phi([1]), Money(1), anchor="middle")

    @pytest.mark.parametrize("fraction", [5, "-1/100"])
    def test_fraction_outside_the_unit_interval(self, fraction):
        with pytest.raises(PayoutError, match=r"^fraction must lie in \[0, 1\], got "):
            allocate(result_from_phi([1]), Money(1), fraction=fraction)

    def test_provenance_and_audit_are_required(self):
        """Every report explains its payments: there is no report without a provenance or an axiom audit."""
        result = result_from_phi([1, 1], method="exact-subset")
        with pytest.raises(TypeError, match="'provenance' and 'axioms'"):
            allocate_payments(result, Money(100))


def random_share_result(rng: random.Random) -> ShapleyResult:
    n = rng.randint(1, 12)
    return result_from_phi([Fraction(rng.randint(0, 50), rng.randint(1, 9)) for _ in range(n)])


def test_largest_remainder_conservation_fuzz():
    rng = random.Random(1000003)
    for _ in range(300):
        result = random_share_result(rng)
        if result.total == 0:
            continue
        budget = Money(rng.randint(0, 10**7))
        report = allocate(result, budget, "largest-remainder")
        assert sum(row.payment.amount_minor for row in report.payouts) == budget.amount_minor
        assert report.residual_minor == 0


def test_per_recipient_residual_bound_fuzz():
    rng = random.Random(2000003)
    for _ in range(300):
        result = random_share_result(rng)
        if result.total == 0:
            continue
        budget = Money(rng.randint(0, 10**7))
        report = allocate(result, budget, "per-recipient")
        n = len(report.payouts)
        assert abs(report.residual_minor) <= max(n - 1, 0)


def test_monotonicity_in_both_modes():
    rng = random.Random(3000003)
    for _ in range(200):
        result = random_share_result(rng)
        if result.total == 0:
            continue
        budget = Money(rng.randint(0, 10**6))
        for mode in ("per-recipient", "largest-remainder"):
            report = allocate(result, budget, mode)
            rows = list(report.payouts)
            for a in rows:
                for b in rows:
                    if a.share > b.share:
                        assert a.payment.amount_minor >= b.payment.amount_minor


@settings(max_examples=60)
@given(
    st.lists(st.fractions(min_value=0, max_value=50, max_denominator=20), min_size=1, max_size=9),
    st.integers(min_value=0, max_value=10**6),
)
def test_largest_remainder_conservation_property(phis, budget_minor):
    result = result_from_phi(phis)
    report = allocate(result, Money(budget_minor), "largest-remainder")
    assert sum(row.payment.amount_minor for row in report.payouts) == budget_minor or result.total == 0
    if result.total == 0:
        assert all(row.payment.amount_minor == 0 for row in report.payouts)


def test_scale_invariance_of_payments(reported_variant_game):
    """Replacing v by c*v changes phi but not shares, hence not payments."""
    budget = Money(2125900)
    base = allocate(shapley_exact(reported_variant_game), budget, "largest-remainder")
    scaled_game = scaled(reported_variant_game, Fraction(5, 9))
    other = allocate(shapley_exact(scaled_game), budget, "largest-remainder")
    assert [r.payment for r in base.payouts] == [r.payment for r in other.payouts]
    assert [r.share for r in base.payouts] == [r.share for r in other.payouts]


def test_normalization_equivalence_of_payments():
    """Raw counts vs leaf-normalized values: identical payments either way."""
    from riskshare import PlayerSet, leaf_coverage_game

    from conftest import build_three_fix_tree

    attribution = {
        "U-46365-1": {"A"},
        "U-45802-1": {"B", "C"},
        "U-45801-1": {"A", "C"},
    }
    players = PlayerSet(("A", "B", "C"))
    tree = build_three_fix_tree()
    budget = Money(2125900)
    raw = leaf_coverage_game(tree, attribution, players, normalized=False)
    norm = leaf_coverage_game(tree, attribution, players, normalized=True)
    pay_raw = allocate(shapley_exact(raw), budget, "per-recipient")
    pay_norm = allocate(shapley_exact(norm), budget, "per-recipient")
    assert [r.payment for r in pay_raw.payouts] == [r.payment for r in pay_norm.payouts]


class TestRendering:
    def make_report(self, reported_variant_game):
        result = shapley_exact(reported_variant_game)
        axioms = check_axioms(reported_variant_game, result)
        provenance = Provenance(
            game_source="coalition-table:coalition_table.json",
            delta=WORKED_DELTA,
            solver=result.method,
        )
        return allocate_payments(
            result,
            Money(2125900),
            "per-recipient",
            anchor="lower",
            fraction=Fraction(1, 100),
            provenance=provenance,
            axioms=axioms,
        )

    def test_markdown_contains_payments_and_audit(self, reported_variant_game):
        text = render_report(self.make_report(reported_variant_game), "markdown")
        for needle in ("12401.08", "1771.58", "7086.33", "efficiency: pass", "2125900", "15622700"):
            assert needle in text

    def test_json_round_trip(self, reported_variant_game):
        report = self.make_report(reported_variant_game)
        assert parse_report(render_report(report, "json")) == report

    def test_json_is_deterministic(self, reported_variant_game):
        a = render_report(self.make_report(reported_variant_game), "json")
        b = render_report(self.make_report(reported_variant_game), "json")
        assert a == b

    def test_csv_has_one_row_per_player(self, reported_variant_game):
        text = render_report(self.make_report(reported_variant_game), "csv")
        lines = [line for line in text.splitlines() if line]
        assert lines[0].startswith("player,")
        assert len([l for l in lines if l.startswith(("A,", "B,", "C,"))]) == 3

    def test_sampled_estimate_is_not_audited_for_symmetry(self):
        # glove game: L pairs with either right glove, so R1 and R2 are interchangeable
        game = CoalitionGame(PlayerSet(("L", "R1", "R2")), terms=[(0b011, 1), (0b101, 1), (0b111, -1)])
        for seed in range(50):
            result = shapley_monte_carlo(game, 11, seed)
            axioms = check_axioms(game, result)
            assert axioms == AxiomReport(Fraction(0), None, ())
            text = render_report(allocate(result, Money(100), axioms=axioms), "markdown")
            assert "- symmetry: not audited (sampled estimate)" in text
            assert "- null player: pass" in text
            assert "FAIL" not in text

    def failed_audit_report(self):
        """A report whose result breaks every audited axiom: a and b are interchangeable, z contributes nothing."""
        v = CoalitionGame(PlayerSet(("a", "b", "z")), terms=[(0b011, 2)])
        result = ShapleyResult(players=("a", "b", "z"), phi={"a": Fraction(2), "b": Fraction(0), "z": Fraction(1)},
                               method="external")
        axioms = check_axioms(v, result)
        provenance = Provenance("table", delta=Interval(1, 2), solver=result.method)
        return allocate_payments(result, Money(300), provenance=provenance, axioms=axioms)

    def test_markdown_audit_lists_each_failure(self):
        text = render_report(self.failed_audit_report(), "markdown")
        assert text.endswith(
            "## Fairness audit\n\n"
            "- efficiency: FAIL (residual 1)\n"
            "- symmetry: FAIL (equal contributors paid differently: a/b)\n"
            "- null player: FAIL (zero contributors paid: z)\n"
        )

    def test_json_round_trip_keeps_symmetry_pairs(self):
        report = self.failed_audit_report()
        assert report.axioms.symmetry_violations == (("a", "b"),)
        assert parse_report(render_report(report, "json")) == report

    def test_markdown_audit_lines_escape_player_ids(self):
        """Ids in the audit lines are escaped as table cells are: a raw break would start a markdown heading."""
        a, b, z = "a|x", "B\n\n# all payments void", "z\r\n"
        v = CoalitionGame(PlayerSet((a, b, z)), terms=[(0b011, 2)])
        result = ShapleyResult(players=(a, b, z), phi={a: Fraction(2), b: Fraction(0), z: Fraction(1)},
                               method="external")
        report = allocate(result, Money(300), axioms=check_axioms(v, result))
        text = render_report(report, "markdown")
        assert text.endswith(
            "- symmetry: FAIL (equal contributors paid differently: a\\|x/B<br><br># all payments void)\n"
            "- null player: FAIL (zero contributors paid: z<br>)\n"
        )
        assert [line for line in text.splitlines() if line.startswith("#")] == ["# Security bonus report",
                                                                               "## Fairness audit"]
        assert parse_report(render_report(report, "json")) == report

    def test_single_player_report_renders(self):
        report = allocate(result_from_phi([Fraction(1)]), Money(500))
        text = render_report(report, "markdown")
        assert "| p0 |" in text

    #: Every line end that ``str.splitlines`` knows (none lies above U+2029).
    LINE_BREAKS = ["\r\n"] + [c for c in map(chr, range(0x2030)) if len(f"a{c}b".splitlines()) == 2]

    @pytest.mark.parametrize(
        "player, cell",
        [("Bob | Contractor", r"Bob \| Contractor"), ("ann\r\n", "ann<br>")]
        + [(f"ann{brk}| x | y | z | w |", r"ann<br>\| x \| y \| z \| w \|") for brk in LINE_BREAKS],
        ids=["pipe", "final-break"] + [f"break-{brk.encode('unicode_escape').decode()}" for brk in LINE_BREAKS],
    )
    def test_markdown_escapes_a_pipe_in_a_player_id(self, player, cell):
        """An unescaped ``|`` would split the row into five cells and shift phi, share and payment left;
        a raw line break would end the row early and leave the rest of it outside the table."""
        result = ShapleyResult(players=(player, "alice"), phi={player: Fraction(1, 6), "alice": Fraction(1, 3)},
                               method="external")
        text = render_report(allocate(result, Money(300)), "markdown")
        rows = [line for line in text.splitlines() if line.startswith("| ") and not line.startswith("| player")]
        assert [re.split(r"(?<!\\)\|", row)[1:-1] for row in rows] == [
            [f" {cell} ", " 1/6 ", " 1/3 ", " USD 1.00 "],
            [" alice ", " 1/3 ", " 2/3 ", " USD 2.00 "],
        ]

    #: Where each header string sits in a stored report; a config's currency is also each payment's.
    HEADER_FIELDS = {
        "currency": [("budget", "currency")] + [("payouts", k, "payment", "currency") for k in range(3)],
        "game_source": [("provenance", "game_source")],
        "solver": [("provenance", "solver")],
        "notice": [("notice",)],
    }

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[brk.encode("unicode_escape").decode() for brk in LINE_BREAKS])
    @pytest.mark.parametrize("field", HEADER_FIELDS)
    def test_markdown_header_escapes_config_and_report_strings(self, reported_variant_game, field, brk):
        """A line break in a header string renders as ``<br>``: raw, it would start a heading of its own."""
        doc = json.loads(render_report(self.make_report(reported_variant_game), "json"))
        for *parents, key in self.HEADER_FIELDS[field]:
            node = doc
            for parent in parents:
                node = node[parent]
            node[key] = f"USD{brk}# all payments void"
        clean = render_report(self.make_report(reported_variant_game), "markdown").splitlines()
        text = render_report(parse_report(json.dumps(doc)), "markdown")
        assert [line for line in text.splitlines() if line.startswith("#")] == ["# Security bonus report",
                                                                               "## Fairness audit"]
        assert len(text.splitlines()) == len(clean) + (2 if field == "notice" else 0)  # a blank and the quote
        assert "USD<br># all payments void" in text

    def test_unknown_format_rejected(self, reported_variant_game):
        from riskshare import DocumentError

        with pytest.raises(DocumentError):
            render_report(self.make_report(reported_variant_game), "xml")


class TestParseReport:
    """A stored report is read strictly: every bad field is a DocumentError naming it."""

    def report_doc(self, reported_variant_game) -> dict:
        report = TestRendering().make_report(reported_variant_game)
        return json.loads(render_report(report, "json"))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("payouts", 0, "phi"), 0.1, "payouts[0].phi: expected a string, got float 0.1"),
            (
                ("axioms", "null_player_violations"),
                "abc",
                "axioms.null_player_violations: expected an array, got string 'abc'",
            ),
            (
                ("axioms", "null_player_violations"),
                None,
                "axioms.null_player_violations: expected an array, got null",
            ),
            (("payouts", 0, "player"), 7, "payouts[0].player: expected a string, got integer 7"),
            (
                ("rounding_mode",),
                "bogus",
                "rounding_mode: expected one of per-recipient, largest-remainder, got 'bogus'",
            ),
            (("notice",), [1], "notice: expected a string, got array [1]"),
            (("fraction",), "1/0", "fraction: not a rational literal: '1/0'"),
            (("anchor",), "middle", "anchor: expected one of lower, upper, midpoint, explicit, got 'middle'"),
            (("budget", "amount_minor"), "2125900", "budget.amount_minor: expected an integer, got string '2125900'"),
            (("budget", "amount_minor"), True, "budget.amount_minor: expected an integer, got boolean true"),
            (("budget", "amount_minor"), -1, "budget.amount_minor: money amounts must be >= 0, got -1"),
            (("payouts", 1, "payment", "currency"), None, "payouts[1].payment.currency: expected a string, got null"),
            (("payouts", 2), "C", "payouts[2]: expected an object, got string 'C'"),
            (("residual_minor",), 0.5, "residual_minor: expected an integer, got float 0.5"),
            (("provenance", "delta", "lo"), 2125900, "provenance.delta.lo: expected a string, got integer 2125900"),
            (("provenance", "delta", "lo"), "99999999", "provenance.delta: invalid interval"),
            (("provenance", "seed"), "7", "provenance.seed: expected an integer, got string '7'"),
            (("provenance", "delta"), None, "provenance.delta: expected an object, got null"),
            (("axioms",), None, "axioms: expected an object, got null"),
            (("axioms", "symmetry_violations"), [["A"]], "axioms.symmetry_violations[0]: expected two player ids, got 1"),
            (
                ("axioms", "symmetry_violations"),
                [["A", "B"], ["C", "Z"]],
                "axioms.symmetry_violations[1][1]: 'Z' is not a player of the report's payouts",
            ),
            (
                ("axioms", "symmetry_violations"),
                [["B", "B"]],
                "axioms.symmetry_violations[0]: names player 'B' twice",
            ),
            (
                ("axioms", "null_player_violations"),
                ["B\n\n# all payments void"],
                "axioms.null_player_violations[0]: 'B\\n\\n# all payments void' is not a player of the report's payouts",
            ),
            (
                ("axioms", "null_player_violations"),
                ["C", 7],
                "axioms.null_player_violations[1]: expected a string, got integer 7",
            ),
            (("axioms", "linearity"), "ok", "axioms.linearity: expected null, got 'ok'"),
            (("axioms", "efficiency_residual"), 0, "axioms.efficiency_residual: expected a string, got integer 0"),
            (("axioms", "efficiency"), "fail", "axioms.efficiency: 'fail' contradicts efficiency_residual 0"),
            (("axioms", "efficiency"), None, "axioms.efficiency: expected a string, got null"),
            (
                ("surprise",),
                1,
                "surprise: unknown key (expected one of budget, anchor, fraction, rounding_mode, residual_minor, "
                "payouts, provenance, axioms, notice)",
            ),
            (
                ("provenance", "surprise"),
                1,
                "provenance.surprise: unknown key (expected one of game_source, delta, solver, samples, seed)",
            ),
            (("payouts", 0, "payment", "cents"), 1, "payouts[0].payment.cents: unknown key"),
        ],
        ids=[
            "phi-float", "null-players-string", "null-players-null", "player-integer", "rounding-mode",
            "notice-array", "fraction-zero-denominator", "anchor", "amount-string", "amount-bool", "amount-negative",
            "currency-null", "payout-row", "residual-float", "delta-integer", "delta-reversed",
            "seed-string", "delta-null", "axioms-null", "symmetry-pair", "symmetry-unknown-player", "symmetry-same-player",
            "null-player-unknown", "null-player-integer", "linearity", "efficiency-residual-integer",
            "efficiency-contradicts-residual", "efficiency-null", "unknown-key", "unknown-provenance-key",
            "unknown-payment-key",
        ],
    )
    def test_bad_field_is_located(self, reported_variant_game, path, value, message):
        doc = self.report_doc(reported_variant_game)
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        with pytest.raises(DocumentError) as error:
            parse_report(json.dumps(doc))
        assert str(error.value).startswith(message)

    @pytest.mark.parametrize("key", ["notice", "provenance", "payouts"])
    def test_missing_key_is_located(self, reported_variant_game, key):
        doc = self.report_doc(reported_variant_game)
        del doc[key]
        with pytest.raises(DocumentError, match=f"^document: missing key '{key}'$"):
            parse_report(json.dumps(doc))

    def test_report_that_is_not_an_object(self):
        with pytest.raises(DocumentError, match="^document: expected an object, got array"):
            parse_report("[]")

    def test_stored_sampled_report_with_null_audit_lists_parses(self, reported_variant_game):
        doc = self.report_doc(reported_variant_game)
        doc["axioms"]["symmetry_violations"] = None
        doc["provenance"].update(solver="monte-carlo", samples=1000, seed=7)
        report = parse_report(json.dumps(doc))
        assert report.axioms.symmetry_violations is None
        assert (report.provenance.samples, report.provenance.seed) == (1000, 7)
        assert json.loads(render_report(report, "json")) == doc
