import dataclasses
import json
import random
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

from conftest import scaled

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


class TestAllocate:
    def test_reported_shares_reproduce_published_payments(self):
        result = result_from_phi([Fraction(7, 6), Fraction(1, 6), Fraction(2, 3)])
        report = allocate_payments(result, Money(2125900), "per-recipient")
        assert [row.payment.amount_minor for row in report.payouts] == [1240108, 177158, 708633]
        assert report.residual_minor == -1

    def test_largest_remainder_conserves_and_breaks_tie_by_id(self):
        # all three dropped fractions are exactly 1/3; the first player id wins
        result = result_from_phi([Fraction(7, 6), Fraction(1, 6), Fraction(2, 3)])
        report = allocate_payments(result, Money(2125900), "largest-remainder")
        assert [row.payment.amount_minor for row in report.payouts] == [1240109, 177158, 708633]
        assert report.residual_minor == 0

    def test_single_player_gets_everything(self):
        result = result_from_phi([Fraction(5)])
        for mode in ("per-recipient", "largest-remainder"):
            report = allocate_payments(result, Money(123457), mode)
            assert report.payouts[0].payment == Money(123457)
            assert report.residual_minor == 0

    def test_negative_contribution_rejected(self):
        result = result_from_phi([Fraction(2), Fraction(-1)])
        with pytest.raises(PayoutError, match="negative contribution"):
            allocate_payments(result, Money(100))

    def test_zero_total_pays_nobody_with_notice(self):
        result = result_from_phi([0, 0, 0])
        report = allocate_payments(result, Money(100))
        assert all(row.payment.amount_minor == 0 for row in report.payouts)
        assert "zero" in report.notice

    def test_unknown_rounding_mode(self):
        with pytest.raises(PayoutError):
            allocate_payments(result_from_phi([1]), Money(1), "stochastic")

    def test_default_provenance_records_solver(self):
        result = result_from_phi([1, 1], method="exact-subset")
        report = allocate_payments(result, Money(100))
        assert report.provenance.solver == "exact-subset"


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
        report = allocate_payments(result, budget, "largest-remainder")
        assert sum(row.payment.amount_minor for row in report.payouts) == budget.amount_minor
        assert report.residual_minor == 0


def test_per_recipient_residual_bound_fuzz():
    rng = random.Random(2000003)
    for _ in range(300):
        result = random_share_result(rng)
        if result.total == 0:
            continue
        budget = Money(rng.randint(0, 10**7))
        report = allocate_payments(result, budget, "per-recipient")
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
            report = allocate_payments(result, budget, mode)
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
    report = allocate_payments(result, Money(budget_minor), "largest-remainder")
    assert sum(row.payment.amount_minor for row in report.payouts) == budget_minor or result.total == 0
    if result.total == 0:
        assert all(row.payment.amount_minor == 0 for row in report.payouts)


def test_scale_invariance_of_payments(reported_variant_game):
    """Replacing v by c*v changes phi but not shares, hence not payments."""
    budget = Money(2125900)
    base = allocate_payments(shapley_exact(reported_variant_game), budget, "largest-remainder")
    scaled_game = scaled(reported_variant_game, Fraction(5, 9))
    other = allocate_payments(shapley_exact(scaled_game), budget, "largest-remainder")
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
    pay_raw = allocate_payments(shapley_exact(raw), budget, "per-recipient")
    pay_norm = allocate_payments(shapley_exact(norm), budget, "per-recipient")
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
            text = render_report(allocate_payments(result, Money(100), axioms=axioms), "markdown")
            assert "- symmetry: not audited (sampled estimate)" in text
            assert "- null player: pass" in text
            assert "FAIL" not in text

    def failed_audit_report(self):
        """A report whose result breaks every audited axiom: a and b are interchangeable, z contributes nothing."""
        v = CoalitionGame(PlayerSet(("a", "b", "z")), terms=[(0b011, 2)])
        result = ShapleyResult(players=("a", "b", "z"), phi={"a": Fraction(2), "b": Fraction(0), "z": Fraction(1)},
                               method="external")
        axioms = dataclasses.replace(check_axioms(v, result), linearity_ok=False)  # the exact solver is linear
        provenance = Provenance("table", delta=Interval(1, 2), solver=result.method)
        return allocate_payments(result, Money(300), provenance=provenance, axioms=axioms)

    def test_markdown_audit_lists_each_failure(self):
        text = render_report(self.failed_audit_report(), "markdown")
        assert text.endswith(
            "## Fairness audit\n\n"
            "- efficiency: FAIL (residual 1)\n"
            "- symmetry: FAIL (equal contributors paid differently: a/b)\n"
            "- null player: FAIL (zero contributors paid: z)\n"
            "- linearity: FAIL\n"
        )

    def test_json_round_trip_keeps_symmetry_pairs(self):
        report = self.failed_audit_report()
        assert report.axioms.symmetry_violations == (("a", "b"),)
        assert parse_report(render_report(report, "json")) == report

    def test_single_player_report_renders(self):
        report = allocate_payments(result_from_phi([Fraction(1)]), Money(500))
        text = render_report(report, "markdown")
        assert "| p0 |" in text

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
            (("axioms", "symmetry_violations"), [["A"]], "axioms.symmetry_violations[0]: expected two player ids, got 1"),
            (("axioms", "linearity"), "ok", "axioms.linearity: expected one of pass, fail, got 'ok'"),
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
            "seed-string", "symmetry-pair", "linearity", "efficiency-residual-integer",
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
