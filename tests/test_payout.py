import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import (
    AxiomReport,
    CoalitionGame,
    Interval,
    Money,
    PayoutError,
    PlayerSet,
    Provenance,
    ShapleyResult,
    allocate_payments,
    check_axioms,
    compute_budget,
    game_scale,
    parse_report,
    render_report,
    shapley_exact,
    shapley_monte_carlo,
)

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
    scaled_game = game_scale(reported_variant_game, Fraction(5, 9))
    scaled = allocate_payments(shapley_exact(scaled_game), budget, "largest-remainder")
    assert [r.payment for r in base.payouts] == [r.payment for r in scaled.payouts]
    assert [r.share for r in base.payouts] == [r.share for r in scaled.payouts]


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

    def test_single_player_report_renders(self):
        report = allocate_payments(result_from_phi([Fraction(1)]), Money(500))
        text = render_report(report, "markdown")
        assert "| p0 |" in text

    def test_unknown_format_rejected(self, reported_variant_game):
        from riskshare import DocumentError

        with pytest.raises(DocumentError):
            render_report(self.make_report(reported_variant_game), "xml")
