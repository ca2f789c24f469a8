#!/usr/bin/env python3
"""End to end: risk model -> avoided loss -> budget -> shares -> payments.

Uses the bundled fixtures (three developers who fixed three verified
vulnerabilities) and produces the full auditable report in markdown. This is
the library-level equivalent of `riskshare payout --config ...`.
"""

from fractions import Fraction
from pathlib import Path

from riskshare import (
    Provenance,
    allocate_payments,
    check_axioms,
    compute_budget,
    render_report,
    risk_delta,
    shapley_exact,
)
from riskshare.documents import load_coalition_game, load_risk_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "worked_example"

# ---------------------------------------------------------------------------
# 1. Risk side: how much loss did the team's work avoid?
# ---------------------------------------------------------------------------

model = load_risk_model(FIXTURES / "risk_model.json")
validation = model.validate()
assert validation.ok, [str(i) for i in validation.issues]

delta = risk_delta(model.assessments, model.scales, mode="sum")
print("avoided loss:", delta, "USD")

# Company policy: pay out 1% of the *most conservative* end of the range.
fraction = Fraction(1, 100)
budget = compute_budget(delta, fraction, "lower")
print("bonus budget:", budget)

# ---------------------------------------------------------------------------
# 2. Contribution side: who made the avoided loss happen?
# ---------------------------------------------------------------------------

game = load_coalition_game(FIXTURES / "coalition_table.json")
result = shapley_exact(game)
print("\ncontribution values:")
for p in result.players:
    print(f"  {p}: phi = {result.phi[p]}, share = {result.share[p]}")

audit = check_axioms(game, result)
passed = audit.efficiency_ok and not audit.symmetry_violations and not audit.null_player_violations
print("audit:", "all pass" if passed else "VIOLATIONS", f"(residual {audit.efficiency_residual})")

# ---------------------------------------------------------------------------
# 3. Money side: split the budget, publish the trail
# ---------------------------------------------------------------------------

report = allocate_payments(
    result,
    budget,
    "per-recipient",
    anchor="lower",
    fraction=fraction,
    provenance=Provenance(
        game_source=game.label,
        delta=delta,
        solver=result.method,
    ),
    axioms=audit,
)

print("\npayments:")
for row in report.payouts:
    print(f"  {row.player}: {row.payment}")
print("residual:", report.residual_minor, "minor unit(s) --",
      "per-recipient rounding is honest about drift;" ,
      "largest-remainder conserves exactly")

print("\n" + "=" * 60)
print(render_report(report, "markdown"))
