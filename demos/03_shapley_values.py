#!/usr/bin/env python3
"""Splitting team credit: exact solvers, the axiom audit, and sampling.

The running example is a three-person team where 1 and 2 only deliver a
security feature together while 3 delivers one alone. The split should, and
does, give the collaborators half credit each and the solo contributor full
credit -- and the axioms say *why* that is the only fair answer.
"""

from fractions import Fraction

from riskshare import (
    PlayerSet,
    ShapleyResult,
    check_axioms,
    game_from_table,
    shapley_exact,
    shapley_monte_carlo,
    shapley_permutation_oracle,
)

team = PlayerSet(("1", "2", "3"))
game = game_from_table(
    team,
    [
        ([], 0),
        (["1"], 0),        # partial work, not functional alone
        (["2"], 0),        # the complementary half, also not functional alone
        (["3"], 1),        # a feature delivered single-handedly
        (["1", "2"], 1),   # together, 1 and 2 deliver theirs
        (["1", "3"], 1),
        (["2", "3"], 1),
        (["1", "2", "3"], 2),
    ],
)

# ---------------------------------------------------------------------------
# 1. Two exact routes to the same values
# ---------------------------------------------------------------------------

subset_route = shapley_exact(game)               # weighted subset sums
permutation_route = shapley_permutation_oracle(game)  # all 3! orderings

print("phi via subset sums :", [str(subset_route.phi[p]) for p in team.players])
print("phi via permutations:", [str(permutation_route.phi[p]) for p in team.players])
assert subset_route.phi == permutation_route.phi

share = subset_route.share
print("normalized shares   :", [str(share[p]) for p in team.players])

# ---------------------------------------------------------------------------
# 2. The audit: what makes this split defensible
# ---------------------------------------------------------------------------

audit = check_axioms(game, subset_route)
print("\naudit of the exact result:")
print("  efficiency residual:", audit.efficiency_residual, "(payout equals v(N))")
print("  symmetry violations:", audit.symmetry_violations or "none")
print("  null players paid  :", audit.null_player_violations or "none")

# The audit also catches claims that do NOT fit the game. Suppose someone
# asserts values summing to 2 for a game whose grand coalition is worth 3:
claimed = ShapleyResult(
    players=("1", "2", "3"),
    phi={"1": Fraction(7, 6), "2": Fraction(1, 6), "3": Fraction(2, 3)},
    method="external",
)
bigger = game_from_table(
    team,
    [([], 0), (["1"], 1), (["2"], 0), (["3"], 0),
     (["1", "2"], 1), (["1", "3"], 2), (["2", "3"], 1), (["1", "2", "3"], 3)],
)
bad = check_axioms(bigger, claimed)
print("\nauditing a mismatched claim:")
print("  efficiency:", "pass" if bad.efficiency_ok else "FAIL", "residual", bad.efficiency_residual)

# ---------------------------------------------------------------------------
# 3. Sampling for teams too large to enumerate
# ---------------------------------------------------------------------------

# Permutations are derived from (seed, sample index), so estimates are
# reproducible: the same seed always gives the same estimate.
exact = shapley_exact(game)
print("\nsampled estimates converge (player 1, exact = 1/2):")
for samples in (10, 100, 1_000, 10_000):
    estimate = shapley_monte_carlo(game, samples, seed=2024)
    err = estimate.phi["1"] - exact.phi["1"]
    se = estimate.standard_error["1"]
    print(f"  {samples:>6} samples: {float(estimate.phi['1']):.4f} "
          f"(error {float(err):+.4f}, stderr {se:.4f})")
    # the telescoping identity holds at every sample count, exactly:
    assert estimate.total == game.grand_value()

same = shapley_monte_carlo(game, 1_000, seed=2024)
assert same.phi == shapley_monte_carlo(game, 1_000, seed=2024).phi
print("same seed, same estimate: confirmed")
