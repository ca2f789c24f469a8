#!/usr/bin/env python3
"""Building coalition games: explicit tables, unanimity terms, leaf coverage.

The value function v answers one question per coalition S: how much security
did the members of S deliver on their own? Three constructions are shown,
ending with the identity that leaf coverage is just a sum of unanimity games.
"""

from riskshare import (
    CoalitionGame,
    Control,
    LeafCondition,
    PlayerSet,
    Threat,
    ThreatTree,
    game_from_table,
    leaf_coverage_game,
)

team = PlayerSet(("ana", "ben", "cho"))

# ---------------------------------------------------------------------------
# 1. An explicit table (e.g. hand-assessed by a review board)
# ---------------------------------------------------------------------------

table = game_from_table(
    team,
    [
        ([], 0),
        (["ana"], 1),            # ana fixed one issue alone
        (["ben"], 0),            # ben's commits only work with help
        (["cho"], 0),
        (["ana", "ben"], 1),
        (["ana", "cho"], 2),
        (["ben", "cho"], 1),     # ben + cho jointly fixed one issue
        (["ana", "ben", "cho"], 3),
    ],
)
print("v({ana,cho}) =", table.value_of_mask(team.mask_of(["ana", "cho"])))
print("v(everyone)  =", table.grand_value())

# ---------------------------------------------------------------------------
# 2. Unanimity games: the pull-request pattern
# ---------------------------------------------------------------------------


def unanimity(ids):
    """The game worth 1 on every coalition that contains all of ``ids``: one term of weight 1."""
    return CoalitionGame(team, terms=[(team.mask_of(ids), 1)])


# A reviewed change involving exactly {ben, cho} counts only when both are in
# the coalition; supersets inherit the credit, proper subsets get nothing.
upload_fix = unanimity(["ben", "cho"])
for coalition in ([], ["ben"], ["ben", "cho"], ["ana", "ben", "cho"]):
    print(f"  upload_fix v({coalition}) = {upload_fix.value_of_mask(team.mask_of(coalition))}")

# ---------------------------------------------------------------------------
# 3. Leaf coverage: the threat tree meets the attribution map
# ---------------------------------------------------------------------------

tree = ThreatTree(
    threats=(
        Threat(
            "T1",
            "account takeover",
            controls=(
                Control("C-name", "verify user names", (LeafCondition("chk-name"),)),
                Control("C-upld", "verify uploads", (LeafCondition("chk-upload"),)),
                Control("C-qry", "sanitize queries", (LeafCondition("chk-query"),)),
            ),
        ),
    )
)

attribution = {
    "chk-name": {"ana"},
    "chk-upload": {"ben", "cho"},
    "chk-query": {"ana", "cho"},
}

coverage = leaf_coverage_game(tree, attribution, team)
print("\nleaf coverage (raw counts):")
for mask in range(8):
    members = ", ".join(team.ids_of(mask))  # roster order, so the output never varies
    print(f"  v({{{members}}}) = {coverage.value_of_mask(mask)}")

# The same game, normalized by the tree's leaf count, is bounded by 1:
normalized = leaf_coverage_game(tree, attribution, team, normalized=True)
print("normalized grand value:", normalized.grand_value())

# ---------------------------------------------------------------------------
# 4. The decomposition identity
# ---------------------------------------------------------------------------

# Coverage = sum of one unanimity game per addressed leaf; normalization
# scales every term by one factor. Both identities hold exactly, coalition by
# coalition. Games add by their dividends, so the sum is one list of terms.
as_sum = CoalitionGame(team, terms=[(team.mask_of(ids), 1) for ids in (["ana"], ["ben", "cho"], ["ana", "cho"])])
scaled = CoalitionGame(team, terms=[(mask, d / tree.leaf_count) for mask, d in as_sum.terms])
for mask in range(8):
    assert coverage.value_of_mask(mask) == as_sum.value_of_mask(mask)
    assert normalized.value_of_mask(mask) == scaled.value_of_mask(mask)
print("\ncoverage == sum of unanimity games (exactly), normalization is a scalar")
