#!/usr/bin/env python3
"""From commit log to coalition game, two ways.

The evidence channel is a plain ``Satisfies: <leaf-id>`` trailer on commits
(reviewable in pull requests). This script streams the bundled log from its
file, derives the per-leaf author sets, emits a cherry-pick plan for one
coalition, and shows that the bundled rebuild evidence defines the exact same
game.
"""

from pathlib import Path

from riskshare import (
    Cycle,
    PlayerSet,
    cherry_pick_plan,
    derive_attribution,
    game_from_subset_results,
    leaf_coverage_game,
    parse_commit_log,
    shapley_exact,
)
from riskshare.documents import load_risk_model, load_subset_results

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "worked_example"


def commits(findings):
    """The bundled log's records, read from the file as a stream of (id, author, time, parents, trailers); the
    parser's warnings go to ``findings``."""
    with open(FIXTURES / "commits.log", "rb") as log:
        yield from parse_commit_log(log, {}, findings=findings)


# ---------------------------------------------------------------------------
# 1. Parse the log and scope the appraisal cycle
# ---------------------------------------------------------------------------

findings = []
ids = [commit for commit, *_ in commits(findings)]
for issue in findings:
    print("parser note:", issue.message)  # the release tag trailer is not attribution

base = ids[0]  # everything after the release tag counts
cycle = Cycle(from_commit=base)
print(f"\n{len(ids)} commits parsed; appraising work after {base[:10]}...")

# ---------------------------------------------------------------------------
# 2. Attribution: which authors addressed which leaf checks
# ---------------------------------------------------------------------------

model = load_risk_model(FIXTURES / "risk_model.json")
attribution = derive_attribution(commits([]), model.tree, cycle)  # its parser note was printed above
print("\nattribution:")
for leaf, authors in attribution.items():
    print(f"  {leaf}: {sorted(authors) or 'nobody yet'}")

team = PlayerSet(tuple(sorted(set().union(*attribution.values()))))
game = leaf_coverage_game(model.tree, attribution, team)
print("\ncontribution values from trailers:")
result = shapley_exact(game)
for p in result.players:
    print(f"  {p}: {result.phi[p]}")

# ---------------------------------------------------------------------------
# 3. Cherry-pick plans: what an external build harness would replay
# ---------------------------------------------------------------------------

# To evaluate v({bob, carol}) empirically, replay only their commits on a
# branch from the base, rebuild, and run the leaf checks. The plan is emitted
# as a document; executing it (and judging broken builds) stays external.
plan = cherry_pick_plan(commits([]), base, {"bob", "carol"})
print(f"\nplan for {plan.subset}: picks {len(plan.picks)} commit(s)")
print(plan.to_json())

# ---------------------------------------------------------------------------
# 4. The rebuild pathway defines the same game
# ---------------------------------------------------------------------------

# subset_results.json records what rebuilding each coalition's commits gave:
# the leaf checks that passed. The reader returns them as (subset, passing)
# pairs of ids, and game_from_subset_results counts each coalition's passes
# into a value table, as leaf_coverage_game counts its trailers. Trailer
# counting and rebuild counting must agree exactly.
roster, evidence = load_subset_results(FIXTURES / "subset_results.json")
rebuilt = game_from_subset_results(evidence, model.tree, PlayerSet(roster))
assert rebuilt.value_table() == game.value_table()
print("rebuild-evidence game == trailer game, coalition by coalition")
