"""The benchmark's closed-form oracle must agree with riskshare's permutation oracle.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
from riskshare.games import CoalitionGame, PlayerSet, leaf_coverage_game  # noqa: E402
from riskshare.risk import Control, LeafCondition, Threat, ThreatTree  # noqa: E402
from riskshare.shapley import shapley_permutation_oracle  # noqa: E402


def random_terms(rng, players):
    terms = {}
    for _ in range(rng.randint(1, 3 * len(players))):
        required = frozenset(rng.sample(players, rng.randint(1, len(players))))
        terms[required] = Fraction(rng.randint(0, 9), rng.randint(1, 7))
    return tuple(terms.items())


def test_closed_form_matches_permutation_oracle_on_dividend_tables():
    rng = random.Random(7)
    for _ in range(60):
        players = [f"p{k}" for k in range(rng.randint(1, 7))]
        terms = random_terms(rng, players)
        game = CoalitionGame(PlayerSet(players), table=oracle.table_from_terms(players, terms))
        assert shapley_permutation_oracle(game).phi == oracle.closed_form(players, terms)


def test_closed_form_matches_permutation_oracle_on_leaf_coverage():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        players = [f"dev{k}" for k in range(n)]
        leaves = [f"L{k}" for k in range(rng.randint(1, 12))]
        tree = ThreatTree((Threat("T", controls=(Control("C", leaves=tuple(LeafCondition(x) for x in leaves)),)),))
        attrib = gen.attribution(rng, leaves, players[:-1], rng.randint(1, len(leaves)), 3)
        normalized = rng.random() < 0.5
        game = leaf_coverage_game(tree, attrib, PlayerSet(players), normalized)
        weight = Fraction(1, len(leaves)) if normalized else Fraction(1)
        expected = oracle.closed_form(players, gen.coverage_terms(attrib, weight))
        assert shapley_permutation_oracle(game).phi == expected
        assert expected[players[-1]] == 0


def test_payments_conserve_the_budget_under_largest_remainder():
    rng = random.Random(3)
    for _ in range(200):
        players = [f"p{k}" for k in range(rng.randint(1, 9))]
        phi = {p: Fraction(rng.randint(0, 20), rng.randint(1, 9)) for p in players}
        phi[players[0]] += 1
        budget = rng.randint(0, 10**7)
        assert sum(oracle.payments(players, phi, budget, oracle.LARGEST_REMAINDER).values()) == budget
