"""A term-backed game and its materialized table must be indistinguishable.

The exact solver and the axiom audit take a closed-form path on Harsanyi
dividends and a subset scan on tables; both must give equal results, down to
the violation lists of a deliberately wrong value vector.
"""

import random
from fractions import Fraction

import pytest

from riskshare import (
    CoalitionGame,
    Control,
    GameDefinitionError,
    LeafCondition,
    PlayerSet,
    ShapleyResult,
    Threat,
    ThreatTree,
    check_axioms,
    game_add,
    game_scale,
    leaf_coverage_game,
    shapley_exact,
)


def random_coverage_game(rng: random.Random, n: int) -> CoalitionGame:
    players = PlayerSet(tuple(f"p{k}" for k in range(n)))
    leaves = tuple(LeafCondition(f"f{k}") for k in range(rng.randint(1, 14)))
    tree = ThreatTree(threats=(Threat("T", controls=(Control("C", leaves=leaves),)),))
    active = players.players[: rng.randint(1, n)]  # the rest stay idle: null players
    attribution = {
        leaf.id: set(rng.sample(active, rng.randint(1, min(3, len(active)))))
        for leaf in leaves
        if rng.random() < 0.8
    }
    return leaf_coverage_game(tree, attribution, players, normalized=rng.random() < 0.5)


def random_dividend_game(rng: random.Random, n: int) -> CoalitionGame:
    """Signed dividends with duplicate masks, zero weights and mirrored pairs."""
    players = PlayerSet(tuple(f"p{k}" for k in range(n)))
    terms = []
    for _ in range(rng.randint(0, 2 * n)):
        mask = rng.randrange(1, 1 << n)
        weight = Fraction(rng.randint(-6, 9), rng.choice((1, 2, 3, 5)))
        terms.append((mask, weight))
        if n >= 2 and rng.random() < 0.5:  # mirror over a pair so it is interchangeable
            i, j = rng.sample(range(n), 2)
            if (mask >> i ^ mask >> j) & 1:
                terms.append((mask ^ (1 << i | 1 << j), weight))
    return CoalitionGame(players, terms=terms, label="dividends")


def random_games(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        n = 12 if k % 10 == 0 else rng.randint(1, 9)
        build = random_coverage_game if k % 2 else random_dividend_game
        yield rng, build(rng, n)


def as_table(game: CoalitionGame) -> CoalitionGame:
    return CoalitionGame(game.players, table=game.value_table())


def perturbed(result: ShapleyResult, rng: random.Random) -> ShapleyResult:
    phi = dict(result.phi)
    for player in rng.sample(result.players, rng.randint(1, min(3, len(result.players)))):
        phi[player] += Fraction(rng.choice((-1, 1)), rng.randint(1, 4))
    return ShapleyResult(players=result.players, phi=phi, method=result.method)


def test_terms_merge_duplicates_and_drop_zeros():
    game = CoalitionGame(PlayerSet(("A", "B")), terms=[(1, 2), (3, Fraction(1, 2)), (1, -2), (3, 1)])
    assert game.terms == ((3, Fraction(3, 2)),)
    assert [game.value_of_mask(m) for m in range(4)] == [0, 0, 0, Fraction(3, 2)]


@pytest.mark.parametrize("mask", [0, 4, -1])
def test_term_mask_outside_nonempty_subsets_rejected(mask):
    with pytest.raises(GameDefinitionError, match="term mask"):
        CoalitionGame(PlayerSet(("A", "B")), terms=[(mask, 1)])


def test_exact_solver_agrees_across_backings():
    for _, game in random_games(seed=11, count=40):
        assert game.terms is not None
        assert shapley_exact(game).phi == shapley_exact(as_table(game)).phi


def test_term_path_ignores_a_cached_table():
    _, game = next(random_games(seed=5, count=1))
    expected = shapley_exact(game).phi
    game.value_table()
    assert game.materialized and game.terms is not None
    assert shapley_exact(game).phi == expected


def test_axiom_audit_agrees_across_backings():
    violations = 0
    for rng, game in random_games(seed=23, count=40):
        table = as_table(game)
        correct = shapley_exact(game)
        assert check_axioms(game, correct) == check_axioms(table, correct)
        assert check_axioms(game, correct).all_ok
        wrong = perturbed(correct, rng)
        report = check_axioms(game, wrong)
        assert report == check_axioms(table, wrong)
        violations += len(report.symmetry_violations) + len(report.null_player_violations)
    assert violations > 0  # the perturbations did exercise the violation lists


def test_game_algebra_keeps_terms_and_agrees_across_backings():
    rng = random.Random(31)
    for _, v in random_games(seed=37, count=20):
        w = (random_coverage_game if rng.random() < 0.5 else random_dividend_game)(rng, v.n)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        total, scaled = game_add(v, w), game_scale(v, c)
        assert total.terms is not None and scaled.terms is not None
        assert total.value_table() == game_add(as_table(v), as_table(w)).value_table()
        assert scaled.value_table() == game_scale(as_table(v), c).value_table()
        assert shapley_exact(total).phi == shapley_exact(as_table(total)).phi
        correct = shapley_exact(v)
        assert check_axioms(v, correct, w) == check_axioms(as_table(v), correct, as_table(w))
