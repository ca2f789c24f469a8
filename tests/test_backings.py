"""A game given as terms and the same game given as its value table must be indistinguishable.

A table is converted to Harsanyi dividends by the Moebius transform, so both
forms reach the one path of the exact solver, the axiom audit and the sampler.
Results must agree bit for bit, down to the violation lists of a deliberately
wrong value vector, and must equal those recorded on dense tables before
tables were converted.
"""

import random
from fractions import Fraction

import pytest

from riskshare import (
    AxiomReport,
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
    leaf_coverage_game,
    shapley_exact,
    shapley_monte_carlo,
)

from conftest import audit_passes, random_game, scaled


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
        assert sorted(as_table(game).terms) == sorted(game.terms)  # the dividends are unique
        assert shapley_exact(game).phi == shapley_exact(as_table(game)).phi


def test_sampler_agrees_across_backings():
    for rng, game in random_games(seed=13, count=40):
        samples, seed = rng.randint(1, 40), rng.randrange(1000)
        sampled = shapley_monte_carlo(game, samples, seed)
        from_table = shapley_monte_carlo(as_table(game), samples, seed)
        assert sampled.phi == from_table.phi
        assert sampled.standard_error == from_table.standard_error


def test_sampler_above_the_cap_matches_recorded_estimates():
    """Estimates for a 30-player term game, as recorded before the term sampler existed."""
    players = PlayerSet(tuple(f"p{k}" for k in range(30)))
    terms = [
        (0b111, 3),
        (1 << 29 | 1 << 5, Fraction(1, 2)),
        (1 << 12 | 1 << 17 | 1 << 23 | 1 << 28, Fraction(-2, 3)),
        (1 << 8, Fraction(5, 4)),
        (1 << 2 | 1 << 12, 1),
    ]
    result = shapley_monte_carlo(CoalitionGame(players, terms=terms), 60, seed=30)
    nonzero = {p: str(v) for p, v in result.phi.items() if v}
    assert nonzero == {
        "p0": "17/20", "p1": "19/20", "p2": "101/60", "p5": "7/24", "p8": "5/4",
        "p12": "13/36", "p17": "-8/45", "p23": "-1/6", "p28": "-1/6", "p29": "5/24",
    }
    assert result.standard_error["p2"] == 0.2273548045595449
    assert result.standard_error["p17"] == 0.038381135074522024
    assert result.standard_error["p8"] == 0.0  # a one-player term: the same marginal every time


def test_value_table_leaves_the_dividends_unchanged():
    _, game = next(random_games(seed=5, count=1))
    terms, expected = game.terms, shapley_exact(game).phi
    assert game.value_table() == game.value_table()
    assert game.terms == terms
    assert shapley_exact(game).phi == expected


def test_axiom_audit_agrees_across_backings():
    violations = 0
    for rng, game in random_games(seed=23, count=40):
        table = as_table(game)
        correct = shapley_exact(game)
        assert check_axioms(game, correct) == check_axioms(table, correct)
        assert audit_passes(check_axioms(game, correct))
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
        total, c_times = game_add(v, w), scaled(v, c)
        assert total.value_table() == game_add(as_table(v), as_table(w)).value_table()
        assert c_times.value_table() == scaled(as_table(v), c).value_table()
        assert shapley_exact(total).phi == shapley_exact(as_table(total)).phi
        correct = shapley_exact(v)
        assert check_axioms(v, correct, w) == check_axioms(as_table(v), correct, as_table(w))


def test_moebius_round_trip_on_dense_tables():
    rng = random.Random(41)
    for n in range(1, 11):
        players = PlayerSet(tuple(f"p{k}" for k in range(n)))
        zero = [Fraction(0)] * (1 << n)
        assert CoalitionGame(players, table=zero).terms == ()
        assert CoalitionGame(players, table=zero).value_table() == tuple(zero)
        for _ in range(3):
            game = random_game(rng, n)
            table = game.value_table()
            assert CoalitionGame(players, table=table).value_table() == table
            assert [game.value_of_mask(m) for m in range(1 << n)] == list(table)


def structured(game: CoalitionGame) -> CoalitionGame:
    """The dense table symmetrized over p0 and p1, with the last player made null."""
    vals = game.value_table()
    last = 1 << (game.n - 1)

    def swap(mask: int) -> int:
        return mask ^ 3 if (mask ^ mask >> 1) & 1 else mask

    table = [(vals[m & ~last] + vals[swap(m) & ~last]) / 2 for m in range(1 << game.n)]
    return CoalitionGame(game.players, table=table)


#: Exact values of ``structured(random_game(rng, n))``, rng = Random(2718), as
#: recorded when tables were solved by the subset-sum formula on the table.
DENSE_PHI = {
    3: "-7/4 -7/4 0",
    6: "-605743/1663200 -605743/1663200 -3479453/1663200 -2573269/831600 -5249/61600 0",
    9: (
        "-5512369/7761600 -5512369/7761600 -9820733/5821200 2623843/5821200 -209263/117600 "
        "5803271/3880800 -1504793/431200 -1859339/5821200 0"
    ),
    12: (
        "129188959/139708800 129188959/139708800 34500947/69854400 1618829/1058400 "
        "17274227/34927200 407587/323400 -6052639/17463600 93433/78400 2003777/2182950 "
        "-12079363/69854400 7165531/11642400 0"
    ),
}


def test_dense_tables_match_recorded_values_and_audits():
    rng = random.Random(2718)
    for n, recorded in DENSE_PHI.items():
        game = structured(random_game(rng, n))
        result = shapley_exact(game)
        assert " ".join(str(result.phi[p]) for p in result.players) == recorded
        assert check_axioms(game, result) == AxiomReport(Fraction(0), (), ())
        phi = dict(result.phi)
        phi["p0"] += Fraction(1, 3)
        phi[f"p{n - 1}"] -= 1
        wrong = ShapleyResult(players=result.players, phi=phi, method=result.method)
        assert check_axioms(game, wrong) == AxiomReport(
            Fraction(-2, 3), (("p0", "p1"),), (f"p{n - 1}",)
        )


def test_sampler_on_a_dense_table_matches_recorded_estimates():
    """Estimates for a dense 6-player table, as recorded when tables were sampled by walking them."""
    result = shapley_monte_carlo(random_game(random.Random(66), 6), 200, seed=6)
    assert {p: str(v) for p, v in result.phi.items()} == {
        "p0": "487241/462000", "p1": "315187/184800", "p2": "9581/7000",
        "p3": "37631/10500", "p4": "-1104293/924000", "p5": "37819/38500",
    }
    assert result.standard_error == {
        "p0": 0.538114215743635, "p1": 0.6858839804218412, "p2": 0.5775865190062544,
        "p3": 0.678147466123275, "p4": 0.5460677778755432, "p5": 0.4118348338558929,
    }
