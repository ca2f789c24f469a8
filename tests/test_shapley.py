import itertools
import random
from fractions import Fraction

import pytest

from riskshare import (
    AxiomReport,
    CapacityError,
    CoalitionGame,
    PlayerSet,
    ShapleyResult,
    check_axioms,
    game_add,
    sample_permutation,
    shapley_exact,
    shapley_monte_carlo,
    shapley_permutation_oracle,
)

from conftest import audit_passes, build_fix_count_game, build_joint_feature_game, random_game, scaled, unanimity


def additive_game(players: PlayerSet) -> CoalitionGame:
    """v(S) = |S|: one single-player term each, so every marginal is 1."""
    return CoalitionGame(players, terms=[(1 << k, 1) for k in range(players.n)])


class TestExact:
    def test_joint_feature_game(self, joint_feature_game):
        result = shapley_exact(joint_feature_game)
        assert result.phi == {"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1)}

    def test_unanimity_pair_in_three_player_game(self):
        players = PlayerSet(("1", "2", "3"))
        result = shapley_exact(unanimity(players, {"1", "2"}))
        assert result.phi == {"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(0)}

    def test_fix_count_table_as_written(self, fix_count_game):
        # brute-force over all 6 orderings gives (3/2, 1/2, 1)
        assert shapley_exact(fix_count_game).phi == {"A": Fraction(3, 2), "B": Fraction(1, 2), "C": Fraction(1)}

    def test_reported_variant(self, reported_variant_game):
        assert shapley_exact(reported_variant_game).phi == {"A": Fraction(7, 6), "B": Fraction(1, 6), "C": Fraction(2, 3)}

    def test_solver_and_audit_above_24_players(self):
        for n in (26, 40):
            rng = random.Random(n)
            players = PlayerSet(tuple(f"p{k}" for k in range(n)))
            last = players.players[-1]
            terms = []
            for _ in range(3 * n):
                mask = rng.randrange(1, 1 << (n - 1))  # the last player is null
                weight = Fraction(rng.randint(-6, 9), rng.choice((1, 2, 3, 5)))
                terms.append((mask, weight))
                if (mask ^ mask >> 1) & 1:  # mirrored, so p0 and p1 are interchangeable
                    terms.append((mask ^ 3, weight))
            game = CoalitionGame(players, terms=terms)
            closed_form = dict.fromkeys(players.players, Fraction(0))
            for mask, weight in terms:
                members = players.ids_of(mask)
                for p in members:
                    closed_form[p] += weight / len(members)
            result = shapley_exact(game)
            assert result.phi == closed_form
            assert check_axioms(game, result) == AxiomReport(Fraction(0), (), ())
            wrong = dict(closed_form, p0=closed_form["p0"] + 1, **{last: Fraction(-1)})
            report = check_axioms(game, ShapleyResult(players.players, wrong, "external"))
            assert report == AxiomReport(Fraction(0), (("p0", "p1"),), (last,))

    def test_shares_normalize_to_one(self, reported_variant_game):
        result = shapley_exact(reported_variant_game)
        share = result.share
        assert sum(share.values()) == 1
        assert share["A"] == Fraction(7, 12)
        assert share["B"] == Fraction(1, 12)
        assert share["C"] == Fraction(1, 3)

    def test_zero_game_has_undefined_shares(self):
        players = PlayerSet(("x", "y"))
        result = shapley_exact(CoalitionGame(players, table=[0, 0, 0, 0]))
        assert result.share is None


class TestOracle:
    def test_joint_feature_game(self, joint_feature_game):
        assert shapley_permutation_oracle(joint_feature_game).phi == {"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1)}

    def test_fix_count_table_cross_check(self, fix_count_game):
        assert shapley_permutation_oracle(fix_count_game).phi == shapley_exact(fix_count_game).phi

    def test_constant_marginal_player_gets_zero(self):
        players = PlayerSet(("a", "b"))
        # b never changes the value
        game = CoalitionGame(players, table=[0, 5, 0, 5])
        assert shapley_permutation_oracle(game).phi["b"] == 0

    def test_capacity(self):
        players = PlayerSet(tuple(f"p{k}" for k in range(10)))
        game = additive_game(players)
        with pytest.raises(CapacityError):
            shapley_permutation_oracle(game)


def test_oracle_equivalence_on_random_games():
    """Subset-sum and permutation enumeration agree exactly, game by game."""
    rng = random.Random(314159)
    for _ in range(200):
        game = random_game(rng, rng.randint(1, 6))
        assert shapley_exact(game).phi == shapley_permutation_oracle(game).phi


def test_efficiency_on_random_games():
    rng = random.Random(271828)
    for _ in range(100):
        game = random_game(rng, rng.randint(1, 8))
        result = shapley_exact(game)
        assert result.total == game.grand_value()


def test_symmetrized_pairs_get_equal_values():
    rng = random.Random(161803)
    for _ in range(60):
        n = rng.randint(2, 7)
        game = random_game(rng, n)
        i, j = rng.sample(range(n), 2)
        players = game.players
        vals = game.value_table()

        def swap(mask: int) -> int:
            bi, bj = mask >> i & 1, mask >> j & 1
            mask &= ~(1 << i) & ~(1 << j)
            return mask | (bi << j) | (bj << i)

        sym = CoalitionGame(
            players,
            table=[Fraction(vals[m] + vals[swap(m)], 2) for m in range(len(vals))],
        )
        result = shapley_exact(sym)
        assert result.phi[players.players[i]] == result.phi[players.players[j]]


def test_unanimity_closed_form_up_to_six_players():
    for n in range(1, 7):
        players = PlayerSet(tuple(f"p{k}" for k in range(n)))
        for req_mask in range(1, 1 << n):
            required = set(players.ids_of(req_mask))
            result = shapley_exact(unanimity(players, required))
            expected_share = Fraction(1, len(required))
            for p in players.players:
                assert result.phi[p] == (expected_share if p in required else 0)


class TestMonteCarlo:
    def test_null_player_is_exactly_zero(self):
        players = PlayerSet(("a", "b", "c"))
        # c contributes nothing anywhere
        table = [0, 2, 3, 6, 0, 2, 3, 6]
        game = CoalitionGame(players, table=table)
        result = shapley_monte_carlo(game, samples=50, seed=5)
        assert result.phi["c"] == 0
        assert result.standard_error["c"] == 0.0

    def test_estimates_telescope_to_grand_value(self, joint_feature_game):
        for samples in (1, 3, 10, 137):
            for seed in (0, 1, 99):
                result = shapley_monte_carlo(joint_feature_game, samples, seed)
                assert result.total == joint_feature_game.grand_value() == 2

    def test_close_to_exact_at_ten_thousand_samples(self, joint_feature_game):
        exact = shapley_exact(joint_feature_game)
        estimate = shapley_monte_carlo(joint_feature_game, 10_000, seed=7)
        for p in exact.players:
            assert abs(estimate.phi[p] - exact.phi[p]) < Fraction(5, 100)

    def test_same_seed_same_result(self, fix_count_game):
        a = shapley_monte_carlo(fix_count_game, 200, seed=3)
        b = shapley_monte_carlo(fix_count_game, 200, seed=3)
        assert a.phi == b.phi

    def test_method_records_provenance(self, fix_count_game):
        result = shapley_monte_carlo(fix_count_game, 50, seed=12)
        assert result.method == "monte-carlo"
        assert result.samples == 50
        assert result.seed == 12

    def test_rejects_nonpositive_samples(self, fix_count_game):
        with pytest.raises(ValueError):
            shapley_monte_carlo(fix_count_game, 0, seed=1)

    def test_term_backed_game_above_the_cap(self):
        players = PlayerSet(tuple(f"p{k}" for k in range(26)))
        game = additive_game(players)
        result = shapley_monte_carlo(game, samples=40, seed=9)
        # every marginal is exactly 1 for this additive game
        assert all(v == 1 for v in result.phi.values())


def test_sample_permutation_is_counter_based():
    # depends only on (seed, index, n); repeated calls agree
    assert sample_permutation(42, 0, 6) == sample_permutation(42, 0, 6)
    # distinct seeds decorrelate the first samples
    perms = {tuple(sample_permutation(s, 0, 5)) for s in range(40)}
    assert len(perms) > 10


def test_sample_permutation_is_uniformish():
    counts = {}
    for index in range(6000):
        perm = tuple(sample_permutation(123, index, 3))
        counts[perm] = counts.get(perm, 0) + 1
    assert set(counts) == set(itertools.permutations(range(3)))
    for c in counts.values():
        assert 800 < c < 1200  # 1000 expected per permutation


class TestAxioms:
    def test_exact_result_passes_everything(self, joint_feature_game):
        result = shapley_exact(joint_feature_game)
        report = check_axioms(joint_feature_game, result)
        assert audit_passes(report)
        assert report.efficiency_residual == 0
        assert report.symmetry_violations == ()
        assert report.null_player_violations == ()

    def test_external_values_fail_efficiency_against_count_table(self, fix_count_game):
        claimed = ShapleyResult(
            players=("A", "B", "C"),
            phi={"A": Fraction(7, 6), "B": Fraction(1, 6), "C": Fraction(2, 3)},
            method="external",
        )
        report = check_axioms(fix_count_game, claimed)
        assert not report.efficiency_ok
        assert report.efficiency_residual == -1

    def test_null_player_violation_detected(self):
        players = PlayerSet(("a", "b"))
        game = CoalitionGame(players, table=[0, 4, 0, 4])  # b is null
        bogus = ShapleyResult(players=("a", "b"), phi={"a": Fraction(3), "b": Fraction(1)}, method="external")
        report = check_axioms(game, bogus)
        assert report.null_player_violations == ("b",)

    def test_sampled_result_paying_a_null_player_fails_the_audit(self):
        players = PlayerSet(("a", "b"))
        game = CoalitionGame(players, table=[0, 4, 0, 4])  # b is null
        bogus = ShapleyResult(
            players=("a", "b"),
            phi={"a": Fraction(3), "b": Fraction(1)},
            method="monte-carlo",
            samples=10,
            seed=1,
        )
        assert check_axioms(game, bogus) == AxiomReport(Fraction(0), None, ("b",))

    def test_appended_null_player_gets_zero(self):
        rng = random.Random(55)
        inner = random_game(rng, 4)
        players = PlayerSet(inner.players.players + ("extra",))
        inner_vals = inner.value_table()
        game = CoalitionGame(players, table=[inner_vals[m & 0b1111] for m in range(32)])
        result = shapley_exact(game)
        assert result.phi["extra"] == 0
        assert audit_passes(check_axioms(game, result))

    def test_linearity_check_with_second_game(self, joint_feature_game):
        other = unanimity(joint_feature_game.players, {"1"})
        result = shapley_exact(joint_feature_game)
        report = check_axioms(joint_feature_game, result, w=other)
        assert report.linearity_ok is True

    def test_symmetry_violation_detected(self):
        players = PlayerSet(("i", "j"))
        game = CoalitionGame(players, table=[0, 1, 1, 2])
        bogus = ShapleyResult(players=("i", "j"), phi={"i": Fraction(2), "j": Fraction(0)}, method="external")
        report = check_axioms(game, bogus)
        assert ("i", "j") in report.symmetry_violations


def test_linearity_and_homogeneity_exact():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randint(1, 6)
        v = random_game(rng, n)
        w = CoalitionGame(
            v.players,
            table=[Fraction(0)] + [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range((1 << n) - 1)],
        )
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        phi_v = shapley_exact(v).phi
        phi_w = shapley_exact(w).phi
        phi_sum = shapley_exact(game_add(v, w)).phi
        phi_scaled = shapley_exact(scaled(v, c)).phi
        for p in v.players.players:
            assert phi_sum[p] == phi_v[p] + phi_w[p]
            assert phi_scaled[p] == c * phi_v[p]


def test_share_vector_invariant_under_positive_scaling():
    rng = random.Random(8)
    game = random_game(rng, 5, lo=0, hi=10)  # keep totals positive
    a, b = shapley_exact(game), shapley_exact(scaled(game, Fraction(7, 3)))
    if a.share is not None:
        assert a.share == b.share


def test_build_fix_count_game_helper_consistency():
    # guard against fixture drift: the two variants differ only in v(N)
    printed, reported = build_fix_count_game(3), build_fix_count_game(2)
    for mask in range(7):
        assert printed.value_of_mask(mask) == reported.value_of_mask(mask)
    assert printed.grand_value() - reported.grand_value() == 1


def test_joint_feature_helper_matches_fixture(joint_feature_game):
    assert build_joint_feature_game().value_table() == joint_feature_game.value_table()
