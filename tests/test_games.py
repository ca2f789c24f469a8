import random
from fractions import Fraction

import pytest

from riskshare import (
    CoalitionGame,
    GameDefinitionError,
    PlayerSet,
    game_from_table,
    leaf_coverage_game,
)

from conftest import added, build_fix_count_game, build_joint_feature_game, build_three_fix_tree, scaled, unanimity, value

ABC = PlayerSet(("A", "B", "C"))

WORKED_ATTRIBUTION = {
    "U-46365-1": frozenset({"A"}),
    "U-45802-1": frozenset({"B", "C"}),
    "U-45801-1": frozenset({"A", "C"}),
}


class TestPlayerSet:
    def test_rejects_duplicates(self):
        with pytest.raises(GameDefinitionError):
            PlayerSet(("A", "A"))

    def test_rejects_empty(self):
        with pytest.raises(GameDefinitionError):
            PlayerSet(())

    @pytest.mark.parametrize("players", [("",), ("A", "", "C")])
    def test_rejects_an_empty_id(self, players):
        with pytest.raises(GameDefinitionError, match="^a player id must not be empty$"):
            PlayerSet(players)

    def test_mask_round_trip(self):
        mask = ABC.mask_of(["C", "A"])
        assert ABC.ids_of(mask) == ("A", "C")

    def test_unknown_player(self):
        with pytest.raises(GameDefinitionError, match="unknown player"):
            ABC.mask_of(["D"])

    @pytest.mark.parametrize(
        "subset, message",
        [
            (["A", "D"], "unknown player 'D'"),
            (iter(["E", "A", "D", "E"]), "unknown players 'D', 'E'"),
            (frozenset({"Z", "B", "Y", "X"}), "unknown players 'X', 'Y', 'Z'"),
        ],
        ids=["one", "iterator", "frozenset"],
    )
    def test_every_unknown_id_is_named_sorted(self, subset, message):
        with pytest.raises(GameDefinitionError) as error:
            ABC.mask_of(subset)
        assert str(error.value) == message


class TestCoalitionGameForms:
    @pytest.mark.parametrize("forms", [{}, {"table": [0] * 8, "terms": [(0b1, 1)]}], ids=["neither", "both"])
    def test_exactly_one_form(self, forms):
        with pytest.raises(GameDefinitionError, match="^provide exactly one of table or terms$"):
            CoalitionGame(ABC, **forms)

    def test_table_of_the_wrong_length(self):
        with pytest.raises(GameDefinitionError, match="^table has 4 entries, expected 8$"):
            CoalitionGame(ABC, table=[0, 1, 1, 2])

    def test_table_with_nonzero_empty_coalition(self):
        with pytest.raises(GameDefinitionError, match=r"^v\(empty set\) must be 0, got 1/2$"):
            CoalitionGame(ABC, table=["1/2"] + [1] * 7)


class TestGameFromTable:
    def test_joint_feature_table(self):
        game = build_joint_feature_game()
        assert value(game, ["1", "2"]) == 1
        assert value(game, ["3"]) == 1
        assert game.grand_value() == 2

    def test_nonzero_empty_coalition_rejected(self):
        with pytest.raises(GameDefinitionError, match="empty"):
            game_from_table(ABC, [([], 1)], default_zero=True)

    def test_fix_count_table(self):
        game = build_fix_count_game(3)
        assert value(game, ["A", "C"]) == 2
        assert game.grand_value() == 3

    def test_duplicate_entries_rejected(self):
        with pytest.raises(GameDefinitionError, match="duplicate"):
            game_from_table(ABC, [(["A"], 1), (["A"], 2)], default_zero=True)

    def test_missing_coalitions_listed(self):
        with pytest.raises(GameDefinitionError, match="missing coalitions"):
            game_from_table(ABC, [(["A"], 1)])

    def test_missing_coalitions_message_shows_eight_and_counts_the_rest(self):
        with pytest.raises(GameDefinitionError) as error:
            game_from_table(PlayerSet(("A", "B", "C", "D")), [(["A"], 1)])
        assert str(error.value) == (
            "missing coalitions: {B}, {A,B}, {C}, {A,C}, {B,C}, {A,B,C}, {D}, {A,D} (+6 more)"
        )

    def test_default_zero_fills_gaps(self):
        game = game_from_table(ABC, [(["A", "B", "C"], 5)], default_zero=True)
        assert value(game, ["A"]) == 0
        assert game.grand_value() == 5


class TestUnanimity:
    def test_strict_subset_gets_nothing(self):
        u = unanimity(ABC, {"B", "C"})
        assert value(u, ["B"]) == 0

    def test_superset_gets_one(self):
        u = unanimity(ABC, {"B", "C"})
        assert value(u, ["A", "B", "C"]) == 1

    def test_singleton(self):
        u = unanimity(ABC, {"B"})
        for subset in (["B"], ["A", "B"], ["B", "C"], ["A", "B", "C"]):
            assert value(u, subset) == 1
        assert value(u, ["A", "C"]) == 0

    def test_empty_required_set_rejected(self):
        with pytest.raises(GameDefinitionError, match="outside nonempty subset range"):
            unanimity(ABC, set())


class TestLeafCoverage:
    def test_worked_attribution_reproduces_fix_count_table(self):
        game = leaf_coverage_game(build_three_fix_tree(), WORKED_ATTRIBUTION, ABC)
        expected = build_fix_count_game(3)
        for mask in range(8):
            assert game.value_of_mask(mask) == expected.value_of_mask(mask)

    def test_empty_attribution_is_zero_game(self):
        game = leaf_coverage_game(build_three_fix_tree(), {}, ABC)
        assert all(game.value_of_mask(m) == 0 for m in range(8))

    def test_normalized_eq3_ratio(self):
        from riskshare.risk import Control, LeafCondition, Threat, ThreatTree

        tree = ThreatTree(
            threats=(
                Threat(
                    "T",
                    controls=(
                        Control("C1", leaves=(LeafCondition("f1"),)),
                        Control("C2", leaves=(LeafCondition("f2"),)),
                    ),
                ),
            )
        )
        players = PlayerSet(("1", "2", "3"))
        game = leaf_coverage_game(
            tree, {"f1": {"1", "2"}, "f2": {"3"}}, players, normalized=True
        )
        assert value(game, ["1", "2"]) == Fraction(1, 2)
        assert value(game, ["3"]) == Fraction(1, 2)
        assert game.grand_value() == 1

    def test_unknown_leaf_rejected(self):
        with pytest.raises(GameDefinitionError, match="unknown leaf"):
            leaf_coverage_game(build_three_fix_tree(), {"nope": {"A"}}, ABC)

    def test_unattributed_leaf_counts_for_nobody(self):
        partial = {"U-46365-1": frozenset({"A"})}
        game = leaf_coverage_game(build_three_fix_tree(), partial, ABC, normalized=True)
        assert game.grand_value() == Fraction(1, 3)  # v(N) < 1 is possible

    def test_monotone_in_coalition(self):
        game = leaf_coverage_game(build_three_fix_tree(), WORKED_ATTRIBUTION, ABC)
        for small in range(8):
            for big in range(8):
                if small & big == small:
                    assert game.value_of_mask(small) <= game.value_of_mask(big)

    def test_equals_sum_of_unanimity_games(self):
        coverage = leaf_coverage_game(build_three_fix_tree(), WORKED_ATTRIBUTION, ABC)
        total = added(added(unanimity(ABC, {"A"}), unanimity(ABC, {"B", "C"})), unanimity(ABC, {"A", "C"}))
        for mask in range(8):
            assert coverage.value_of_mask(mask) == total.value_of_mask(mask)

    def test_equals_unanimity_sum_at_random_sizes(self):
        from riskshare.risk import Control, LeafCondition, Threat, ThreatTree

        rng = random.Random(2024)
        for _ in range(20):
            n = rng.randint(1, 10)
            players = PlayerSet(tuple(f"p{k}" for k in range(n)))
            leaf_count = rng.randint(1, 12)
            leaves = tuple(LeafCondition(f"f{k}") for k in range(leaf_count))
            tree = ThreatTree(threats=(Threat("T", controls=(Control("C", leaves=leaves),)),))
            attribution = {}
            for leaf in leaves:
                if rng.random() < 0.8:  # leave some leaves unaddressed
                    size = rng.randint(1, n)
                    attribution[leaf.id] = set(rng.sample(players.players, size))
            coverage = leaf_coverage_game(tree, attribution, players)
            total = None
            for authors in attribution.values():
                u = unanimity(players, authors)
                total = u if total is None else added(total, u)
            for mask in range(1 << n):
                expected = 0 if total is None else total.value_of_mask(mask)
                assert coverage.value_of_mask(mask) == expected


class TestAlgebra:
    def test_add_zero_game(self):
        game = build_fix_count_game(3)
        zero = CoalitionGame(ABC, table=[0] * 8)
        combined = added(game, zero)
        for mask in range(8):
            assert combined.value_of_mask(mask) == game.value_of_mask(mask)

    def test_scale_reproduces_normalized_coverage(self):
        c_times = scaled(build_fix_count_game(3), Fraction(1, 3))
        normalized = leaf_coverage_game(
            build_three_fix_tree(), WORKED_ATTRIBUTION, ABC, normalized=True
        )
        for mask in range(8):
            assert c_times.value_of_mask(mask) == normalized.value_of_mask(mask)


class TestEvaluate:
    def test_empty_is_zero(self):
        assert value(build_fix_count_game(3), []) == 0

    def test_fix_count_pair(self):
        assert value(build_fix_count_game(3), ["A", "C"]) == 2

    def test_unordered_subset(self):
        game = build_joint_feature_game()
        assert value(game, ["3", "1"]) == 1

    def test_unknown_player(self):
        with pytest.raises(GameDefinitionError):
            value(build_fix_count_game(3), ["Z"])


def test_relabeling_permutes_values_consistently():
    """The bitmask encoding is an artifact of ordering; the game is not."""
    rng = random.Random(99)
    base_players = PlayerSet(("A", "B", "C", "D"))
    table = [Fraction(0)] + [Fraction(rng.randint(-9, 9)) for _ in range(15)]
    game = CoalitionGame(base_players, table=table)

    reordered = PlayerSet(("C", "A", "D", "B"))
    entries = [
        (base_players.ids_of(mask), game.value_of_mask(mask)) for mask in range(16)
    ]
    regame = game_from_table(reordered, entries)
    for mask in range(16):
        subset = base_players.ids_of(mask)
        assert value(regame, subset) == value(game, subset)
