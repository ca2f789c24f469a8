import importlib.util
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare import (
    AxiomReport,
    CapacityError,
    CoalitionGame,
    PlayerSet,
    ShapleyResult,
    check_axioms,
    sample_permutation,
    shapley_exact,
    shapley_monte_carlo,
    shapley_permutation_oracle,
)

from conftest import added, audit_passes, build_fix_count_game, build_joint_feature_game, random_game, scaled, unanimity


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


# Literal sampler output, recorded from the original per-dividend sampler: any
# change to the stream or to the crediting rule shows here. The benchmark's
# oracle checks only Hoeffding bounds, so these pins are what hold sampled
# estimates fixed from one version to the next.


def _glove_game() -> CoalitionGame:
    """L pairs with either right glove; the grand coalition has a -1 dividend."""
    return CoalitionGame(PlayerSet(("L", "R1", "R2")), table=[0, 0, 0, 1, 0, 1, 0, 1])


def _signed_table_game() -> CoalitionGame:
    """A dense 10-player table with values in sevenths; about half its dividends are negative."""
    players = PlayerSet(tuple(f"p{k}" for k in range(10)))
    table = [Fraction((mask * 2654435761) % 41 - 20, 7) if mask else 0 for mask in range(1 << 10)]
    return CoalitionGame(players, table=table)


def _coverage_game() -> CoalitionGame:
    """40 developers, 120 leaves with two or three authors each, weight 1/120 per leaf."""
    players = PlayerSet(tuple(f"d{k:02d}" for k in range(40)))
    terms = []
    for leaf in range(120):
        authors = {leaf * 7 % 40, (leaf * leaf + 3) % 40}
        if leaf % 3 == 0:
            authors.add((leaf * 13 + 5) % 40)
        terms.append((sum(1 << a for a in authors), Fraction(1, 120)))
    return CoalitionGame(players, terms=terms)


@pytest.mark.parametrize(
    "game, samples, seed, phi, standard_error",
    [
        (_glove_game(), 25, 11,
         [
            "16/25", "6/25", "3/25",
         ],
         [
            "0.09797958971132711", "0.08717797887081347", "0.066332495807108",
         ]),
        (_signed_table_game(), 200, -7,
         [
            "701/1400", "139/1400", "19/56", "-3/20", "-53/200", "99/700", "407/700", "-47/1400",
            "31/350", "177/1400",
         ],
         [
            "0.19481273664402038", "0.16836578858323578", "0.19565697176420385",
            "0.1050696766927155", "0.15319854896701673", "0.1693914315463595", "0.1952216330262498",
            "0.1462587743134947", "0.18386778768275042", "0.18579206913797144",
         ]),
        (_coverage_game(), 500, 2024,
         [
            "149/10000", "167/12000", "11/800", "343/10000", "6023/60000", "443/30000", "901/60000",
            "3343/60000", "69/5000", "241/20000", "259/20000", "143/10000", "2129/20000",
            "277/20000", "89/6000", "26/1875", "901/60000", "71/5000", "69/5000", "1663/30000",
            "889/60000", "797/60000", "881/60000", "373/10000", "407/30000", "817/60000",
            "271/20000", "3517/60000", "1139/20000", "827/60000", "1/75", "439/30000", "877/60000",
            "71/5000", "847/60000", "229/15000", "7/500", "301/20000", "863/60000", "427/7500",
         ],
         [
            "0.0006096912717874413", "0.0006149237859483484", "0.0006092852929848269",
            "0.0012572736494553542", "0.0033484103747014266", "0.0006033768995589724",
            "0.0006128490398696208", "0.0019193623400686583", "0.0005890978652243156",
            "0.0006032694083651595", "0.000580701190104534", "0.0006250522133612075",
            "0.0032818952867735883", "0.0005968535288800258", "0.0005959019106052732",
            "0.0006032717152442309", "0.0006078326972468257", "0.0005922455934993287",
            "0.0006090755759555314", "0.002013747562973983", "0.0006148803316998269",
            "0.0006035092765598451", "0.00060537330844202", "0.0013113917742841798",
            "0.000611350735392993", "0.0005954865308441776", "0.0006077557630070404",
            "0.0020390873991836854", "0.0019681570782255", "0.0006182173717802461",
            "0.0005940775019969871", "0.0006256219350464164", "0.0006113357110394198",
            "0.0005992535994214016", "0.0005931824318551501", "0.0006093168128332312",
            "0.000603559544538202", "0.0006102967692158076", "0.0005976886192604048",
            "0.0019967051461493",
         ]),
    ],
    ids=["glove", "signed-table", "coverage-40"],
)
def test_sampler_output_is_pinned(game, samples, seed, phi, standard_error):
    result = shapley_monte_carlo(game, samples, seed)
    assert [str(result.phi[p]) for p in result.players] == phi
    assert [repr(result.standard_error[p]) for p in result.players] == standard_error


@pytest.mark.parametrize(
    "seed, index, n, expected",
    [
        (5, 0, 1, [0]),
        (5, 3, 2, [1, 0]),
        (-12, 4, 7, [1, 6, 2, 4, 3, 0, 5]),
        (2024, 17, 40, [
            39, 28, 5, 36, 26, 38, 37, 18, 30, 8, 4, 15, 34, 7, 31, 1, 9, 23, 27, 29, 3, 17, 14, 19,
            2, 0, 13, 10, 6, 25, 16, 35, 21, 20, 11, 12, 22, 32, 24, 33,
         ]),
    ],
)
def test_sample_permutation_is_pinned(seed, index, n, expected):
    assert sample_permutation(seed, index, n) == expected


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.skipif(
    sys.implementation.name != "cpython"
    or importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None,
    reason="only CPython's built-in SHA-256 module (_sha2 or _sha256) is used, and this interpreter lacks it",
)
def test_a_sampled_run_never_loads_openssl():
    """The sampler hashes with CPython's own SHA-256: ``hashlib`` would load OpenSSL, about 3.5 MiB of memory."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}]; import riskshare.cli; "
        "from riskshare import CoalitionGame, PlayerSet, shapley_monte_carlo; "
        "shapley_monte_carlo(CoalitionGame(PlayerSet(('a', 'b')), terms=[(0b11, 1)]), 50, 3); "
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def _sampled_by_definition(n, terms, samples, seed):
    """Mean marginals and standard errors straight from the definition: in each
    ``sample_permutation`` ordering, a term's weight is the marginal of its
    member who arrives last."""
    marginals = [[Fraction(0)] * n for _ in range(samples)]
    for index in range(samples):
        position = {p: k for k, p in enumerate(sample_permutation(seed, index, n))}
        for mask, weight in terms:
            members = [p for p in range(n) if mask >> p & 1]
            marginals[index][max(members, key=position.__getitem__)] += Fraction(weight)
    phi, stderr = [], []
    for p in range(n):
        column = [row[p] for row in marginals]
        mean = sum(column, Fraction(0)) / samples
        variance = sum((x - mean) ** 2 for x in column) / (samples - 1) if samples > 1 else 0
        phi.append(mean)
        stderr.append(math.sqrt(float(variance) / samples))
    return phi, stderr


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sampler_credits_each_term_to_its_last_arrival(data):
    n = data.draw(st.integers(1, 12), label="n")
    pool = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6), label="masks")
    weight = st.sampled_from([1, 1, -1, 2, Fraction(2, 3), Fraction(-5, 2)])
    terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), weight), max_size=25), label="terms")
    samples = data.draw(st.integers(1, 30), label="samples")
    seed = data.draw(st.integers(-(2**40), 2**40), label="seed")
    players = PlayerSet(tuple(f"p{k}" for k in range(n)))
    result = shapley_monte_carlo(CoalitionGame(players, terms=terms), samples, seed)
    phi, stderr = _sampled_by_definition(n, terms, samples, seed)
    assert [result.phi[p] for p in players.players] == phi
    assert [result.standard_error[p] for p in players.players] == stderr


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
        phi_sum = shapley_exact(added(v, w)).phi
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
