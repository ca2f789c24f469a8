"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (the ``-s`` lets the lines through pytest's capture).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from riskshare import (
    CoalitionGame,
    Cycle,
    Interval,
    Money,
    PlayerSet,
    ShapleyResult,
    ValidationIssue,
    check_axioms,
    compute_budget,
    derive_attribution,
    game_from_subset_results,
    interval_add,
    interval_mul,
    interval_sub,
    leaf_coverage_game,
    parse_commit_log,
    risk_delta,
    shapley_exact,
    shapley_monte_carlo,
    shapley_permutation_oracle,
)
from riskshare.documents import load_risk_model

from conftest import (
    FIXTURES,
    allocate,
    build_fix_count_game,
    build_joint_feature_game,
    random_game,
    random_monotone_game,
    scaled,
    subset_results_from_attribution,
    unanimity,
    value,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget_s
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number} {name}: {verdict} [{elapsed:.2f}s / {budget_s:g}s]", flush=True)
    assert ok, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"


def test_criterion_1_joint_feature_shapley():
    """Exact values of the joint-feature game are (1/2, 1/2, 1), zero tolerance."""
    with criterion(1, "joint-feature team values", 1.0):
        result = shapley_exact(build_joint_feature_game())
        assert result.phi == {"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1)}


def test_criterion_2_delta_and_budget():
    """Fixture risk model yields delta [2,125,900; 15,622,700] and B = $21,259.00."""
    with criterion(2, "avoided-loss interval and budget", 1.0):
        model = load_risk_model(FIXTURES / "worked_example" / "risk_model.json")
        assert model.validate().ok
        findings = []
        delta = risk_delta(model.assessments, model.scales, mode="sum", findings=findings)
        assert delta == Interval(2125900, 15622700) and findings == []  # no threat's difference is clamped
        budget = compute_budget(delta, Fraction(1, 100), "lower")
        assert budget == Money(2125900)  # $21,259.00 in cents


def test_criterion_3_payments_and_companion_checks():
    """Reported-variant fixture reproduces the published payments exactly.

    Companion: the as-written count table solves to (3/2, 1/2, 1) by both
    exact routes, and the auditor flags the reported values against it with
    efficiency residual -1.
    """
    with criterion(3, "payment figures and efficiency audit", 1.0):
        from riskshare.documents import load_coalition_game

        reported = load_coalition_game(FIXTURES / "worked_example" / "coalition_table.json")
        result = shapley_exact(reported)
        assert result.phi == {"A": Fraction(7, 6), "B": Fraction(1, 6), "C": Fraction(2, 3)}
        budget = compute_budget(Interval(2125900, 15622700), Fraction(1, 100), "lower")
        report = allocate(result, budget, "per-recipient")
        payments = [row.payment.amount_minor for row in report.payouts]
        assert payments == [1240108, 177158, 708633]

        counted = load_coalition_game(FIXTURES / "worked_example" / "coalition_table_by_count.json")
        as_counted = {"A": Fraction(3, 2), "B": Fraction(1, 2), "C": Fraction(1)}
        assert shapley_exact(counted).phi == as_counted
        assert shapley_permutation_oracle(counted).phi == as_counted
        claimed = ShapleyResult(
            players=("A", "B", "C"),
            phi={"A": Fraction(7, 6), "B": Fraction(1, 6), "C": Fraction(2, 3)},
            method="external",
        )
        audit = check_axioms(counted, claimed)
        assert not audit.efficiency_ok
        assert audit.efficiency_residual == -1


def test_criterion_4_axiom_property_suite():
    """200 random games, n <= 8, rational values in [-10, 10]: all axioms exact."""
    with criterion(4, "axiom property suite", 60.0):
        rng = random.Random(8675309)
        for index in range(200):
            n = rng.randint(1, 8)
            game = random_game(rng, n, lo=-10, hi=10)
            players = game.players.players
            exact = shapley_exact(game)

            # oracle equivalence, bit for bit
            assert shapley_permutation_oracle(game).phi == exact.phi

            # efficiency
            assert exact.total == game.grand_value()

            # symmetry on a symmetrized pair
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                vals = game.value_table()

                def swap(mask: int) -> int:
                    bi, bj = mask >> i & 1, mask >> j & 1
                    mask &= ~(1 << i) & ~(1 << j)
                    return mask | (bi << j) | (bj << i)

                sym = CoalitionGame(
                    game.players,
                    table=[(vals[m] + vals[swap(m)]) / 2 for m in range(1 << n)],
                )
                sym_phi = shapley_exact(sym).phi
                assert sym_phi[players[i]] == sym_phi[players[j]]

            # null player: appending a do-nothing member pays them zero
            extended = PlayerSet(players + ("null-player",))
            vals = game.value_table()
            null_game = CoalitionGame(
                extended, table=[vals[m & ((1 << n) - 1)] for m in range(1 << (n + 1))]
            )
            null_result = shapley_exact(null_game)
            assert null_result.phi["null-player"] == 0
            for p in players:  # and nobody else's value moves
                assert null_result.phi[p] == exact.phi[p]

            # linearity and homogeneity
            w = random_game(rng, n, lo=-10, hi=10)
            w = CoalitionGame(game.players, table=w.value_table())  # same player ids
            phi_w = shapley_exact(w).phi
            combined = CoalitionGame(
                game.players,
                table=[a + b for a, b in zip(game.value_table(), w.value_table())],
            )
            phi_sum = shapley_exact(combined).phi
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            phi_scaled = shapley_exact(scaled(game, c)).phi
            for p in players:
                assert phi_sum[p] == exact.phi[p] + phi_w[p]
                assert phi_scaled[p] == c * exact.phi[p]


def test_criterion_5_unanimity_closed_form():
    """phi_i(u_P) = 1/|P| for members, 0 otherwise, for every P over n <= 6."""
    with criterion(5, "unanimity closed form", 10.0):
        for n in range(1, 7):
            players = PlayerSet(tuple(f"p{k}" for k in range(n)))
            for req_mask in range(1, 1 << n):
                required = set(players.ids_of(req_mask))
                result = shapley_exact(unanimity(players, required))
                for p in players.players:
                    expected = Fraction(1, len(required)) if p in required else Fraction(0)
                    assert result.phi[p] == expected


def test_criterion_6_monte_carlo_soundness():
    """Sampled estimates honor their error bars (at least 95% within three
    standard errors of the exact values) and telescope exactly to v(N) at
    every sample count."""
    with criterion(6, "sampling soundness", 120.0):
        rng = random.Random(1234321)
        cases: list[tuple[CoalitionGame, list[int]]] = [
            (build_joint_feature_game(), [101, 102, 103]),
        ]
        for k in range(20):
            cases.append((random_monotone_game(rng, 10, leaves=16), [500 + k]))

        observations = 0
        within = 0
        for game, seeds in cases:
            exact = shapley_exact(game).phi
            for seed in seeds:
                estimate = shapley_monte_carlo(game, 10_000, seed=seed)
                assert estimate.total == game.grand_value()  # telescoping, exact
                for p in game.players.players:
                    observations += 1
                    err = abs(estimate.phi[p] - exact[p])
                    se = estimate.standard_error[p]
                    if se == 0.0:
                        within += err == 0
                    else:
                        within += float(err) <= 3 * se
        assert within / observations >= 0.95, f"only {within}/{observations} within 3 SE"

        # telescoping at every sample count, including tiny ones
        game = build_joint_feature_game()
        for samples in (1, 2, 3, 10, 137):
            result = shapley_monte_carlo(game, samples, seed=77)
            assert result.total == game.grand_value()


def test_criterion_7_pipeline_consistency():
    """Commit log -> attribution -> coverage game matches the count table, and
    the rebuild-evidence pathway produces the identical game."""
    with criterion(7, "evidence pipeline consistency", 1.0):
        model = load_risk_model(FIXTURES / "worked_example" / "risk_model.json")
        findings = []
        with open(FIXTURES / "worked_example" / "commits.log", "rb") as log:
            attribution = derive_attribution(
                parse_commit_log(log, {}, findings=findings), model.tree,
                Cycle(from_commit="0f3a6d1c5b2e4a7f8c9d0e1f2a3b4c5d6e7f8091"),
            )
        # the fixture log carries a non-attribution trailer
        note = "ignoring unknown trailer keys: ['Release-Tag']"
        assert findings == [ValidationIssue("CommitLogWarning", note, severity="warning")]
        players = PlayerSet(("alice", "bob", "carol"))
        via_trailers = leaf_coverage_game(model.tree, attribution, players)

        expected = build_fix_count_game(3)  # A=alice, B=bob, C=carol
        rename = {"alice": "A", "bob": "B", "carol": "C"}
        for mask in range(8):
            ids = [rename[p] for p in players.ids_of(mask)]
            assert via_trailers.value_of_mask(mask) == value(expected, ids)

        results = subset_results_from_attribution(attribution, players)
        via_rebuilds = game_from_subset_results(results, model.tree, players)
        assert via_rebuilds.value_table() == via_trailers.value_table()


def test_criterion_8_payout_conservation():
    """Exact conservation, bounded drift, and scale-invariant payments."""
    with criterion(8, "payout conservation", 30.0):
        rng = random.Random(5551212)
        for _ in range(1000):
            n = rng.randint(1, 12)
            phi = [Fraction(rng.randint(0, 60), rng.randint(1, 9)) for _ in range(n)]
            if sum(phi) == 0:
                phi[0] += 1
            players = tuple(f"p{k}" for k in range(n))
            result = ShapleyResult(players=players, phi=dict(zip(players, phi)), method="external")
            budget = Money(rng.randint(0, 10**7))
            exact_total = allocate(result, budget, "largest-remainder")
            assert sum(r.payment.amount_minor for r in exact_total.payouts) == budget.amount_minor
            assert exact_total.residual_minor == 0
            drift = allocate(result, budget, "per-recipient")
            assert abs(drift.residual_minor) <= n - 1 if n > 1 else drift.residual_minor == 0

        # scale invariance: v and (5/9)v produce byte-identical payment sections
        game = build_fix_count_game(2)
        budget = Money(2125900)

        def payment_bytes(g):
            report = allocate(shapley_exact(g), budget, "per-recipient")
            doc = [[row.player, row.payment.amount_minor] for row in report.payouts]
            return json.dumps(doc).encode()

        assert payment_bytes(game) == payment_bytes(scaled(game, Fraction(5, 9)))


def test_criterion_9_interval_containment_fuzz():
    """10,000 random point samples stay inside add/mul/sub result intervals."""
    with criterion(9, "interval containment fuzz", 10.0):
        rng = random.Random(24601)

        def random_interval():
            a, b = sorted(Fraction(rng.randint(-400, 400), rng.randint(1, 25)) for _ in range(2))
            return Interval(a, b)

        def point_in(iv):
            t = Fraction(rng.randint(0, 997), 997)
            return iv.lo + t * (iv.hi - iv.lo)

        for _ in range(10_000):
            a, b = random_interval(), random_interval()
            x, y = point_in(a), point_in(b)
            assert interval_add(a, b).contains(x + y)
            assert interval_mul(a, b).contains(x * y)
            assert interval_sub(a, b).contains(x - y)
