import random
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest

from riskshare import (
    AxiomReport,
    CoalitionGame,
    Control,
    Interval,
    LeafCondition,
    Money,
    PayoutReport,
    PlayerSet,
    Provenance,
    QualitativeScale,
    ScaleSet,
    ShapleyResult,
    SubsetResult,
    Threat,
    ThreatAssessment,
    ThreatTree,
    allocate_payments,
    game_from_table,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def unanimity(players: PlayerSet, ids) -> CoalitionGame:
    """The game worth 1 on every coalition that contains all of ``ids``, else 0: one term."""
    return CoalitionGame(players, terms=[(players.mask_of(ids), 1)])


def scaled(game: CoalitionGame, c) -> CoalitionGame:
    """The game ``c * v``: every dividend times ``c``."""
    return CoalitionGame(game.players, terms=[(mask, c * d) for mask, d in game.terms])


def added(v: CoalitionGame, w: CoalitionGame) -> CoalitionGame:
    """The game ``v + w`` over ``v``'s players: the dividends of both, added."""
    return CoalitionGame(v.players, terms=v.terms + w.terms)


def value(game: CoalitionGame, ids) -> Fraction:
    """v(S) for a coalition given as player ids."""
    return game.value_of_mask(game.players.mask_of(ids))


def audit_passes(report: AxiomReport) -> bool:
    """No axiom the report checked failed."""
    return (
        report.efficiency_ok
        and not report.symmetry_violations
        and not report.null_player_violations
    )


def allocate(result: ShapleyResult, budget: Money, rounding_mode: str = "per-recipient", **annotations) -> PayoutReport:
    """``allocate_payments`` for a test of the payments alone: unless ``annotations`` pass them, the report's
    provenance names a ``test`` source with a zero delta, and its audit is a clean one that no game checked."""
    annotations.setdefault("provenance", Provenance("test", Interval(0, 0), result.method, result.samples, result.seed))
    annotations.setdefault("axioms", AxiomReport(Fraction(0), (), ()))
    return allocate_payments(result, budget, rounding_mode, **annotations)


def render_commit_log(records) -> str:
    """The commit-log text that ``parse_commit_log`` reads back as ``records`` (timestamps rendered as UTC)."""
    chunks = []
    for r in records:
        stamp = datetime.fromtimestamp(r.timestamp, tz=timezone.utc)
        lines = [f"commit: {r.commit_id}", f"author: {r.author}", f"date: {stamp.isoformat()}"]
        lines.extend(f"parent: {p}" for p in r.parents)
        lines.extend(f"trailer: {k}: {v}" for k, v in r.trailers)
        lines.append("---")
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + ("\n" if chunks else "")


def subset_results_from_attribution(attribution, players: PlayerSet) -> list[SubsetResult]:
    """The evidence a rebuild of every coalition would give: a leaf passes iff all its (nonempty) authors are in."""
    required = {leaf: frozenset(authors) for leaf, authors in attribution.items() if authors}
    results = []
    for mask in range(1 << players.n):
        members = set(players.ids_of(mask))
        results.append(SubsetResult(members, [leaf for leaf, authors in required.items() if authors <= members]))
    return results


def build_joint_feature_game() -> CoalitionGame:
    """Three players; 1 and 2 only deliver together, 3 delivers alone."""
    players = PlayerSet(("1", "2", "3"))
    return game_from_table(
        players,
        [
            ([], 0),
            (["1"], 0),
            (["2"], 0),
            (["3"], 1),
            (["1", "2"], 1),
            (["1", "3"], 1),
            (["2", "3"], 1),
            (["1", "2", "3"], 2),
        ],
    )


def build_fix_count_game(grand_value: int) -> CoalitionGame:
    """The three-developer vulnerability-fix table, parameterized by v(ABC)."""
    players = PlayerSet(("A", "B", "C"))
    return game_from_table(
        players,
        [
            ([], 0),
            (["A"], 1),
            (["B"], 0),
            (["C"], 0),
            (["A", "B"], 1),
            (["A", "C"], 2),
            (["B", "C"], 1),
            (["A", "B", "C"], grand_value),
        ],
    )


@pytest.fixture
def joint_feature_game() -> CoalitionGame:
    return build_joint_feature_game()


@pytest.fixture
def fix_count_game() -> CoalitionGame:
    return build_fix_count_game(3)


@pytest.fixture
def reported_variant_game() -> CoalitionGame:
    return build_fix_count_game(2)


def random_fraction(rng: random.Random, lo: int = -10, hi: int = 10) -> Fraction:
    den = rng.randint(1, 12)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_game(rng: random.Random, n: int, lo: int = -10, hi: int = 10) -> CoalitionGame:
    players = PlayerSet(tuple(f"p{k}" for k in range(n)))
    table = [Fraction(0)] + [random_fraction(rng, lo, hi) for _ in range((1 << n) - 1)]
    return CoalitionGame(players, table=table, label="random")


def random_monotone_game(rng: random.Random, n: int, leaves: int = 15) -> CoalitionGame:
    """Random leaf-coverage-style game: integer-valued and monotone."""
    players = PlayerSet(tuple(f"p{k}" for k in range(n)))
    masks = [rng.randint(1, (1 << n) - 1) for _ in range(leaves)]
    table = [
        Fraction(sum(1 for req in masks if mask & req == req))
        for mask in range(1 << n)
    ]
    return CoalitionGame(players, table=table, label="random-monotone")


def build_three_fix_tree() -> ThreatTree:
    return ThreatTree(
        threats=(
            Threat(
                id="T1",
                label="loss of customer data records",
                controls=(
                    Control("C-46365", "verify user names", (LeafCondition("U-46365-1"),)),
                    Control("C-45802", "verify uploaded file types", (LeafCondition("U-45802-1"),)),
                    Control("C-45801", "sanitize directory queries", (LeafCondition("U-45801-1"),)),
                ),
            ),
        )
    )


def build_unit_scales() -> ScaleSet:
    likelihood = QualitativeScale(
        name="exploit-likelihood",
        kind="likelihood",
        categories=(
            ("none", Interval(0, 0)),
            ("low", Interval(0, Fraction(1, 2))),
            ("medium", Interval(Fraction(1, 2), 1)),
            ("high", Interval(1, 1)),
        ),
    )
    impact = QualitativeScale(
        name="customer-data-loss",
        kind="lookup",
        categories=(
            ("none", Interval(0, 0)),
            ("low", Interval(18120, 35730)),
            ("medium", Interval(52260, 223400)),
            ("high", Interval(366500, 1775350)),
            ("critical", Interval(2125900, 15622700)),
        ),
    )
    return ScaleSet(likelihood=likelihood, impact=impact)


def build_full_mitigation_assessment() -> ThreatAssessment:
    return ThreatAssessment(
        threat_id="T1",
        likelihood_before="high",
        impact_before="critical",
        likelihood_after="none",
        impact_after="none",
    )
