import argparse
import io
import random
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

from riskshare import (
    AxiomReport,
    CherryPickPlan,
    CoalitionGame,
    Control,
    Cycle,
    Interval,
    LeafCondition,
    Money,
    PayoutReport,
    PlayerSet,
    Provenance,
    QualitativeScale,
    ScaleSet,
    ShapleyResult,
    Threat,
    ThreatAssessment,
    ThreatTree,
    ValidationError,
    allocate_payments,
    derive_attribution,
    game_from_table,
    parse_commit_log,
)
from riskshare import cli, documents, mining

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


class CommitRecord(NamedTuple):
    """One commit of a log as a tuple of :func:`parse_commit_log`'s fields, named."""

    commit_id: str
    author: str
    timestamp: int
    parents: tuple[str, ...] = ()
    trailers: tuple[tuple[str, str], ...] = ()


def parse_records(log, findings=None) -> list[CommitRecord]:
    """The records of a log, listed: ``log`` is a binary file, or text read as the UTF-8 file holding it. The
    parser's warnings go to ``findings`` when it is given."""
    if isinstance(log, str):
        log = io.BytesIO(log.encode("utf-8"))
    findings = [] if findings is None else findings
    return [CommitRecord(*fields) for fields in parse_commit_log(log, {}, findings=findings)]


def commits_in_cycle(records, cycle: Cycle) -> list[str]:
    """The ids of ``records`` that :func:`derive_attribution` counts inside ``cycle``, in log order: each commit is
    given its own id as author and claims the one leaf named by that id."""
    ids = [commit for commit, *_ in records]
    tree = ThreatTree((Threat("T", controls=(Control("C", leaves=tuple(map(LeafCondition, ids))),)),))
    claims = ((c, c, stamp, parents, (("Satisfies", c),)) for c, _, stamp, parents, _ in records)
    attribution = derive_attribution(claims, tree, cycle)
    return [commit for commit in ids if attribution[commit]]


# The list path that the commit-log commands took before they streamed the log: every record parsed into a list,
# renamed by the alias file, then the cycle's window selected from the list. The streamed commands must print what
# it prints, errors and warnings in the same order.


def resolve_identities(records: list[CommitRecord], aliases) -> list[CommitRecord]:
    """``records`` with each author the alias file maps renamed; one warning line names the provisional identities."""
    provisional = mining._warn_provisional((r.author for r in records), aliases)
    if provisional:
        cli._err(provisional)
    return [r._replace(author=aliases[r.author]) if r.author in aliases else r for r in records]


def select_cycle(records: list[CommitRecord], cycle: Cycle) -> list[CommitRecord]:
    """The records inside ``cycle``, in log order."""
    if cycle.from_commit is None and cycle.to_commit is None:
        lo, hi = mining._time_range(cycle)
        return [r for r in records if lo <= r.timestamp <= hi]
    inside = mining._window({r.commit_id: r.parents for r in records}, cycle)
    return [r for r in records if inside(r.commit_id)]


def load_records(config) -> list[CommitRecord]:
    """The config's commit log, listed and renamed by its alias file; each warning prints as it arises."""
    findings = []
    with documents.reading(config.source.path), open(config.source.path, "rb") as log:
        records = parse_records(log, findings)
    for issue in findings:
        cli._err(issue)
    if config.source.aliases_path is not None:
        records = resolve_identities(records, documents.load_aliases(config.source.aliases_path))
    return records


def listed_plan_command(args) -> int:
    """``plan-cherry-pick`` over the listed records: the window of the renamed list, then its picks."""
    config = cli._checked_config(args)
    cycle = config.source.cycle
    subset = {s for s in (p.strip() for p in args.subset.split(",")) if s}
    records = load_records(config)
    with documents.reading(config.source.path):
        window = select_cycle(records, Cycle(from_commit=cycle.from_commit, to_commit=cycle.to_commit))
    picks = tuple(r.commit_id for r in window if r.author in subset)
    plan_warnings = []
    if not window:
        plan_warnings.append("window after base commit contains no commits")
    elif not picks:
        plan_warnings.append("no commits in the window were authored by the subset")
    plan = CherryPickPlan(cycle.from_commit, tuple(sorted(subset)), picks, tuple(plan_warnings))
    players = config.source.players if config.source.players is not None else {r.author for r in records}
    unknown = sorted(subset.difference(players))
    if unknown:
        raise ValidationError(f"--subset: unknown player id(s) {', '.join(map(repr, unknown))}")
    return cli._emit(plan.to_json(), args.out, "plan")


def listed_main(argv) -> int:
    """``cli.main(argv)``, with ``plan-cherry-pick`` run by :func:`listed_plan_command`."""
    (commands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    with mock.patch.dict(commands.choices["plan-cherry-pick"]._defaults, func=listed_plan_command):
        return cli.main(argv)


def subset_results_from_attribution(attribution, players: PlayerSet) -> list[tuple[set[str], list[str]]]:
    """The evidence a rebuild of every coalition would give: a leaf passes iff all its (nonempty) authors are in."""
    required = {leaf: frozenset(authors) for leaf, authors in attribution.items() if authors}
    results = []
    for mask in range(1 << players.n):
        members = set(players.ids_of(mask))
        results.append((members, [leaf for leaf, authors in required.items() if authors <= members]))
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
