"""Command-line entry point for reproducible bonus runs.

Every command that takes ``--config`` runs ``validate``'s static checks, then its own
needs, before it reads any input; ``validate`` then reads every input and builds the
game, as ``game``, ``shapley`` and ``payout`` do. Exit codes: 0 success, 1 validation
failure, 2 usage error (an unknown command or a missing required option; argparse prints
its usage line) or input parse/IO error (a missing file too; a content error starts with
its file's path), 3 capacity exceeded (a table input or ``game``'s value table above 24
players, or a sampled standard error beyond float range). Diagnostics go to stderr;
output to stdout or ``--out``. A failed check is one ``validation error:`` line on
stderr, which starts with the file it is about (the risk model, the source, whose
game gives a negative contribution too); only ``validate`` lists its findings on
stdout, since the listing is its result. Every such path comes from
:func:`documents.reading` around the code that uses the file's content.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, Optional

from . import documents
from .config import RunConfig, SolverSpec, load_run_config
from .errors import CapacityError, DocumentError, RiskshareError, ValidationError
from .games import CoalitionGame, PlayerSet, game_from_subset_results, leaf_coverage_game
from .mining import _warn_provisional, cherry_pick_plan, derive_attribution, parse_commit_log
from .payout import Provenance, allocate_payments, compute_budget, render_report, parse_report
from .risk import RiskModel, ValidationIssue, ValidationReport, risk_delta
from .shapley import ShapleyResult, check_axioms, shapley_exact, shapley_monte_carlo

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _err(message: object):
    print(message, file=sys.stderr)


def _emit(text: str, path, what: str) -> int:
    """Write ``text`` to ``path`` and say so on stderr, or to stdout when there is no path."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
        _err(f"{what} written to {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_log(config: RunConfig, read: Callable) -> tuple:
    """``read(records, aliases)`` for the commit log, and each author of the log mapped to its player id.

    ``records`` stream the log once, and ``read`` decides nothing before they end. When they end, the log's
    warning (its unknown trailer keys) prints, the alias file (if any) is read into ``aliases``, and one warning
    names the authors it leaves provisional. So errors and warnings come in this order: the log's, the alias
    file's, the provisional identities, then ``read``'s own (a refused cycle, an unknown leaf), which name the log.
    """
    source = config.source
    authors: dict[str, str] = {}  # every author of the log, in order of first appearance
    aliases: dict[str, str] = {}

    def records():
        findings = []
        with documents.reading(source.path), open(source.path, "rb") as log:
            yield from parse_commit_log(log, authors, findings=findings)  # read, decoded and parsed a piece at a time
        for issue in findings:
            _err(issue)
        if source.aliases_path is not None:
            aliases.update(documents.load_aliases(source.aliases_path))
            provisional = _warn_provisional(authors, aliases)
            if provisional:
                _err(provisional)

    try:
        result = read(records(), aliases)
    except ValidationError as exc:  # read's own, about the log; the files' errors are DocumentErrors, located
        with documents.reading(source.path):
            raise exc
    return result, {author: aliases.get(author, author) for author in authors}


def _roster(declared: Optional[tuple[str, ...]], named: Iterable[str]) -> PlayerSet:
    """The declared roster (a document's ``players``, a commit log's ``source.players``), else the named ids, sorted.

    ``named`` is read only when no roster is declared, so a lazy iterable of the ids costs nothing otherwise.
    """
    if declared is not None:
        return PlayerSet(declared)
    named = set(named)
    if not named:
        raise ValidationError("no players named by the source and none declared")
    return PlayerSet(tuple(sorted(named)))


def build_game(config: RunConfig, model: Optional[RiskModel]) -> CoalitionGame:
    """The checked config's game; a validation or capacity error of the source names its file.

    Every source's builder is in :mod:`riskshare.games`; attribution and commit-log sources share ``leaf_coverage_game``.
    Each loader names its own file; the game is built after it, inside the source's :func:`documents.reading`.
    """
    kind, path = config.source.type, config.source.path
    if kind == "coalition_table":
        return documents.load_coalition_game(path)
    if kind == "subset_results":
        declared, results = documents.load_subset_results(path)
    elif kind == "attribution":
        declared, attribution = documents.load_attribution(path)
    else:
        declared, cycle = config.source.players, config.source.cycle
        claims, player_of = _read_log(config, lambda records, _: derive_attribution(records, model.tree, cycle))
        attribution = {leaf: frozenset(player_of[a] for a in people) for leaf, people in claims.items()}
    with documents.reading(path):
        if kind == "subset_results":
            players = _roster(declared, (p for subset, _ in results for p in subset))
            return game_from_subset_results(results, model.tree, players, config.normalized)
        players = _roster(declared, (a for people in attribution.values() for a in people))
        return leaf_coverage_game(model.tree, attribution, players, config.normalized)


def _needs(command: str, config: RunConfig) -> list[ValidationIssue]:
    """What ``command`` needs of a config beyond the static checks: one issue per missing setting."""
    issues = []
    if command == "payout" and config.risk_model_path is None:
        issues.append(ValidationIssue("risk_model", "payout needs a risk_model document"))
    if command == "payout" and config.budget is None:
        issues.append(ValidationIssue("budget", "payout needs a budget section (fraction and anchor)"))
    if command == "plan-cherry-pick" and config.source.type != "commit_log":
        issues.append(ValidationIssue("source.type", "plan-cherry-pick needs a commit_log source"))
    elif command == "plan-cherry-pick" and config.source.cycle.from_commit is None:
        issues.append(ValidationIssue("source.cycle.from_commit", "plan-cherry-pick needs the base commit"))
    return issues


def _raise_issues(issues) -> None:
    """One ValidationError for ``issues``, each as ``location: message``, joined by ``; ``."""
    if issues:
        raise ValidationError("; ".join(f"{i.location}: {i.message}" for i in issues))


def _checked_config(args) -> RunConfig:
    """The run config, after ``validate``'s static checks and then the command's needs."""
    config = load_run_config(args.config)
    _raise_issues(config.issues() or _needs(args.command, config))
    return config


def solve(game: CoalitionGame, spec: SolverSpec) -> ShapleyResult:
    if spec.method == "monte-carlo":
        return shapley_monte_carlo(game, spec.samples, spec.seed)
    return shapley_exact(game)


def _valid_model(config: RunConfig) -> Optional[RiskModel]:
    """The configured risk model, or None.

    Its errors raise one ValidationError that starts with the model's path; its warnings print on stderr.
    """
    if config.risk_model_path is None:
        return None
    model = documents.load_risk_model(config.risk_model_path)
    validation = model.validate()
    with documents.reading(config.risk_model_path):
        _raise_issues(validation.errors)
    for issue in validation.warnings:
        _err(issue)
    return model


def cmd_validate(args) -> int:
    config = load_run_config(args.config)
    report, model = ValidationReport(tuple(config.issues())), None
    if report.ok and config.risk_model_path is not None:
        model = documents.load_risk_model(config.risk_model_path)
        report = model.validate()
    if report.ok:
        build_game(config, model)
    for issue in report.issues:
        print(issue)
    print(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_game(args) -> int:
    config = _checked_config(args)
    game = build_game(config, _valid_model(config))
    doc = documents.coalition_table_document(game)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _axiom_summary(report) -> str:
    parts = [f"efficiency={'pass' if report.efficiency_ok else 'fail'}"]
    if report.symmetry_violations is None:
        parts.append("symmetry=not-audited")
    else:
        parts.append(f"symmetry={'pass' if not report.symmetry_violations else 'fail'}")
    parts.append(f"null-player={'pass' if not report.null_player_violations else 'fail'}")
    return " ".join(parts)


def cmd_shapley(args) -> int:
    config = _checked_config(args)
    game = build_game(config, _valid_model(config))
    result = solve(game, config.solver)
    # symmetry is not audited for a sampled estimate; the other axioms always are
    axioms = check_axioms(game, result)
    share = result.share
    if args.format == "json":
        doc = {
            "players": list(result.players),
            "method": result.method,
            "phi": {p: str(result.phi[p]) for p in result.players},
            "share": None if share is None else {p: str(share[p]) for p in result.players},
            "grand_value": str(game.grand_value()),
            "samples": result.samples,
            "seed": result.seed,
            "standard_error": result.standard_error,
            "axioms": _axiom_summary(axioms),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("players:", " ".join(result.players))
        print("method:", result.method)
        print("phi:", " ".join(str(result.phi[p]) for p in result.players))
        if share is None:
            print("share: undefined (total contribution is zero)")
        else:
            print("share:", " ".join(str(share[p]) for p in result.players))
        print("v(N):", game.grand_value())
        print("axioms:", _axiom_summary(axioms))
    return EXIT_OK


def cmd_payout(args) -> int:
    config = _checked_config(args)
    model = _valid_model(config)
    findings = []
    delta = risk_delta(model.assessments, model.scales, mode=config.mode, findings=findings)
    for issue in findings:
        _err(issue)
    point = config.budget.explicit_value  # set only with the explicit anchor, by the static checks
    if point is not None and not delta.contains(point):
        with documents.reading(args.config):
            _raise_issues([ValidationIssue(
                "budget.value", f"explicit budget anchor {point} outside the risk delta {delta} of {config.risk_model_path}"
            )])
    budget = compute_budget(
        delta,
        config.budget.fraction,
        config.budget.anchor,
        explicit_value=config.budget.explicit_value,
        currency=config.currency,
    )
    game = build_game(config, model)
    result = solve(game, config.solver)
    axioms = check_axioms(game, result)
    provenance = Provenance(
        game_source=game.label,
        delta=delta,
        solver=result.method,
        samples=result.samples,
        seed=result.seed,
    )
    with documents.reading(config.source.path):  # a negative contribution is the source's
        report = allocate_payments(result, budget, config.rounding, anchor=config.budget.anchor,
                                   fraction=config.budget.fraction, provenance=provenance, axioms=axioms)
    return _emit(render_report(report, config.output_format), args.out, "report")


def cmd_plan_cherry_pick(args) -> int:
    config = _checked_config(args)
    cycle = config.source.cycle
    subset = {s for s in (p.strip() for p in args.subset.split(",")) if s}
    plan, player_of = _read_log(config, lambda records, aliases: cherry_pick_plan(
        records, cycle.from_commit, subset, to_commit=cycle.to_commit, aliases=aliases))
    players = config.source.players if config.source.players is not None else player_of.values()
    unknown = sorted(subset.difference(players))
    if unknown:
        raise ValidationError(f"--subset: unknown player id(s) {', '.join(map(repr, unknown))}")
    return _emit(plan.to_json(), args.out, "plan")


def cmd_report(args) -> int:
    report = documents.load(args.input, parse_report)
    return _emit(render_report(report, args.format), args.out, "report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one shared parser, built on the first call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="riskshare",
        description="Fair, explainable security bonuses from risk deltas and repository evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the config, the risk model and the source evidence by building the game")
    p.add_argument("--config", required=True, help="path to the run config document")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("game", help="build the coalition game and print its value table")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("shapley", help="compute per-player values, shares, and the axiom audit")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("payout", help="full pipeline: risk delta, budget, game, shares, payments")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="write the report here instead of to stdout")
    p.set_defaults(func=cmd_payout)

    p = sub.add_parser("plan-cherry-pick", help="emit a rebuild plan for one coalition's commits")
    p.add_argument("--config", required=True)
    p.add_argument("--subset", required=True, help="comma-separated player ids")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan_cherry_pick)

    p = sub.add_parser("report", help="re-render a stored payout report in another format")
    p.add_argument("input", help="path to a JSON payout report")
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        _err(f"input error: {exc}")
        return EXIT_INPUT
    except CapacityError as exc:
        _err(f"capacity error: {exc}")
        return EXIT_CAPACITY
    except ValidationError as exc:
        _err(f"validation error: {exc}")
        return EXIT_VALIDATION
    except RiskshareError as exc:
        _err(f"error: {exc}")
        return EXIT_VALIDATION
    except OSError as exc:
        _err(f"io error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
