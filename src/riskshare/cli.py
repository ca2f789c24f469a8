"""Command-line entry point for reproducible bonus runs.

Every command that takes ``--config`` runs ``validate``'s static checks, then
its own needs, before it reads any input. Exit codes: 0 success, 1 validation
failure, 2 input parse/IO error, 3 capacity exceeded (a table input or ``game``'s
value table above 24 players). Diagnostics go to stderr; output to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import Optional

from . import documents
from .config import RunConfig, SolverSpec, load_run_config
from .errors import CapacityError, DocumentError, RiskshareError, ValidationError
from .games import CoalitionGame, PlayerSet, leaf_coverage_game
from .mining import (
    cherry_pick_plan,
    derive_attribution,
    game_from_subset_results,
    parse_commit_log,
    resolve_identities,
)
from .payout import Provenance, allocate_payments, compute_budget, render_report, parse_report
from .risk import RiskModel, ValidationIssue, ValidationReport, risk_delta
from .shapley import ShapleyResult, check_axioms, shapley_exact, shapley_monte_carlo

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _err(message: str):
    print(message, file=sys.stderr)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    _err(f"warning: {category.__name__}: {message}")


def _emit(text: str, path, what: str) -> int:
    """Write ``text`` to ``path`` and say so on stderr, or to stdout when there is no path."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
        _err(f"{what} written to {path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_records(config: RunConfig):
    records = parse_commit_log(documents.load_text(config.source.path))
    if config.source.aliases_path is not None:
        aliases = documents.load_aliases(config.source.aliases_path)
        records = list(resolve_identities(records, aliases).records)
    return records


def _roster(config: RunConfig, declared: Optional[tuple[str, ...]], fallback: set[str]) -> PlayerSet:
    if config.source.players is not None:
        return PlayerSet(config.source.players)
    if declared is not None:
        return PlayerSet(declared)
    if not fallback:
        raise ValidationError("no players named by the source and none configured")
    return PlayerSet(tuple(sorted(fallback)))


def build_game(config: RunConfig, model: Optional[RiskModel]) -> CoalitionGame:
    """The checked config's game; coalition tables and subset results end in ``game_from_table``."""
    kind = config.source.type
    if kind == "coalition_table":
        return documents.load_coalition_game(config.source.path)
    if kind == "subset_results":
        declared, results = documents.load_subset_results(config.source.path)
        players = _roster(config, declared, {p for r in results for p in r.subset})
        return game_from_subset_results(results, model.tree, players, config.normalized)
    if kind == "attribution":
        declared, attribution = documents.load_attribution(config.source.path)
    else:
        declared = None
        attribution = derive_attribution(_load_records(config), model.tree, config.source.cycle)
    players = _roster(config, declared, {a for people in attribution.values() for a in people})
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


def _checked_config(args) -> RunConfig:
    """The run config, after ``validate``'s static checks and then the command's needs."""
    config = load_run_config(args.config)
    issues = config.issues() or _needs(args.command, config)
    if issues:
        raise ValidationError("; ".join(f"{i.location}: {i.message}" for i in issues))
    return config


def solve(game: CoalitionGame, spec: SolverSpec) -> ShapleyResult:
    if spec.method == "monte-carlo":
        return shapley_monte_carlo(game, spec.samples, spec.seed)
    return shapley_exact(game)


def _print_validation(report: ValidationReport):
    for issue in report.issues:
        print(str(issue))
    print(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")


class _InvalidModel(Exception):
    """The risk model failed ``validate()``; its listing is printed and the run exits 1."""


def _valid_model(config: RunConfig) -> Optional[RiskModel]:
    """The configured risk model, or None when there is none.

    An invalid model is listed on stdout; a valid one's warnings go to stderr, one line each.
    """
    if config.risk_model_path is None:
        return None
    model = documents.load_risk_model(config.risk_model_path)
    validation = model.validate()
    if not validation.ok:
        _print_validation(validation)
        raise _InvalidModel()
    for issue in validation.warnings:
        _err(str(issue))
    return model


def cmd_validate(args) -> int:
    config = load_run_config(args.config)
    report = config.validate()
    if config.risk_model_path is not None and config.risk_model_path.exists():
        report = report.merged(documents.load_risk_model(config.risk_model_path).validate())
    _print_validation(report)
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
    delta = risk_delta(model.assessments, model.scales, mode=config.mode)
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
    report = allocate_payments(
        result,
        budget,
        config.rounding,
        anchor=config.budget.anchor,
        fraction=config.budget.fraction,
        provenance=provenance,
        axioms=axioms,
    )
    return _emit(render_report(report, config.output_format), args.out, "report")


def cmd_plan_cherry_pick(args) -> int:
    config = _checked_config(args)
    cycle = config.source.cycle
    subset = {s for s in (p.strip() for p in args.subset.split(",")) if s}
    plan = cherry_pick_plan(_load_records(config), cycle.from_commit, subset, to_commit=cycle.to_commit)
    return _emit(plan.to_json(), args.out, "plan")


def cmd_report(args) -> int:
    report = parse_report(documents.load_text(args.input), args.input)
    return _emit(render_report(report, args.format), args.out, "report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskshare",
        description="Fair, explainable security bonuses from risk deltas and repository evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate config, scales, threat tree, and assessments")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # one line per warning, without a source location
        try:
            return args.func(args)
        except _InvalidModel:
            return EXIT_VALIDATION
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
