"""Seeded input documents for the benchmark workloads.

Each call writes one input instance (risk model, evidence, config) into a
directory and returns the argv lists that make up one op together with the
expectations the outputs are checked against. The same (seed, index) always
gives byte-identical documents. Every game is generated as a sum of unanimity
games (leaf coverage, or explicit Harsanyi dividends), so the expected values
are closed form (see ``oracle``).

Configs use only documented keys with their documented JSON types and carry
no ``workers`` key.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from oracle import Expect, delta_bounds, table_from_terms

LIKELIHOOD = (
    ("none", Fraction(0), Fraction(0)),
    ("rare", Fraction(0), Fraction(1, 10)),
    ("low", Fraction(1, 10), Fraction(3, 10)),
    ("medium", Fraction(3, 10), Fraction(3, 5)),
    ("high", Fraction(3, 5), Fraction(1)),
    ("certain", Fraction(1), Fraction(1)),
)
IMPACT_LABELS = ("none", "minor", "moderate", "major", "severe", "critical")
FRACTIONS = (Fraction(1, 100), Fraction(1, 50), Fraction(3, 200), Fraction(1, 20))
EXACT = "exact-subset"
SAMPLED = "monte-carlo"
BOTS = ("ci-bot", "dependabot", "release-bot")


@dataclass
class Run:
    """One ``riskshare`` invocation of an op and what its output must be."""

    argv: list[str]
    out: Path
    expect: Expect
    markdown_of: Path | None = None  # for ``report``: the JSON report it re-renders


@dataclass
class Instance:
    directory: Path
    runs: list[Run]
    stats: dict  # work counts computed from the generated inputs


def _write_json(path: Path, doc) -> int:
    text = json.dumps(doc, indent=1)
    path.write_text(text, encoding="utf-8")
    return len(text.encode())


# --------------------------------------------------------------------------
# Risk model
# --------------------------------------------------------------------------


def risk_model(rng: random.Random, n_leaves: int, n_threats: int, mode: str):
    """(document, leaf ids, delta interval); every mitigation strictly lowers risk."""
    bounds, lo = [("none", 0, 0)], rng.randint(2_000, 9_000)
    for label in IMPACT_LABELS[1:]:
        hi = lo * rng.randint(2, 5)
        bounds.append((label, lo, hi))
        lo = hi + rng.randint(1_000, 50_000)
    impact = [(label, Fraction(a), Fraction(b)) for label, a, b in bounds]

    leaves = [f"L{k:03d}" for k in range(n_leaves)]
    threats, start = [], 0
    for t in range(n_threats):
        stop = (t + 1) * n_leaves // n_threats
        controls, chunk = [], leaves[start:stop]
        for c in range(0, len(chunk), 3):
            controls.append({
                "id": f"C{t}-{c}",
                "label": f"control {c // 3} of threat {t}",
                "leaves": [{"id": leaf, "label": f"check {leaf}"} for leaf in chunk[c : c + 3]],
            })
        threats.append({"id": f"T{t}", "label": f"threat {t}", "controls": controls})
        start = stop

    assessments, rows = [], []
    for t in range(n_threats):
        lb, ib = rng.randint(2, 5), rng.randint(1, 5)
        la, ia = rng.randrange(lb), rng.randrange(ib)
        assessments.append({
            "threat": f"T{t}",
            "likelihood_before": LIKELIHOOD[lb][0],
            "impact_before": impact[ib][0],
            "likelihood_after": LIKELIHOOD[la][0],
            "impact_after": impact[ia][0],
        })
        rows.append(tuple(scale[k][1:] for scale, k in ((LIKELIHOOD, lb), (impact, ib), (LIKELIHOOD, la), (impact, ia))))
    doc = {
        "scales": {
            "likelihood": {
                "name": "exploit-likelihood",
                "kind": "likelihood",
                "categories": [{"label": l, "lo": str(a), "hi": str(b)} for l, a, b in LIKELIHOOD],
            },
            "impact": {
                "name": "business-loss",
                "kind": "lookup",
                "categories": [{"label": l, "lo": str(a), "hi": str(b)} for l, a, b in impact],
            },
        },
        "threats": threats,
        "assessments": assessments,
    }
    return doc, leaves, delta_bounds(rows, mode)


def attribution(rng: random.Random, leaves, contributors, addressed: int, max_authors: int):
    """Leaf -> author set: ``addressed`` leaves get 1..max_authors authors, and
    every contributor authors at least one leaf."""
    chosen = rng.sample(leaves, addressed)
    authors = {leaf: set() for leaf in leaves}
    for k, person in enumerate(rng.sample(contributors, len(contributors))):
        authors[chosen[k % addressed]].add(person)
    for leaf in chosen:
        want = rng.randint(1, min(max_authors, len(contributors)))
        while len(authors[leaf]) < want:
            authors[leaf].add(rng.choice(contributors))
    return {leaf: frozenset(people) for leaf, people in authors.items()}


def coverage_terms(attrib, weight: Fraction):
    return tuple((people, weight) for people in attrib.values() if people)


# --------------------------------------------------------------------------
# Commit log
# --------------------------------------------------------------------------


def commit_log(rng: random.Random, attrib, authors, n_commits: int):
    """(log text, cycle start commit, commits parsed, in-cycle claiming commits).

    Pre-cycle history (a tenth of the log) carries claims by people outside
    the roster; only claims after the ``from_commit`` boundary may count.
    Inside the cycle every author of a leaf claims it at least once, some
    claims repeat, and most commits claim nothing.
    """
    claims = [(person, leaf) for leaf, people in attrib.items() for person in sorted(people)]
    claims += rng.sample(claims, len(claims) // 10)
    rng.shuffle(claims)
    leaves = list(attrib)
    n_pre = n_commits // 10
    slots = sorted(rng.sample(range(n_pre + 1, n_commits), len(claims)))
    claim_at = dict(zip(slots, claims))
    stamp = 1_672_531_200 + rng.randrange(10**7)
    lines, parent, cycle_start = [], None, None
    for k in range(n_commits):
        commit = f"{rng.getrandbits(160):040x}"
        stamp += rng.randint(30, 7_200)
        trailers = []
        if k in claim_at:
            author, leaf = claim_at[k]
            trailers.append(f"Satisfies: {leaf}")
        elif k < n_pre and rng.random() < 0.2:
            author = f"alumni{rng.randrange(5)}"
            trailers.append(f"Satisfies: {rng.choice(leaves)}")
        else:
            author = rng.choice(BOTS) if rng.random() < 0.1 else rng.choice(authors)
        if rng.random() < 0.3:
            trailers.append(f"Reviewed-by: {rng.choice(authors)}")
        date = datetime.fromtimestamp(stamp, tz=timezone.utc).isoformat()
        lines += [f"commit: {commit}", f"author: {author}", f"date: {date}"]
        if parent is not None:
            lines.append(f"parent: {parent}")
        lines += [f"trailer: {t}" for t in trailers]
        lines.append("---")
        parent = commit
        if k == n_pre:
            cycle_start = commit
    return "\n".join(lines) + "\n", cycle_start, n_commits, len(claim_at)


# --------------------------------------------------------------------------
# Configs
# --------------------------------------------------------------------------


def _config(source: dict, *, mode: str, normalized: bool, solver: dict, fraction: Fraction, rounding: str):
    return {
        "risk_model": "risk_model.json",
        "source": source,
        "mode": mode,
        "normalized": normalized,
        "solver": solver,
        "budget": {"fraction": str(fraction), "anchor": "lower"},
        "rounding": rounding,
        "currency": "USD",
        "output": {"format": "json"},
    }


def _new_stats():
    return {
        "documents.bytes_in": 0,
        "mining.commits": 0,
        "mining.claims": 0,
        "games.table_entries": 0,
        "games.terms": 0,
        "games.evaluated": 0,
        "shapley.marginal_terms": 0,
        "shapley.audit_pairs": 0,
    }


def _count_game(stats, n: int, terms, samples=None):
    stats["games.terms"] += len(terms)
    if samples is None:
        stats["games.table_entries"] += 1 << n
        stats["games.evaluated"] += 1 << n
        stats["shapley.marginal_terms"] += n << (n - 1)
        stats["shapley.audit_pairs"] += n * (n - 1) // 2
    else:
        stats["games.evaluated"] += samples * n
        stats["shapley.marginal_terms"] += samples * n


def trailer_team(directory: Path, rng: random.Random, *, contributors: int, idle: int,
                 n_leaves: int, addressed: int, n_commits: int, samples=None) -> Instance:
    """One commit-log team: a roster with ``idle`` players who contribute nothing."""
    directory.mkdir(parents=True)
    people = [f"dev{k:02d}" for k in range(contributors + idle)]
    active = people[:contributors]
    model, leaves, delta = risk_model(rng, n_leaves, max(1, n_leaves // 8), "sum")
    attrib = attribution(rng, leaves, active, addressed, 3)
    text, start, commits, claims = commit_log(rng, attrib, active, n_commits)
    (directory / "commits.log").write_text(text, encoding="utf-8")
    roster = rng.sample(people, len(people))
    terms = coverage_terms(attrib, Fraction(1))
    if samples is None:
        solver, method, seed = {"method": "exact"}, EXACT, None
    else:
        seed = rng.randrange(2**31)
        solver, method = {"method": "monte-carlo", "samples": samples, "seed": seed}, SAMPLED
    config = _config(
        {"type": "commit_log", "path": "commits.log", "cycle": {"from_commit": start}, "players": roster},
        mode="sum", normalized=False, solver=solver, fraction=Fraction(1, 100), rounding="largest-remainder",
    )
    stats = _new_stats()
    stats["documents.bytes_in"] += _write_json(directory / "risk_model.json", model)
    stats["documents.bytes_in"] += _write_json(directory / "config.json", config)
    stats["mining.commits"] += commits
    stats["mining.claims"] += claims
    _count_game(stats, len(roster), terms, samples)
    expect = Expect(
        players=tuple(roster), terms=terms, delta=delta, fraction=Fraction(1, 100),
        rounding="largest-remainder", currency="USD", method=method, samples=samples, seed=seed,
        scanned=samples is None,
    )
    out = directory / "report.json"
    run = Run(["payout", "--config", str(directory / "config.json"), "--out", str(out)], out, expect)
    return Instance(directory, [run], stats)


# --------------------------------------------------------------------------
# Org batch: many small teams, every source type
# --------------------------------------------------------------------------

SOURCES = ("coalition_table", "subset_results", "attribution", "commit_log")
#: Team sizes per source type; fixed so every batch does the same amount of work.
BATCH_SIZES = (3, 4, 5, 6, 7, 8, 9, 10, 4, 6)


def _dividends(rng: random.Random, people):
    """Random non-negative Harsanyi dividends on small coalitions; one idle player."""
    active = people[:-1]
    terms = {}
    for _ in range(2 * len(people)):
        size = min(len(active), rng.choice((1, 1, 2, 2, 3, 4)))
        required = frozenset(rng.sample(active, size))
        terms[required] = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 6)))
    return tuple(terms.items())


def small_team(directory: Path, rng: random.Random, kind: str, n: int, stats: dict) -> list[Run]:
    directory.mkdir(parents=True)
    people = [f"m{k}" for k in range(n)]
    roster = rng.sample(people, n)
    mode = rng.choice(("sum", "max"))
    normalized = kind != "coalition_table" and rng.random() < 0.5
    fraction = rng.choice(FRACTIONS)
    rounding = rng.choice(("per-recipient", "largest-remainder"))
    n_leaves = rng.randint(6, 18)
    model, leaves, delta = risk_model(rng, n_leaves, rng.randint(1, 3), mode)
    stats["documents.bytes_in"] += _write_json(directory / "risk_model.json", model)

    weight = Fraction(1, n_leaves) if normalized else Fraction(1)
    if kind == "coalition_table":
        terms = _dividends(rng, people)
        table = table_from_terms(roster, terms)
        entries = [
            {"coalition": [p for k, p in enumerate(roster) if mask >> k & 1], "value": str(v)}
            for mask, v in enumerate(table)
        ]
        source_doc = {"players": roster, "entries": entries}
    else:
        attrib = attribution(rng, leaves, people[:-1], rng.randint(3, n_leaves), 2)
        terms = coverage_terms(attrib, weight)
        if kind == "subset_results":
            results = []
            for mask in range(1 << n):
                members = {p for k, p in enumerate(roster) if mask >> k & 1}
                passing = sorted(leaf for leaf, a in attrib.items() if a and a <= members)
                results.append({"subset": sorted(members), "passing": passing})
            source_doc = {"players": roster, "results": results}
        elif kind == "attribution":
            rows = [{"leaf": leaf, "authors": sorted(a)} for leaf, a in attrib.items()]
            source_doc = {"players": roster, "attribution": rows}
        else:
            text, start, commits, claims = commit_log(rng, attrib, people[:-1], rng.randint(80, 200))
            (directory / "commits.log").write_text(text, encoding="utf-8")
            stats["mining.commits"] += commits
            stats["mining.claims"] += claims
            source_doc = None
    if source_doc is None:
        source = {"type": kind, "path": "commits.log", "cycle": {"from_commit": start}, "players": roster}
    else:
        source = {"type": kind, "path": "source.json"}
        stats["documents.bytes_in"] += _write_json(directory / "source.json", source_doc)
    config = _config(source, mode=mode, normalized=normalized, solver={"method": "exact"},
                     fraction=fraction, rounding=rounding)
    stats["documents.bytes_in"] += _write_json(directory / "config.json", config)
    _count_game(stats, n, terms)
    expect = Expect(players=tuple(roster), terms=terms, delta=delta, fraction=fraction,
                    rounding=rounding, currency="USD", method=EXACT)
    out, md = directory / "report.json", directory / "report.md"
    return [
        Run(["payout", "--config", str(directory / "config.json"), "--out", str(out)], out, expect),
        Run(["report", str(out), "--format", "markdown", "--out", str(md)], md, expect, markdown_of=out),
    ]


def org_batch(directory: Path, rng: random.Random) -> Instance:
    stats = _new_stats()
    teams = [(kind, n) for kind in SOURCES for n in BATCH_SIZES]
    rng.shuffle(teams)
    runs = []
    for k, (kind, n) in enumerate(teams):
        runs += small_team(directory / f"team{k:02d}", rng, kind, n, stats)
    return Instance(directory, runs, stats)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def trailers_exact(directory: Path, rng: random.Random) -> Instance:
    return trailer_team(directory, rng, contributors=12, idle=3, n_leaves=40, addressed=36, n_commits=2_000)


def trailers_sampled(directory: Path, rng: random.Random) -> Instance:
    return trailer_team(directory, rng, contributors=36, idle=4, n_leaves=120, addressed=110,
                        n_commits=20_000, samples=1_000)


WORKLOADS = {
    "trailers-exact": trailers_exact,
    "trailers-sampled": trailers_sampled,
    "org-batch": org_batch,
}


def instance(workload: str, root: Path, seed: int, index: int) -> Instance:
    """Input instance ``index`` of ``workload`` under ``seed``, written below ``root``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return WORKLOADS[workload](root / f"{index:05d}", rng)


# --------------------------------------------------------------------------
# The worked example from the paper, asserted once per invocation
# --------------------------------------------------------------------------

WORKED_TABLE = {(): 0, ("A",): 1, ("B",): 0, ("C",): 0, ("A", "B"): 1, ("A", "C"): 2, ("B", "C"): 1, ("A", "B", "C"): 2}
WORKED_PHI = {"A": "7/6", "B": "1/6", "C": "2/3"}
WORKED_BUDGET = "USD 21259.00"
WORKED_PAYMENTS = {"A": "USD 12401.08", "B": "USD 1771.58", "C": "USD 7086.33"}


def worked_example(directory: Path) -> list[str]:
    """Write the three-developer example; return the payout argv."""
    directory.mkdir(parents=True)
    model = {
        "scales": {
            "likelihood": {
                "name": "exploit-likelihood",
                "kind": "likelihood",
                "categories": [
                    {"label": "none", "lo": "0", "hi": "0"},
                    {"label": "low", "lo": "0", "hi": "0.5"},
                    {"label": "medium", "lo": "0.5", "hi": "1"},
                    {"label": "high", "lo": "1", "hi": "1"},
                ],
            },
            "impact": {
                "name": "customer-data-loss",
                "kind": "lookup",
                "categories": [
                    {"label": "none", "lo": "0", "hi": "0"},
                    {"label": "critical", "lo": "2125900", "hi": "15622700"},
                ],
            },
        },
        "threats": [{"id": "T1", "controls": [{"id": "C1", "leaves": [{"id": "U1"}]}]}],
        "assessments": [{
            "threat": "T1", "likelihood_before": "high", "impact_before": "critical",
            "likelihood_after": "none", "impact_after": "none",
        }],
    }
    table = {"players": ["A", "B", "C"],
             "entries": [{"coalition": list(c), "value": str(v)} for c, v in WORKED_TABLE.items()]}
    _write_json(directory / "risk_model.json", model)
    _write_json(directory / "table.json", table)
    _write_json(directory / "config.json", {
        "risk_model": "risk_model.json",
        "source": {"type": "coalition_table", "path": "table.json"},
        "solver": {"method": "exact"},
        "budget": {"fraction": "1/100", "anchor": "lower"},
        "rounding": "per-recipient",
        "output": {"format": "json"},
    })
    return ["payout", "--config", str(directory / "config.json"), "--out", str(directory / "report.json")]
