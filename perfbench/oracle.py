"""Independent expected values for the benchmark's output checks.

Every generated game is a sum of unanimity games with known non-negative
weights (Harsanyi dividends): v(S) = sum of d_T over the terms T inside S.
Its Shapley value is closed form, phi_i = sum of d_T / |T| over the terms
that contain i, so exact runs can be checked without running any solver.
Nothing here imports riskshare.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

#: Per-player failure probability of the Hoeffding check on sampled runs.
HOEFFDING_DELTA = 1e-12

LARGEST_REMAINDER = "largest-remainder"


@dataclass(frozen=True)
class Expect:
    """What one payout report must say, derived from the generated inputs."""

    players: tuple[str, ...]
    terms: tuple[tuple[frozenset, Fraction], ...]  # (required players, dividend)
    delta: tuple[Fraction, Fraction]
    fraction: Fraction
    rounding: str
    currency: str
    method: str  # the solver name the report must carry
    samples: Optional[int] = None
    seed: Optional[int] = None
    scanned: bool = True  # symmetry / null-player scans run (team within the cap)


def closed_form(players, terms) -> dict[str, Fraction]:
    """phi_i = sum of d_T / |T| over the unanimity terms T containing i."""
    phi = {p: Fraction(0) for p in players}
    for required, weight in terms:
        share = weight / len(required)
        for p in required:
            phi[p] += share
    return phi


def max_marginal(players, terms) -> dict[str, Fraction]:
    """Largest marginal contribution of each player: the sum of its terms' weights."""
    top = {p: Fraction(0) for p in players}
    for required, weight in terms:
        for p in required:
            top[p] += weight
    return top


def table_from_terms(players, terms) -> list[Fraction]:
    """v(S) for every subset mask S over ``players`` (bit k is players[k])."""
    index = {p: k for k, p in enumerate(players)}
    masks = [(sum(1 << index[p] for p in required), weight) for required, weight in terms]
    return [
        sum((w for req, w in masks if mask & req == req), Fraction(0))
        for mask in range(1 << len(players))
    ]


def delta_bounds(rows, mode: str) -> tuple[Fraction, Fraction]:
    """Avoided-loss interval from per-threat (lik_before, imp_before, lik_after, imp_after).

    Each item is a (lo, hi) pair of non-negative Fractions; the per-threat
    difference is [lb.lo*ib.lo - la.hi*ia.hi, lb.hi*ib.hi - la.lo*ia.lo],
    aggregated by sum or by endpoint-wise max.
    """
    los, his = [], []
    for lb, ib, la, ia in rows:
        los.append(lb[0] * ib[0] - la[1] * ia[1])
        his.append(lb[1] * ib[1] - la[0] * ia[0])
    if mode == "sum":
        return sum(los, Fraction(0)), sum(his, Fraction(0))
    return max(los), max(his)


def payments(players, phi, budget_minor: int, rounding: str) -> dict[str, int]:
    total = sum(phi.values(), Fraction(0))
    raw = {p: phi[p] / total * budget_minor for p in players}
    if rounding != LARGEST_REMAINDER:
        return {p: math.floor(raw[p] + Fraction(1, 2)) for p in players}
    pay = {p: math.floor(raw[p]) for p in players}
    leftover = budget_minor - sum(pay.values())
    for p in sorted(players, key=lambda p: (pay[p] - raw[p], p))[:leftover]:
        pay[p] += 1
    return pay


def money(minor: int, currency: str) -> str:
    major, cents = divmod(minor, 100)
    return f"{currency} {major}.{cents:02d}"


def check_report(text: str, exp: Expect) -> list[str]:
    """Problems found in one JSON payout report; empty when it is correct.

    A report missing a field raises KeyError or TypeError; the caller counts
    that as a failed check too.
    """
    doc = json.loads(text)
    rows = doc["payouts"]
    got_players = tuple(r["player"] for r in rows)
    got_phi = {r["player"]: Fraction(r["phi"]) for r in rows}
    got_pay = {r["player"]: r["payment"]["amount_minor"] for r in rows}
    budget = doc["budget"]["amount_minor"]
    prov, axioms = doc["provenance"], doc["axioms"]
    if got_players != exp.players:
        return [f"players {got_players} != {exp.players}"]
    want_budget = math.floor(exp.fraction * exp.delta[0] * 100)
    want_phi = closed_form(exp.players, exp.terms)
    problems = []
    if budget != want_budget:
        problems.append(f"budget {budget} != floor(fraction*lo*100) = {want_budget}")
    if (Fraction(prov["delta"]["lo"]), Fraction(prov["delta"]["hi"])) != exp.delta:
        problems.append(f"delta {prov['delta']} != {exp.delta}")
    if doc["rounding_mode"] != exp.rounding or Fraction(doc["fraction"]) != exp.fraction:
        problems.append("rounding mode or fraction not echoed")
    if prov["solver"] != exp.method or prov["samples"] != exp.samples or prov["seed"] != exp.seed:
        problems.append(f"solver provenance {prov['solver']}/{prov['samples']}/{prov['seed']}")
    grand = sum((w for _, w in exp.terms), Fraction(0))
    if sum(got_phi.values(), Fraction(0)) != grand:
        problems.append("sum of phi != v(N)")
    if axioms is None or axioms["efficiency"] != "pass":
        problems.append("efficiency audit missing or failed")
    elif exp.scanned and (axioms["symmetry_violations"] or axioms["null_player_violations"]):
        problems.append("axiom audit reports a violation for a correct computation")
    elif exp.scanned != (axioms["symmetry_violations"] is not None):
        problems.append("structural scans ran (or skipped) against the player cap")
    if exp.samples is None:
        want_pay = payments(exp.players, want_phi, want_budget, exp.rounding)
        if got_phi != want_phi:
            problems.append("phi differs from the closed form")
        elif got_pay != want_pay:
            problems.append(f"payments {got_pay} != {want_pay}")
    else:
        eps = math.sqrt(math.log(2 / HOEFFDING_DELTA) / (2 * exp.samples))
        top = max_marginal(exp.players, exp.terms)
        far = [p for p in exp.players if abs(float(got_phi[p] - want_phi[p])) > float(top[p]) * eps]
        if far:
            problems.append(f"estimates outside the Hoeffding bound: {far}")
        if got_pay != payments(exp.players, got_phi, want_budget, exp.rounding):
            problems.append("payments do not follow the estimated shares")
    if exp.rounding == LARGEST_REMAINDER and sum(got_pay.values()) != budget:
        problems.append("largest-remainder payments do not sum to the budget")
    return problems


def check_markdown(text: str, exp: Expect, report_json: str) -> list[str]:
    """The markdown rendering must carry the budget and every row of the JSON report."""
    doc = json.loads(report_json)
    lines = set(text.splitlines())
    problems = []
    budget = money(doc["budget"]["amount_minor"], exp.currency)
    if not any(line.startswith(f"- budget: **{budget}**") for line in lines):
        problems.append(f"markdown lacks the budget line for {budget}")
    for row in doc["payouts"]:
        pay = money(row["payment"]["amount_minor"], exp.currency)
        want = f"| {row['player']} | {row['phi']} | {row['share']} | {pay} |"
        if want not in lines:
            problems.append(f"markdown lacks row {want!r}")
    return problems
