"""Budget derivation and proportional payments with an auditable trail.

The avoided-loss interval fixes how much money is on the table; a configured
fraction and anchor pick the budget inside it; payments split the budget in
proportion to normalized Shapley shares. Because a payment ledger must add up,
two rounding modes are offered:

* ``per-recipient`` -- round each raw amount half-up on its own. Simple to
  explain to each recipient, but the column sum can drift from the budget by
  up to ``n - 1`` minor units; the drift is reported, never hidden.
* ``largest-remainder`` -- floor every raw amount to minor units, then hand
  the leftover units to the largest dropped fractions (ties by player id).
  The column sum equals the budget exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Optional

from ._frozen import frozen
from .documents import _expect, _field, _integer, _interval, _list, _nullable, _rational, _record, _string, loads_exact
from .errors import DocumentError, PayoutError
from .intervals import Interval, Rationalish, as_fraction
from .shapley import AxiomReport, ShapleyResult

ANCHOR_LOWER = "lower"
ANCHOR_UPPER = "upper"
ANCHOR_MIDPOINT = "midpoint"
ANCHOR_EXPLICIT = "explicit"
ANCHORS = (ANCHOR_LOWER, ANCHOR_UPPER, ANCHOR_MIDPOINT, ANCHOR_EXPLICIT)

PER_RECIPIENT = "per-recipient"
LARGEST_REMAINDER = "largest-remainder"
ROUNDING_MODES = (PER_RECIPIENT, LARGEST_REMAINDER)

REPORT_FORMATS = ("json", "csv", "markdown")

MINOR_UNITS_PER_MAJOR = 100


@frozen
class Money:
    """Non-negative amount in integer minor units (e.g. cents)."""

    amount_minor: int
    currency: str = "USD"

    def __post_init__(self):
        if not isinstance(self.amount_minor, int) or isinstance(self.amount_minor, bool):
            raise TypeError(f"amount_minor must be int, got {type(self.amount_minor).__name__}")
        if self.amount_minor < 0:
            raise ValueError(f"money amounts must be >= 0, got {self.amount_minor}")

    def display(self) -> str:
        major, minor = divmod(self.amount_minor, MINOR_UNITS_PER_MAJOR)
        return f"{major}.{minor:02d}"

    def __str__(self) -> str:
        return f"{self.currency} {self.display()}"


@frozen
class PlayerPayout:
    player: str
    phi: Fraction
    share: Fraction
    payment: Money


@frozen
class Provenance:
    """Where the numbers came from: game source, risk delta, solver identity."""

    game_source: str
    delta: Interval
    solver: str
    samples: Optional[int] = None
    seed: Optional[int] = None


@frozen
class PayoutReport:
    """Complete, reproducible record of one payment run."""

    budget: Money
    anchor: str
    fraction: Fraction
    rounding_mode: str
    payouts: tuple[PlayerPayout, ...]
    residual_minor: int
    provenance: Provenance
    axioms: AxiomReport
    notice: Optional[str] = None


def _budget_fraction(value: Rationalish) -> Fraction:
    fraction = as_fraction(value)
    if fraction < 0 or fraction > 1:
        raise PayoutError(f"fraction must lie in [0, 1], got {fraction}")
    return fraction


def compute_budget(
    delta: Interval,
    fraction: Rationalish,
    anchor: str,
    *,
    explicit_value: Optional[Rationalish] = None,
    currency: str = "USD",
) -> Money:
    """Budget = fraction x an anchored point of the avoided-loss interval.

    ``anchor`` picks the point: the interval's lower end, upper end, midpoint,
    or an explicit caller-supplied value that must lie inside the interval.
    The product is floored to minor units.
    """
    fraction = _budget_fraction(fraction)
    if delta.lo < 0:
        raise PayoutError(f"risk delta must be non-negative, got {delta}")
    if anchor == ANCHOR_LOWER:
        point = delta.lo
    elif anchor == ANCHOR_UPPER:
        point = delta.hi
    elif anchor == ANCHOR_MIDPOINT:
        point = (delta.lo + delta.hi) / 2
    elif anchor == ANCHOR_EXPLICIT:
        if explicit_value is None:
            raise PayoutError("anchor 'explicit' requires explicit_value")
        point = as_fraction(explicit_value)
        if not delta.contains(point):
            raise PayoutError(f"explicit budget anchor {point} outside risk delta {delta}")
    else:
        raise PayoutError(f"unknown anchor {anchor!r}; expected one of {ANCHORS}")
    minor = math.floor(fraction * point * MINOR_UNITS_PER_MAJOR)
    return Money(minor, currency)


def allocate_payments(
    result: ShapleyResult,
    budget: Money,
    rounding_mode: str = PER_RECIPIENT,
    *,
    anchor: str = ANCHOR_EXPLICIT,
    fraction: Rationalish = 1,
    provenance: Provenance,
    axioms: AxiomReport,
) -> PayoutReport:
    """Split ``budget`` across players in proportion to their shares.

    ``anchor`` and ``fraction`` only annotate the report with how the budget
    was derived; when a caller supplies a ready-made budget the defaults
    ("explicit", 1) state exactly that. They are checked as
    :func:`compute_budget` checks them, so that :func:`parse_report` reads
    back every report this writes. ``provenance`` and ``axioms`` (the
    :func:`~riskshare.shapley.check_axioms` audit of ``result``) go into the
    report unchanged, so that every report explains its payments.

    Any negative contribution is rejected outright rather than clamped: the
    games this library builds are monotone, so a negative value signals a
    modeling error that silent repair would bury. A zero total contribution
    yields zero payments with an explanatory notice.
    """
    if rounding_mode not in ROUNDING_MODES:
        raise PayoutError(f"unknown rounding mode {rounding_mode!r}; expected one of {ROUNDING_MODES}")
    if anchor not in ANCHORS:
        raise PayoutError(f"unknown anchor {anchor!r}; expected one of {ANCHORS}")
    fraction = _budget_fraction(fraction)
    players = result.players
    negatives = [p for p in players if result.phi[p] < 0]
    if negatives:
        raise PayoutError(f"negative contribution unsupported (players {negatives})")

    shares = result.share
    notice = None
    if shares is None:
        notice = "total contribution is zero; shares are undefined and every payment is 0"
        shares = {p: Fraction(0) for p in players}
        payments = {p: 0 for p in players}
    else:
        raw = {p: shares[p] * budget.amount_minor for p in players}
        if rounding_mode == PER_RECIPIENT:
            payments = {p: math.floor(raw[p] + Fraction(1, 2)) for p in players}
        else:
            payments = {p: math.floor(raw[p]) for p in players}
            leftover = budget.amount_minor - sum(payments.values())
            # one unit per player at most: the dropped fractions sum to `leftover`
            by_remainder = sorted(players, key=lambda p: (-(raw[p] - payments[p]), p))
            for p in by_remainder[:leftover]:
                payments[p] += 1

    payouts = tuple(
        PlayerPayout(p, result.phi[p], shares[p], Money(payments[p], budget.currency))
        for p in players
    )
    residual = sum(payments.values()) - budget.amount_minor
    return PayoutReport(
        budget=budget,
        anchor=anchor,
        fraction=fraction,
        rounding_mode=rounding_mode,
        payouts=payouts,
        residual_minor=residual,
        provenance=provenance,
        axioms=axioms,
        notice=notice,
    )


# --------------------------------------------------------------------------
# Rendering and parsing
# --------------------------------------------------------------------------


def _axioms_dict(ax: AxiomReport) -> dict:
    return {
        "efficiency_residual": str(ax.efficiency_residual),
        "efficiency": "pass" if ax.efficiency_ok else "fail",
        "symmetry_violations": None if ax.symmetry_violations is None else [list(p) for p in ax.symmetry_violations],
        "null_player_violations": list(ax.null_player_violations),
        "linearity": None,  # not audited; kept so stored reports stay byte-identical
    }


def report_to_dict(report: PayoutReport) -> dict:
    return {
        "budget": {"amount_minor": report.budget.amount_minor, "currency": report.budget.currency},
        "anchor": report.anchor,
        "fraction": str(report.fraction),
        "rounding_mode": report.rounding_mode,
        "residual_minor": report.residual_minor,
        "payouts": [
            {
                "player": row.player,
                "phi": str(row.phi),
                "share": str(row.share),
                "payment": {"amount_minor": row.payment.amount_minor, "currency": row.payment.currency},
            }
            for row in report.payouts
        ],
        "provenance": {
            "game_source": report.provenance.game_source,
            "delta": {"lo": str(report.provenance.delta.lo), "hi": str(report.provenance.delta.hi)},
            "solver": report.provenance.solver,
            "samples": report.provenance.samples,
            "seed": report.provenance.seed,
        },
        "axioms": _axioms_dict(report.axioms),
        "notice": report.notice,
    }


def render_report(report: PayoutReport, format: str = "json") -> str:
    """Serialize a report deterministically (byte-stable for fixed inputs)."""
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["player", "phi", "share", "payment_minor", "payment", "currency"])
        for row in report.payouts:
            writer.writerow(
                [row.player, row.phi, row.share, row.payment.amount_minor, row.payment.display(), row.payment.currency]
            )
        writer.writerow([])
        writer.writerow(["budget", "", "", report.budget.amount_minor, report.budget.display(), report.budget.currency])
        writer.writerow(["residual_minor", "", "", report.residual_minor, "", ""])
        return buf.getvalue()
    if format == "markdown":
        return _render_markdown(report)
    raise DocumentError(f"unknown report format {format!r}; expected one of {REPORT_FORMATS}")


def _escaped(cell) -> str:
    """``cell`` as markdown text: a "|" would end a table cell and a line break the line; "." keeps a final break."""
    return "<br>".join((str(cell).replace("|", "\\|") + ".").splitlines())[:-1]


def _render_markdown(report: PayoutReport) -> str:
    prov = report.provenance
    # the header's strings come from a config or a stored report: escaped, a line break cannot start a heading
    header = (report.budget.currency, report.anchor, prov.game_source, prov.solver)
    currency, anchor, source, solver = map(_escaped, header)
    lines = [
        "# Security bonus report",
        "",
        f"- budget: **{currency} {report.budget.display()}** "
        f"(anchor `{anchor}`, fraction `{report.fraction}` of the avoided loss)",
        f"- rounding: `{report.rounding_mode}`, residual {report.residual_minor} minor unit(s)",
        f"- game source: `{source}`",
        f"- solver: `{solver}`" + (f" (samples={prov.samples}, seed={prov.seed})" if prov.samples is not None else ""),
        f"- avoided-loss range: **[{prov.delta.lo}, {prov.delta.hi}]** ({currency}, exact bounds)",
    ]
    if report.notice:
        lines += ["", f"> {_escaped(report.notice)}"]
    lines += [
        "",
        "| player | contribution (phi) | share | payment |",
        "|--------|--------------------|-------|---------|",
    ]
    for row in report.payouts:
        lines.append(f"| {' | '.join(map(_escaped, (row.player, row.phi, row.share, row.payment)))} |")
    ax = report.axioms
    lines += ["", "## Fairness audit", "",
              f"- efficiency: {'pass' if ax.efficiency_ok else 'FAIL'} (residual {ax.efficiency_residual})"]
    if ax.symmetry_violations is None:
        lines.append("- symmetry: not audited (sampled estimate)")
    elif ax.symmetry_violations:
        pairs = ", ".join(f"{_escaped(a)}/{_escaped(b)}" for a, b in ax.symmetry_violations)
        lines.append(f"- symmetry: FAIL (equal contributors paid differently: {pairs})")
    else:
        lines.append("- symmetry: pass (equal contributors are paid equally)")
    if ax.null_player_violations:
        paid = ", ".join(map(_escaped, ax.null_player_violations))
        lines.append(f"- null player: FAIL (zero contributors paid: {paid})")
    else:
        lines.append("- null player: pass (only actual contributions are paid)")
    return "\n".join(lines) + "\n"


def _each(value, where: str, read, *args) -> tuple:
    return tuple(read(item, f"{where}[{k}]", *args) for k, item in enumerate(_list(value, where)))


def _ratio(value, where: str) -> Fraction:
    return _rational(_string(value, where), where)  # a string, as render_report writes every rational


def _fraction(value, where: str) -> Fraction:
    fraction = _ratio(value, where)
    if not 0 <= fraction <= 1:  # compute_budget's rule
        raise DocumentError(f"{where}: must lie in [0, 1], got {fraction}")
    return fraction


def _known(value, where: str, options: tuple[str, ...]) -> str:
    if _string(value, where) not in options:
        raise DocumentError(f"{where}: expected one of {', '.join(options)}, got {value!r}")
    return value


def _money(value, where: str) -> Money:
    doc = _record(value, where, ("amount_minor", "currency"))
    amount = _field(doc, "amount_minor", where, _integer)
    if amount < 0:
        raise DocumentError(f"{where}.amount_minor: money amounts must be >= 0, got {amount}")
    return Money(amount, _field(doc, "currency", where, _string))


def _player(value, where: str, players: set[str]) -> str:
    if _string(value, where) not in players:
        raise DocumentError(f"{where}: {value!r} is not a player of the report's payouts")
    return value


def _pair(value, where: str, players: set[str]) -> tuple[str, ...]:
    if len(_list(value, where)) != 2:
        raise DocumentError(f"{where}: expected two player ids, got {len(value)}")
    pair = _each(value, where, _player, players)
    if pair[0] == pair[1]:
        raise DocumentError(f"{where}: names player {pair[0]!r} twice")
    return pair


def _axioms(value, where: str, players: set[str]) -> AxiomReport:
    keys = ("efficiency_residual", "efficiency", "symmetry_violations", "null_player_violations", "linearity")
    ax = _record(value, where, keys)
    residual = _field(ax, "efficiency_residual", where, _ratio)
    efficiency = _field(ax, "efficiency", where, _known, ("pass", "fail"))
    if (efficiency == "pass") != (residual == 0):
        raise DocumentError(f"{where}.efficiency: {efficiency!r} contradicts efficiency_residual {residual}")
    linearity = _expect(ax, "linearity", where)
    if linearity is not None:
        raise DocumentError(f"{where}.linearity: expected null, got {linearity!r}")
    return AxiomReport(
        efficiency_residual=residual,
        symmetry_violations=_nullable(ax, "symmetry_violations", where, _each, _pair, players),
        null_player_violations=_field(ax, "null_player_violations", where, _each, _player, players),
    )


def _payout(value, where: str, seen: set[str]) -> PlayerPayout:
    row = _record(value, where, ("player", "phi", "share", "payment"))
    player = _field(row, "player", where, _string)
    if player in seen:
        raise DocumentError(f"{where}.player: duplicate player {player!r}")
    seen.add(player)
    return PlayerPayout(
        player=player,
        phi=_field(row, "phi", where, _ratio),
        share=_field(row, "share", where, _ratio),
        payment=_field(row, "payment", where, _money),
    )


def parse_report(text: str) -> PayoutReport:
    """Inverse of ``render_report(..., "json")``; round-trips exactly.

    Rationals must be JSON strings and amounts JSON integers, as
    :func:`render_report` writes them, and the anchor and rounding mode must
    be known values, and ``fraction`` must lie in [0, 1], as :func:`compute_budget`
    requires. Every object holds exactly the keys the renderer writes,
    ``axioms.efficiency`` must agree with ``efficiency_residual``,
    ``axioms.linearity`` must be null, ``payouts`` must name each player once,
    and every id in the audit's violation lists must be a player of
    ``payouts``, a symmetry pair naming two different ones.
    Anything else is a :class:`DocumentError` naming the field, such as
    ``payouts[0].phi``; for text that is not JSON it begins ``invalid JSON:``.
    """
    keys = ("budget", "anchor", "fraction", "rounding_mode", "residual_minor",
            "payouts", "provenance", "axioms", "notice")
    doc = _record(loads_exact(text), "", keys)
    prov = _field(doc, "provenance", "", _record, ("game_source", "delta", "solver", "samples", "seed"))
    return PayoutReport(
        budget=_field(doc, "budget", "", _money),
        anchor=_field(doc, "anchor", "", _known, ANCHORS),
        fraction=_field(doc, "fraction", "", _fraction),
        rounding_mode=_field(doc, "rounding_mode", "", _known, ROUNDING_MODES),
        payouts=(payouts := _field(doc, "payouts", "", _each, _payout, set())),
        residual_minor=_field(doc, "residual_minor", "", _integer),
        provenance=Provenance(
            game_source=_field(prov, "game_source", "provenance", _string),
            delta=_interval(_field(prov, "delta", "provenance", _record, ("lo", "hi")), "provenance.delta", _ratio),
            solver=_field(prov, "solver", "provenance", _string),
            samples=_nullable(prov, "samples", "provenance", _integer),
            seed=_nullable(prov, "seed", "provenance", _integer),
        ),
        axioms=_field(doc, "axioms", "", _axioms, {row.player for row in payouts}),
        notice=_nullable(doc, "notice", "", _string),
    )
