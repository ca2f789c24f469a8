"""Spans around riskshare's public calls, recorded from outside the program.

The traced run installs wrappers on the names ``riskshare.cli`` calls through
(its imported functions, the ``documents`` loaders, ``RiskModel.validate``)
and then drives the unmodified ``cli.main``. Spans stay in memory; each
layer's self time is its span time minus the time of the spans it caused.
A patch point the program no longer has is skipped and reported, so its time
falls to the enclosing layer instead of breaking the run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    op: int = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].children_s += span.end - span.start

    def wrap(self, fn, name):
        """``name`` is a span name, or a callable choosing one from the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[int, dict[str, float]]:
        """op -> span name -> summed self time."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s.op][s.name] += (s.end - s.start) - s.children_s
        return out


def _render_span(report, format="json"):
    return "payout.render_md" if format == "markdown" else "payout.render"


def patch_points(riskshare):
    """(owner, attribute, span name) in ``cmd_payout``'s call order, then ``cmd_report``'s."""
    cli, documents = riskshare.cli, riskshare.documents
    return [
        (cli, "load_run_config", "config.load"),
        (documents, "load_risk_model", "documents.load"),
        (riskshare.risk.RiskModel, "validate", "risk.validate"),
        (cli, "risk_delta", "risk.delta"),
        (cli, "compute_budget", "payout.budget"),
        (documents, "load_coalition_game", "documents.load"),
        (documents, "game_from_table", "games.build"),
        (documents, "load_attribution", "documents.load"),
        (documents, "load_subset_results", "documents.load"),
        (cli, "parse_commit_log", "mining.parse"),
        (cli, "derive_attribution", "mining.attribute"),
        (cli, "leaf_coverage_game", "games.build"),
        (cli, "game_from_subset_results", "games.build"),
        (cli, "shapley_exact", "shapley.solve"),
        (cli, "shapley_monte_carlo", "shapley.solve"),
        (cli, "check_axioms", "shapley.audit"),
        (cli, "allocate_payments", "payout.allocate"),
        (cli, "render_report", _render_span),
        (cli, "parse_report", "payout.parse"),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, riskshare, cap: int):
    """Install the span wrappers; yield the patch points that were missing.

    Before each solver call the game's table is materialized explicitly
    (for teams within ``cap``), so table building shows as ``games.materialize``
    rather than inside ``shapley.solve``. The table is cached on the game, so
    the solver's result does not change.
    """
    saved, missing = [], []
    for owner, attr, name in patch_points(riskshare):
        if not hasattr(owner, attr):
            missing.append(f"{owner.__name__}.{attr}")
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name)
        if name == "shapley.solve":
            wrapped = _materializing(tracer, wrapped, cap)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _materializing(tracer: Tracer, solve, cap: int):
    @functools.wraps(solve)
    def run(game, *args, **kwargs):
        if game.n <= cap:
            with tracer.span("games.materialize"):
                game.value_table()
        return solve(game, *args, **kwargs)

    return run
