"""Qualitative scales, threat trees, and interval-valued risk.

Likelihood and damage assessments arrive as category labels on small ordered
scales. Each category carries exact rational bounds, so "risk = likelihood x
impact" and the mitigation delta are evaluated with interval arithmetic and
stay convertible to money without ever committing to a point estimate.
"""

from __future__ import annotations

from typing import Iterable

from ._frozen import frozen
from .errors import UnknownLabelError
from .intervals import ZERO, Interval, interval_add, interval_mul, interval_sub

LIKELIHOOD = "likelihood"
IMPACT = "impact"
LOOKUP = "lookup"
SCALE_KINDS = (LIKELIHOOD, IMPACT, LOOKUP)

SUM = "sum"
MAX = "max"
AGGREGATION_MODES = (SUM, MAX)


@frozen
class ValidationIssue:
    location: str
    message: str
    severity: str = "error"  # "error" | "warning"

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


@frozen
class ValidationReport:
    """Accumulated validation findings; empty report means all invariants hold."""

    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(issue.severity == "error" for issue in self.issues)

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")


@frozen
class QualitativeScale:
    """Ordered set of labelled categories with exact interval bounds.

    Assessments name categories by label, and :meth:`resolve` gives their
    bounds. :func:`validate_scale` checks that the kinds below hold. Kinds:

    * ``likelihood`` -- contiguous categories covering [0, 1].
    * ``impact`` -- contiguous categories covering [0, cap]; the finite
      ``hi`` of the last category stands in for an unbounded top.
    * ``lookup`` -- plain label-to-range map (e.g. business loss ranges that
      are not contiguous); only its labels must be unique.
    """

    name: str
    kind: str
    categories: tuple[tuple[str, Interval], ...]

    def __post_init__(self):
        if self.kind not in SCALE_KINDS:
            raise ValueError(f"unknown scale kind {self.kind!r}; expected one of {SCALE_KINDS}")
        object.__setattr__(self, "categories", tuple((l, b) for l, b in self.categories))
        for label, _ in self.categories:
            if not isinstance(label, str):
                raise ValueError(f"scale {self.name!r}: category label {label!r} is not a string")
        if not self.categories:
            raise ValueError(f"scale {self.name!r} has no categories")

    def resolve(self, label: str) -> Interval:
        """Bounds of a category label; raises UnknownLabelError otherwise."""
        for cat_label, bounds in self.categories:
            if cat_label == label:
                return bounds
        raise UnknownLabelError(self.name, label)


def validate_scale(scale: QualitativeScale) -> ValidationReport:
    """Report every invariant violation of a scale; never raises.

    Partition requirements (contiguity, range endpoints) apply only to the
    ``likelihood`` and ``impact`` kinds; ``lookup`` scales only need unique
    labels since they are never used for classification.
    """
    issues: list[ValidationIssue] = []
    seen: dict[str, int] = {}
    for k, (label, _) in enumerate(scale.categories):
        if label in seen:
            issues.append(
                ValidationIssue(
                    f"categories[{k}]",
                    f"duplicate label {label!r} (first at index {seen[label]})",
                )
            )
        else:
            seen[label] = k

    if scale.kind == LOOKUP:
        return ValidationReport(tuple(issues))

    cats = scale.categories
    for k in range(1, len(cats)):
        prev_hi = cats[k - 1][1].hi
        lo = cats[k][1].lo
        if lo < cats[k - 1][1].lo:
            issues.append(ValidationIssue(f"categories[{k}]", "out of order: lo decreases"))
        if lo != prev_hi:
            issues.append(
                ValidationIssue(
                    f"categories[{k}]",
                    f"non-contiguous at index {k}: lo {lo} != previous hi {prev_hi}",
                )
            )
    if cats[0][1].lo != 0:
        issues.append(ValidationIssue("categories[0]", f"first lo must be 0, got {cats[0][1].lo}"))
    if scale.kind == LIKELIHOOD and cats[-1][1].hi != 1:
        issues.append(
            ValidationIssue(
                f"categories[{len(cats) - 1}]",
                f"likelihood scale must end at 1, got {cats[-1][1].hi}",
            )
        )
    return ValidationReport(tuple(issues))


@frozen
class ScaleSet:
    """The two scales an assessment resolves against."""

    likelihood: QualitativeScale
    impact: QualitativeScale

    def __post_init__(self):
        if self.likelihood.kind != LIKELIHOOD:
            raise ValueError(f"likelihood slot needs a likelihood scale, got kind {self.likelihood.kind!r}")
        if self.impact.kind not in (IMPACT, LOOKUP):
            raise ValueError(f"impact slot needs an impact or lookup scale, got kind {self.impact.kind!r}")


# --------------------------------------------------------------------------
# Threat tree
# --------------------------------------------------------------------------


@frozen
class LeafCondition:
    """A verifiable check (test case, review item) for a control."""

    id: str
    label: str = ""


@frozen
class Control:
    """A countermeasure, verified by one or more leaf conditions."""

    id: str
    label: str = ""
    leaves: tuple[LeafCondition, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))


@frozen
class Threat:
    id: str
    label: str = ""
    controls: tuple[Control, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))


@frozen
class ThreatTree:
    """Threats -> controls -> leaf conditions; leaves are the unit of attribution."""

    threats: tuple[Threat, ...]

    def __post_init__(self):
        object.__setattr__(self, "threats", tuple(self.threats))

    def leaves(self) -> tuple[LeafCondition, ...]:
        return tuple(leaf for t in self.threats for c in t.controls for leaf in c.leaves)

    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(leaf.id for leaf in self.leaves())

    @property
    def leaf_count(self) -> int:
        return len(self.leaves())


def validate_threat_tree(tree: ThreatTree) -> ValidationReport:
    """Structural checks: globally unique ids, no childless controls or threats."""
    issues: list[ValidationIssue] = []
    seen: dict[str, str] = {}

    def check_id(node_id: str, where: str):
        if node_id in seen:
            issues.append(ValidationIssue(where, f"duplicate id {node_id!r} (also used at {seen[node_id]})"))
        else:
            seen[node_id] = where

    for t in tree.threats:
        check_id(t.id, f"threat {t.id!r}")
        if not t.controls:
            issues.append(ValidationIssue(f"threat {t.id!r}", "threat has no controls"))
        for c in t.controls:
            check_id(c.id, f"control {c.id!r}")
            if not c.leaves:
                issues.append(ValidationIssue(f"control {c.id!r}", "control has no leaf conditions"))
            for leaf in c.leaves:
                check_id(leaf.id, f"leaf {leaf.id!r}")
    return ValidationReport(tuple(issues))


# --------------------------------------------------------------------------
# Assessments and risk
# --------------------------------------------------------------------------


@frozen
class ThreatAssessment:
    """Per-threat category labels before and after mitigation."""

    threat_id: str
    likelihood_before: str
    impact_before: str
    likelihood_after: str
    impact_after: str

    def resolve(self, scales: ScaleSet) -> tuple[Interval, Interval, Interval, Interval]:
        """(likelihood_before, impact_before, likelihood_after, impact_after) bounds."""
        return (
            scales.likelihood.resolve(self.likelihood_before),
            scales.impact.resolve(self.impact_before),
            scales.likelihood.resolve(self.likelihood_after),
            scales.impact.resolve(self.impact_after),
        )


def validate_assessments(assessments: Iterable[ThreatAssessment], scales: ScaleSet, tree: ThreatTree) -> ValidationReport:
    """Check label resolution, threat-id references, and mitigation direction.

    A mitigation that worsens both likelihood and impact upper bounds is
    reported as a warning issue, not an error: the run can proceed but the
    claim deserves scrutiny. The issue is the only report of it.
    """
    issues: list[ValidationIssue] = []
    known_threats = {t.id for t in tree.threats}
    seen_ids: set[str] = set()
    for k, a in enumerate(assessments):
        where = f"assessments[{k}]"
        if a.threat_id in seen_ids:
            issues.append(ValidationIssue(where, f"duplicate assessment for threat {a.threat_id!r}"))
        seen_ids.add(a.threat_id)
        if a.threat_id not in known_threats:
            issues.append(ValidationIssue(where, f"unknown threat id {a.threat_id!r}"))
        try:
            lb, ib, la, ia = a.resolve(scales)
        except UnknownLabelError as exc:
            issues.append(ValidationIssue(where, str(exc)))
            continue
        if la.hi > lb.hi and ia.hi > ib.hi:
            msg = f"mitigation worsens both likelihood ({lb.hi} -> {la.hi}) and impact ({ib.hi} -> {ia.hi})"
            issues.append(ValidationIssue(where, msg, severity="warning"))
    return ValidationReport(tuple(issues))


def _aggregate(parts: list[Interval], mode: str) -> Interval:
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}; expected one of {AGGREGATION_MODES}")
    if not parts:
        return ZERO
    if mode == SUM:
        total = parts[0]
        for p in parts[1:]:
            total = interval_add(total, p)
        return total
    return Interval(max(p.lo for p in parts), max(p.hi for p in parts))


def risk_delta(
    assessments: Iterable[ThreatAssessment], scales: ScaleSet, mode: str = SUM, *, findings: list[ValidationIssue]
) -> Interval:
    """Risk reduction achieved by mitigation, evaluated threat-wise.

    Each threat contributes ``before_i - after_i`` (interval subtraction),
    where each side is likelihood x impact from the threat's labels; the
    per-threat differences are then aggregated with ``mode``. This is
    deliberately *not* the aggregated before minus the aggregated after,
    which would double-count the spread across threats.

    A mitigation is assumed not to add risk: a difference whose lower end is
    negative is raised to ``[0, max(hi, 0)]``, and a warning issue naming the
    threat is appended to ``findings``, so inputs violating that stay visible.
    """
    deltas = []
    for a in assessments:
        lb, ib, la, ia = a.resolve(scales)
        delta = interval_sub(interval_mul(lb, ib), interval_mul(la, ia))
        if delta.lo < 0:
            clamped = Interval(0, max(delta.hi, 0))
            message = f"threat {a.threat_id!r}: risk difference {delta} clamped to {clamped}"
            findings.append(ValidationIssue("ClampWarning", message, severity="warning"))
            delta = clamped
        deltas.append(delta)
    return _aggregate(deltas, mode)


@frozen
class RiskModel:
    """Aggregate of everything a risk-model document provides."""

    scales: ScaleSet
    tree: ThreatTree
    assessments: tuple[ThreatAssessment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "assessments", tuple(self.assessments))

    def validate(self) -> ValidationReport:
        """The findings of both scales, the tree and the assessments, each location prefixed with its part."""
        parts = (
            (f"scale {self.scales.likelihood.name!r}: ", validate_scale(self.scales.likelihood)),
            (f"scale {self.scales.impact.name!r}: ", validate_scale(self.scales.impact)),
            ("tree: ", validate_threat_tree(self.tree)),
            ("", validate_assessments(self.assessments, self.scales, self.tree)),
        )
        return ValidationReport(tuple(
            ValidationIssue(prefix + i.location, i.message, i.severity) for prefix, part in parts for i in part.issues
        ))
