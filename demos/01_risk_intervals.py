#!/usr/bin/env python3
"""Qualitative risk on exact intervals, from category labels to money.

A walkthrough of the risk side of the library: define small labelled scales,
check that they partition their range, and turn before/after assessments
into an exact avoided-loss interval. Every number below is an exact rational; nothing is
rounded until someone converts to cents at the very end of the pipeline.
"""

from riskshare import (
    Interval,
    QualitativeScale,
    ScaleSet,
    ThreatAssessment,
    interval_add,
    interval_mul,
    risk_delta,
    validate_scale,
)

# ---------------------------------------------------------------------------
# 1. Scales: ordered labelled categories with exact bounds
# ---------------------------------------------------------------------------

# A severity-score partition (0..10): each band starts where the previous one
# ends, so the bands cover the whole range without gaps.
severity = QualitativeScale(
    "severity-score",
    "impact",
    (
        ("none", Interval(0, "0.1")),
        ("low", Interval("0.1", 4)),
        ("medium", Interval(4, 7)),
        ("high", Interval(7, 9)),
        ("critical", Interval(9, 10)),
    ),
)

print("severity scale valid:", validate_scale(severity).ok)
for label, bounds in severity.categories:
    print(f"  {label:>8}: {bounds}")

# A non-contiguous scale is reported, not silently accepted:
gappy = QualitativeScale(
    "gappy", "likelihood", (("low", Interval(0, "0.3")), ("high", Interval("0.5", 1)))
)
for issue in validate_scale(gappy).issues:
    print("  validation issue:", issue)

# ---------------------------------------------------------------------------
# 2. The two scales a team actually assesses against
# ---------------------------------------------------------------------------

# Likelihood of exploitation. "high" is pinned to the point [1, 1]: a publicly
# known exploit is assumed to be used eventually.
likelihood = QualitativeScale(
    "exploit-likelihood",
    "likelihood",
    (
        ("none", Interval(0, 0)),
        ("low", Interval(0, "0.5")),
        ("medium", Interval("0.5", 1)),
        ("high", Interval(1, 1)),
    ),
)

# Business impact as loss *ranges* per band (a lookup scale: resolves labels
# to money intervals, deliberately exempt from the partition rules).
losses = QualitativeScale(
    "customer-data-loss",
    "lookup",
    (
        ("none", Interval(0, 0)),
        ("low", Interval(18_120, 35_730)),
        ("medium", Interval(52_260, 223_400)),
        ("high", Interval(366_500, 1_775_350)),
        ("critical", Interval(2_125_900, 15_622_700)),
    ),
)

scales = ScaleSet(likelihood=likelihood, impact=losses)

# ---------------------------------------------------------------------------
# 3. Before/after assessments and the avoided loss
# ---------------------------------------------------------------------------

# One threat, fully mitigated: likelihood drops from "high" (certain) to
# "none" once the enabling vulnerabilities are verifiably fixed.
data_breach = ThreatAssessment(
    threat_id="T1",
    likelihood_before="high",
    impact_before="critical",
    likelihood_after="none",
    impact_after="none",
)



def before_and_after(assessment):
    """Likelihood x impact of a threat before and after mitigation, from its four labels."""
    likelihood_before, impact_before, likelihood_after, impact_after = assessment.resolve(scales)
    return interval_mul(likelihood_before, impact_before), interval_mul(likelihood_after, impact_after)


before, after = before_and_after(data_breach)
findings = []  # risk_delta appends a warning here for each threat whose difference it clamps at zero
delta = risk_delta([data_breach], scales, findings=findings)
print("\nsingle mitigated threat:")
print("  risk before :", before)
print("  risk after  :", after)
print("  avoided loss:", delta)

# With several threats the default mode sums per-threat risk; "max" keeps the
# worst single threat (the cautious reading for systems that fail as a whole).
web = ThreatAssessment("T-web", "medium", "high", "low", "medium")
api = ThreatAssessment("T-api", "low", "medium", "none", "none")
print("\ntwo partially mitigated threats:")
print("  sum of deltas:", risk_delta([web, api], scales, findings=findings))
print("  worst delta  :", risk_delta([web, api], scales, mode="max", findings=findings))

# The delta is computed threat-wise (before_i - after_i, then aggregate),
# which is tighter and fairer than subtracting the aggregated intervals:
(web_before, web_after), (api_before, api_after) = before_and_after(web), before_and_after(api)
loose = interval_add(web_before, api_before).lo - interval_add(web_after, api_after).hi
print("  aggregate-wise lower bound would be", loose, "(can even go negative)")
print("  threat-wise lower bound stays at   ", risk_delta([web, api], scales, findings=findings).lo)

assert delta == Interval(2_125_900, 15_622_700)
assert findings == []  # no mitigation here adds risk, so no difference was clamped
print("\nall narrative claims hold exactly")
