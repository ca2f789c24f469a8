import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskshare import (
    Interval,
    QualitativeScale,
    ScaleSet,
    ThreatAssessment,
    ThreatTree,
    UnknownLabelError,
    ValidationIssue,
    interval_mul,
    risk_delta,
    validate_assessments,
    validate_scale,
    validate_threat_tree,
)
from riskshare.risk import Control, LeafCondition, Threat

from conftest import build_full_mitigation_assessment, build_three_fix_tree, build_unit_scales


def two_category_likelihood() -> QualitativeScale:
    return QualitativeScale(
        "simple", "likelihood", (("low", Interval(0, "0.5")), ("high", Interval("0.5", 1)))
    )


class TestValidateScale:
    def test_minimal_two_category_partition_is_valid(self):
        assert validate_scale(two_category_likelihood()).ok

    def test_gap_is_flagged_non_contiguous(self):
        scale = QualitativeScale(
            "gappy", "likelihood", (("low", Interval(0, "0.3")), ("high", Interval("0.5", 1)))
        )
        report = validate_scale(scale)
        assert not report.ok
        assert any("non-contiguous at index 1" in issue.message for issue in report.issues)

    def test_loss_ranges_declared_as_impact_partition_fail(self):
        # business loss ranges are not a partition; as kind="impact" they must be rejected
        scale = QualitativeScale(
            "losses",
            "impact",
            (
                ("none", Interval(0, 0)),
                ("low", Interval(18120, 35730)),
                ("medium", Interval(52260, 223400)),
            ),
        )
        report = validate_scale(scale)
        assert not report.ok
        assert any("non-contiguous" in issue.message for issue in report.issues)

    def test_same_ranges_as_lookup_are_fine(self):
        scale = QualitativeScale(
            "losses",
            "lookup",
            (("none", Interval(0, 0)), ("low", Interval(18120, 35730))),
        )
        assert validate_scale(scale).ok

    def test_likelihood_must_cover_unit_interval(self):
        scale = QualitativeScale(
            "short", "likelihood", (("low", Interval(0, "0.5")), ("high", Interval("0.5", "0.9")))
        )
        report = validate_scale(scale)
        assert any("end at 1" in issue.message for issue in report.issues)

    @pytest.mark.parametrize("label", [5, None, ("low",)])
    def test_a_label_that_is_not_a_string_is_rejected(self, label):
        """A label is never converted: ``5`` would become a category ``"5"``."""
        with pytest.raises(ValueError, match=f"^scale 'L': category label {re.escape(repr(label))} is not a string$"):
            QualitativeScale("L", "lookup", (("low", Interval(0, 1)), (label, Interval(1, 2))))

    def test_duplicate_labels_flagged(self):
        scale = QualitativeScale(
            "dup", "likelihood", (("x", Interval(0, "0.5")), ("x", Interval("0.5", 1)))
        )
        assert not validate_scale(scale).ok


class TestRiskAggregation:
    def setup_method(self):
        self.scales = ScaleSet(
            likelihood=QualitativeScale(
                "l",
                "likelihood",
                (
                    ("none", Interval(0, 0)),
                    ("rare", Interval(0, "0.1")),
                    ("occasional", Interval("0.1", "0.2")),
                    ("frequent", Interval("0.5", "0.7")),
                    ("certain", Interval("0.7", 1)),
                ),
            ),
            impact=QualitativeScale(
                "d", "lookup", (("none", Interval(0, 0)), ("costly", Interval(100, 200)))
            ),
        )
        # deliberately non-contiguous likelihood scale above is irrelevant here:
        # these tests exercise resolution and aggregation, not partition checks

    def _assessment(self, lb, la):
        return ThreatAssessment("T", lb, "costly", la, "costly")

    def test_empty_list_gives_zero(self):
        assert risk_delta([], self.scales, findings=[]) == Interval(0, 0)
        assert risk_delta([], self.scales, mode="max", findings=[]) == Interval(0, 0)

    def test_all_zero_likelihoods_give_zero(self):
        quiet = [self._assessment("none", "none") for _ in range(4)]
        assert risk_delta(quiet, self.scales, findings=[]) == Interval(0, 0)

    def test_single_certain_threat(self):
        scales = build_unit_scales()
        a = build_full_mitigation_assessment()  # mitigated to none: the delta is the whole risk
        assert risk_delta([a], scales, findings=[]) == Interval(2125900, 15622700)

    def test_two_threat_sum(self):
        a1 = self._assessment("frequent", "none")  # [0.5,0.7] x [100,200]
        a2 = self._assessment("occasional", "none")  # [0.1,0.2] x [100,200]
        assert risk_delta([a1, a2], self.scales, findings=[]) == Interval(60, 180)

    def test_two_threat_max(self):
        a1 = self._assessment("frequent", "none")
        a2 = self._assessment("occasional", "none")
        assert risk_delta([a1, a2], self.scales, mode="max", findings=[]) == Interval(50, 140)

    def test_unknown_label_raises(self):
        bad = ThreatAssessment("T", "frequent", "nonexistent", "none", "none")
        with pytest.raises(UnknownLabelError, match="nonexistent"):
            risk_delta([bad], self.scales, findings=[])

    def test_unknown_aggregation_mode(self):
        with pytest.raises(ValueError, match="mode"):
            risk_delta([], self.scales, mode="median", findings=[])


def certain_lookup_scales(before: Interval, after: Interval) -> ScaleSet:
    """Certain likelihood, so a threat's before and after risk are exactly these two impact ranges."""
    return ScaleSet(
        likelihood=QualitativeScale("l", "likelihood", (("certain", Interval(1, 1)),)),
        impact=QualitativeScale("d", "lookup", (("before", before), ("after", after))),
    )


def delta_of(before: Interval, after: Interval) -> tuple[Interval, list[ValidationIssue]]:
    """``risk_delta`` of one threat 'T1' whose risk goes from ``before`` to ``after``, and its findings."""
    a = ThreatAssessment("T1", "certain", "before", "certain", "after")
    findings = []
    return risk_delta([a], certain_lookup_scales(before, after), findings=findings), findings


def clamp(message: str) -> ValidationIssue:
    """The warning issue that ``risk_delta`` gives for one clamped threat."""
    return ValidationIssue("ClampWarning", message, severity="warning")


class TestRiskDelta:
    def test_worked_single_threat_delta(self):
        scales = build_unit_scales()
        a = build_full_mitigation_assessment()
        findings = []
        assert risk_delta([a], scales, findings=findings) == Interval(2125900, 15622700)
        assert findings == []

    def test_no_improvement_is_zero_with_clamp(self):
        scales = build_unit_scales()
        a = ThreatAssessment("T1", "high", "critical", "high", "critical")
        findings = []
        delta = risk_delta([a], scales, findings=findings)
        # raw per-threat difference is [lo-hi, hi-lo]; clamping pins the lower end
        assert delta.lo == 0
        assert findings == [clamp("threat 'T1': risk difference [-13496800, 13496800] clamped to [0, 13496800]")]

    def test_unclamped_subtraction(self):
        scales = ScaleSet(
            likelihood=QualitativeScale(
                "l", "likelihood", (("low", Interval(0, 1)), ("certain", Interval(1, 1)))
            ),
            impact=QualitativeScale(
                "d",
                "lookup",
                (("before", Interval(50, 140)), ("after", Interval(10, 40))),
            ),
        )
        a = ThreatAssessment("T", "certain", "before", "certain", "after")
        assert risk_delta([a], scales, findings=[]) == Interval(10, 130)

    def test_delta_is_threatwise_sum_of_differences(self):
        scales = ScaleSet(
            likelihood=QualitativeScale(
                "l", "likelihood", (("none", Interval(0, 0)), ("all", Interval(0, 1)))
            ),
            impact=QualitativeScale(
                "d",
                "lookup",
                (
                    ("none", Interval(0, 0)),
                    ("small", Interval(10, 40)),
                    ("big", Interval(50, 140)),
                ),
            ),
        )
        a1 = ThreatAssessment("T1", "all", "big", "all", "small")
        a2 = ThreatAssessment("T2", "all", "small", "none", "none")
        # T1's raw difference [0, 140] - [0, 40] = [-40, 140] clamps to [0, 140]
        expected = [clamp("threat 'T1': risk difference [-40, 140] clamped to [0, 140]")]
        findings = []
        per_threat = [risk_delta([a], scales, findings=findings) for a in (a1, a2)]
        assert findings == expected
        findings = []
        combined = risk_delta([a1, a2], scales, findings=findings)
        assert findings == expected
        assert combined == Interval(
            per_threat[0].lo + per_threat[1].lo, per_threat[0].hi + per_threat[1].hi
        )

    def test_monotone_assessments_give_nonnegative_bounded_delta(self):
        scales = build_unit_scales()
        a = build_full_mitigation_assessment()
        delta = risk_delta([a], scales, findings=[])
        assert delta.lo >= 0
        likelihood, impact, _, _ = a.resolve(scales)
        assert delta.hi <= interval_mul(likelihood, impact).hi

    def test_clamp_raises_lower_endpoint_and_warns(self):
        assert delta_of(Interval(10, 20), Interval(15, 30)) == (
            Interval(0, 5), [clamp("threat 'T1': risk difference [-20, 5] clamped to [0, 5]")]
        )

    def test_clamp_fully_negative_collapses_to_zero(self):
        assert delta_of(Interval(0, 1), Interval(5, 6)) == (
            Interval(0, 0), [clamp("threat 'T1': risk difference [-6, -4] clamped to [0, 0]")]
        )

    def test_no_warning_without_clamping_need(self):
        assert delta_of(Interval(5, 9), Interval(1, 2)) == (Interval(3, 8), [])


def _product(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    corners = [x * y for x in a for y in b]
    return min(corners), max(corners)


def _ranges(bound):
    return st.tuples(bound, bound).map(sorted)


likelihood_ranges = _ranges(st.fractions(0, 1, max_denominator=20))
impact_ranges = _ranges(st.fractions(0, 1000, max_denominator=20))
#: Per threat: likelihood and impact ranges before, then after mitigation.
threat_ranges = st.lists(st.tuples(likelihood_ranges, impact_ranges, likelihood_ranges, impact_ranges), max_size=5)


@given(threat_ranges, st.sampled_from(["sum", "max"]))
def test_delta_matches_fraction_reference(threats, mode):
    """Per threat, [b.lo - a.hi, b.hi - a.lo] clamped at 0, then summed or maxed; one warning issue per clamp."""
    zero = [("zero", Interval(0, 0))]  # a scale needs a category even when there are no threats
    likelihood, impact = list(zero), list(zero)
    for k, (lb, ib, la, ia) in enumerate(threats):
        likelihood += [(f"b{k}", Interval(*lb)), (f"a{k}", Interval(*la))]
        impact += [(f"b{k}", Interval(*ib)), (f"a{k}", Interval(*ia))]
    scales = ScaleSet(QualitativeScale("l", "likelihood", likelihood), QualitativeScale("d", "lookup", impact))
    assessments = [ThreatAssessment(f"T{k}", f"b{k}", f"b{k}", f"a{k}", f"a{k}") for k in range(len(threats))]

    differences, clamped = [], []
    for k, (lb, ib, la, ia) in enumerate(threats):
        before, after = _product(lb, ib), _product(la, ia)
        lo, hi = before[0] - after[1], before[1] - after[0]
        if lo < 0:
            clamped.append(f"T{k}")
            lo, hi = Fraction(0), max(hi, Fraction(0))
        differences.append((lo, hi))
    combine = sum if mode == "sum" else max
    los, his = zip(*differences) if differences else ((0,), (0,))
    reference = Interval(combine(los), combine(his))

    findings = []
    delta = risk_delta(assessments, scales, mode, findings=findings)
    assert delta == reference
    assert [(issue.location, issue.severity) for issue in findings] == [("ClampWarning", "warning")] * len(clamped)
    assert [issue.message.split("'")[1] for issue in findings] == clamped


class TestThreatTree:
    def test_three_control_tree_is_valid(self):
        tree = build_three_fix_tree()
        assert validate_threat_tree(tree).ok
        assert tree.leaf_count == 3

    def test_duplicate_leaf_id(self):
        tree = ThreatTree(
            threats=(
                Threat(
                    "T1",
                    controls=(
                        Control("C1", leaves=(LeafCondition("U1"), LeafCondition("U1"))),
                    ),
                ),
            )
        )
        report = validate_threat_tree(tree)
        assert not report.ok
        assert any("duplicate id 'U1'" in issue.message for issue in report.issues)

    def test_control_without_leaves(self):
        tree = ThreatTree(threats=(Threat("T1", controls=(Control("C1"),)),))
        report = validate_threat_tree(tree)
        assert any("no leaf conditions" in issue.message for issue in report.issues)

    def test_threat_without_controls(self):
        tree = ThreatTree(threats=(Threat("T1"),))
        assert not validate_threat_tree(tree).ok


class TestValidateAssessments:
    def test_clean_assessment(self):
        report = validate_assessments(
            [build_full_mitigation_assessment()], build_unit_scales(), build_three_fix_tree()
        )
        assert report.ok
        assert not report.issues

    def test_unknown_threat_id(self):
        a = ThreatAssessment("T9", "high", "critical", "none", "none")
        report = validate_assessments([a], build_unit_scales(), build_three_fix_tree())
        assert not report.ok

    def test_worsening_both_sides_warns(self):
        a = ThreatAssessment("T1", "low", "low", "high", "critical")
        report = validate_assessments([a], build_unit_scales(), build_three_fix_tree())  # the issue is the only report
        assert report.ok  # a warning, not an error
        assert [str(issue) for issue in report.warnings] == [
            "warning: assessments[0]: mitigation worsens both likelihood (1/2 -> 1) and impact (35730 -> 15622700)"
        ]
