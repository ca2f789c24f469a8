"""The value-class contract: every frozen record of riskshare builds, compares, hashes and prints alike.

Each case lists a class's fields in declaration order with a value for every
field, and the defaults of its trailing optional fields.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from riskshare import (
    AxiomReport,
    CherryPickPlan,
    Control,
    Cycle,
    Interval,
    LeafCondition,
    Money,
    PayoutReport,
    PlayerPayout,
    PlayerSet,
    Provenance,
    QualitativeScale,
    RiskModel,
    ScaleSet,
    ShapleyResult,
    Threat,
    ThreatAssessment,
    ThreatTree,
    ValidationIssue,
    ValidationReport,
)
from riskshare.config import BudgetSpec, RunConfig, SolverSpec, SourceSpec

LEAF = LeafCondition("l1", "a leaf")
CONTROL = Control("c1", "a control", (LEAF,))
THREAT = Threat("t1", "a threat", (CONTROL,))
TREE = ThreatTree((THREAT,))
LIKELIHOOD = QualitativeScale("L", "likelihood", (("low", Interval(0, 1)),))
IMPACT = QualitativeScale("I", "impact", (("small", Interval(0, 10)),))
SCALES = ScaleSet(LIKELIHOOD, IMPACT)
ASSESSMENT = ThreatAssessment("t1", "low", "small", "low", "small")
MONEY = Money(500, "EUR")
PAYOUT = PlayerPayout("alice", Fraction(1, 2), Fraction(1, 3), MONEY)
PROVENANCE = Provenance("commit-log", Interval(1, 2), "exact-subset", 10, 3)
AXIOMS = AxiomReport(Fraction(0), (("a", "b"),), ("c",))
SOURCE = SourceSpec("commit-log", Path("log"), Cycle("a"), Path("aliases.json"), ("a", "b"))
BUDGET = BudgetSpec(Fraction(1, 10), "lower", Fraction(5))

#: (class, {field: value} in declaration order, {trailing field: default}).
CASES = [
    (Interval, {"lo": Fraction(1), "hi": Fraction(2)}, {}),
    (PlayerSet, {"players": ("a", "b")}, {}),
    (Cycle, {"from_commit": "a", "to_commit": "b", "from_time": None, "to_time": None},
     {"from_commit": None, "to_commit": None, "from_time": None, "to_time": None}),
    (CherryPickPlan, {"base_commit": "c0", "subset": ("a",), "picks": ("c1",), "warnings": ("w",)}, {"warnings": ()}),
    (ValidationIssue, {"location": "a", "message": "b", "severity": "warning"}, {"severity": "error"}),
    (ValidationReport, {"issues": (ValidationIssue("a", "b"),)}, {"issues": ()}),
    (QualitativeScale, {"name": "L", "kind": "likelihood", "categories": (("low", Interval(0, 1)),)}, {}),
    (ScaleSet, {"likelihood": LIKELIHOOD, "impact": IMPACT}, {}),
    (LeafCondition, {"id": "l1", "label": "a leaf"}, {"label": ""}),
    (Control, {"id": "c1", "label": "a control", "leaves": (LEAF,)}, {"label": "", "leaves": ()}),
    (Threat, {"id": "t1", "label": "a threat", "controls": (CONTROL,)}, {"label": "", "controls": ()}),
    (ThreatTree, {"threats": (THREAT,)}, {}),
    (ThreatAssessment, {"threat_id": "t1", "likelihood_before": "low", "impact_before": "small",
                        "likelihood_after": "low", "impact_after": "small"}, {}),
    (RiskModel, {"scales": SCALES, "tree": TREE, "assessments": (ASSESSMENT,)}, {"assessments": ()}),
    (Money, {"amount_minor": 500, "currency": "EUR"}, {"currency": "USD"}),
    (PlayerPayout, {"player": "alice", "phi": Fraction(1, 2), "share": Fraction(1, 3), "payment": MONEY}, {}),
    (Provenance, {"game_source": "commit-log", "delta": Interval(1, 2), "solver": "exact-subset", "samples": 10,
                  "seed": 3}, {"samples": None, "seed": None}),
    (PayoutReport, {"budget": MONEY, "anchor": "lower", "fraction": Fraction(1, 10), "rounding_mode": "per-recipient",
                    "payouts": (PAYOUT,), "residual_minor": 0, "provenance": PROVENANCE, "axioms": AXIOMS,
                    "notice": "n"}, {"notice": None}),
    (AxiomReport, {"efficiency_residual": Fraction(0), "symmetry_violations": (("a", "b"),),
                   "null_player_violations": ("c",)}, {}),
    (ShapleyResult, {"players": ("a",), "phi": {"a": Fraction(1)}, "method": "monte-carlo", "samples": 5, "seed": 1,
                     "standard_error": {"a": 0.5}}, {"samples": None, "seed": None, "standard_error": None}),
    (SolverSpec, {"method": "monte-carlo", "samples": 100, "seed": 7},
     {"method": "exact", "samples": None, "seed": None}),
    (BudgetSpec, {"fraction": Fraction(1, 10), "anchor": "lower", "explicit_value": Fraction(5)},
     {"explicit_value": None}),
    (SourceSpec, {"type": "commit-log", "path": Path("log"), "cycle": Cycle("a"), "aliases_path": Path("aliases.json"),
                  "players": ("a", "b")}, {"cycle": Cycle(), "aliases_path": None, "players": None}),
    (RunConfig, {"source": SOURCE, "risk_model_path": Path("model.json"), "mode": "max", "normalized": True,
                 "solver": SolverSpec("monte-carlo", 10, 1), "budget": BUDGET, "rounding": "largest-remainder",
                 "currency": "EUR", "output_format": "markdown"},
     {"risk_model_path": None, "mode": "sum", "normalized": False, "solver": SolverSpec(), "budget": None,
      "rounding": "per-recipient", "currency": "USD", "output_format": "json"}),
]
IDS = [cls.__name__ for cls, _, _ in CASES]

#: The reprs of the cases, as ``@dataclass(frozen=True)`` printed them.
REPRS = {
    Interval: "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))",
    PlayerSet: "PlayerSet(players=('a', 'b'))",
    Cycle: "Cycle(from_commit='a', to_commit='b', from_time=None, to_time=None)",
    CherryPickPlan: "CherryPickPlan(base_commit='c0', subset=('a',), picks=('c1',), warnings=('w',))",
    ValidationIssue: "ValidationIssue(location='a', message='b', severity='warning')",
    ValidationReport: "ValidationReport(issues=(ValidationIssue(location='a', message='b', severity='error'),))",
    LeafCondition: "LeafCondition(id='l1', label='a leaf')",
    Control: "Control(id='c1', label='a control', leaves=(LeafCondition(id='l1', label='a leaf'),))",
    ThreatAssessment: "ThreatAssessment(threat_id='t1', likelihood_before='low', impact_before='small', "
                      "likelihood_after='low', impact_after='small')",
    Money: "Money(amount_minor=500, currency='EUR')",
    PlayerPayout: "PlayerPayout(player='alice', phi=Fraction(1, 2), share=Fraction(1, 3), "
                  "payment=Money(amount_minor=500, currency='EUR'))",
    AxiomReport: "AxiomReport(efficiency_residual=Fraction(0, 1), symmetry_violations=(('a', 'b'),), "
                 "null_player_violations=('c',))",
    ShapleyResult: "ShapleyResult(players=('a',), phi={'a': Fraction(1, 1)}, method='monte-carlo', samples=5, "
                   "seed=1, standard_error={'a': 0.5})",
    SolverSpec: "SolverSpec(method='monte-carlo', samples=100, seed=7)",
    QualitativeScale: "QualitativeScale(name='L', kind='likelihood', "
                      "categories=(('low', Interval(lo=Fraction(0, 1), hi=Fraction(1, 1))),))",
    Provenance: "Provenance(game_source='commit-log', delta=Interval(lo=Fraction(1, 1), hi=Fraction(2, 1)), "
                "solver='exact-subset', samples=10, seed=3)",
    BudgetSpec: "BudgetSpec(fraction=Fraction(1, 10), anchor='lower', explicit_value=Fraction(5, 1))",
    # Records of records print their parts' reprs, each pinned on its own line above.
    ScaleSet: f"ScaleSet(likelihood={LIKELIHOOD!r}, impact={IMPACT!r})",
    Threat: f"Threat(id='t1', label='a threat', controls=({CONTROL!r},))",
    ThreatTree: f"ThreatTree(threats=({THREAT!r},))",
    RiskModel: f"RiskModel(scales={SCALES!r}, tree={TREE!r}, assessments=({ASSESSMENT!r},))",
    PayoutReport: f"PayoutReport(budget={MONEY!r}, anchor='lower', fraction=Fraction(1, 10), "
                  f"rounding_mode='per-recipient', payouts=({PAYOUT!r},), residual_minor=0, "
                  f"provenance={PROVENANCE!r}, axioms={AXIOMS!r}, notice='n')",
    SourceSpec: "SourceSpec(type='commit-log', path=PosixPath('log'), "
                "cycle=Cycle(from_commit='a', to_commit=None, from_time=None, to_time=None), "
                "aliases_path=PosixPath('aliases.json'), players=('a', 'b'))",
    RunConfig: f"RunConfig(source={SOURCE!r}, risk_model_path=PosixPath('model.json'), mode='max', "
               "normalized=True, solver=SolverSpec(method='monte-carlo', samples=10, seed=1), "
               f"budget={BUDGET!r}, rounding='largest-remainder', currency='EUR', output_format='markdown')",
}


def _fields(obj, names):
    return [getattr(obj, name) for name in names]


@pytest.mark.parametrize("cls, fields, defaults", CASES, ids=IDS)
class TestValueClass:
    def test_positional_keyword_and_default_construction(self, cls, fields, defaults):
        obj = cls(*fields.values())
        assert _fields(obj, fields) == list(fields.values())
        assert cls(**fields) == obj
        required = [value for name, value in fields.items() if name not in defaults]
        assert _fields(cls(*required), defaults) == list(defaults.values())

    def test_bad_arguments_are_type_errors(self, cls, fields, defaults):
        with pytest.raises(TypeError):
            cls(*fields.values(), bogus=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        if len(defaults) < len(fields):
            with pytest.raises(TypeError):
                cls(*list(fields.values())[:len(fields) - len(defaults) - 1])

    def test_equal_within_the_class_only(self, cls, fields, defaults):
        obj, twin = cls(*fields.values()), cls(**fields)
        assert obj == twin and not obj != twin
        assert obj != tuple(fields.values())
        assert obj.__eq__(PlayerSet(("z",)) if cls is not PlayerSet else Interval(0, 0)) is NotImplemented
        if cls is ShapleyResult:  # its phi is a dict
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == hash(twin)

    def test_assignment_and_deletion_raise(self, cls, fields, defaults):
        obj = cls(*fields.values())
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert _fields(obj, fields) == list(fields.values())

    def test_repr(self, cls, fields, defaults):
        assert repr(cls(*fields.values())) == REPRS[cls]


def test_reprs_of_defaults():
    assert repr(Cycle()) == "Cycle(from_commit=None, to_commit=None, from_time=None, to_time=None)"
    assert repr(ValidationIssue("a", "b")) == "ValidationIssue(location='a', message='b', severity='error')"


def test_equal_fields_in_different_classes_are_unequal():
    assert LeafCondition("x") != Threat("x")
    assert Control("x") != Threat("x")
    assert SolverSpec() != Cycle()


def test_default_cycle_equals_a_fresh_one():
    """``RunConfig.issues`` tells a configured cycle from none by comparing with ``Cycle()``."""
    assert Cycle() == Cycle()
    assert hash(Cycle()) == hash(Cycle())
    assert SourceSpec("commit-log", Path("log")).cycle == Cycle()


def test_post_init_normalizes_fields():
    assert Interval(1, "2.5") == Interval(Fraction(1), Fraction(5, 2))
    assert PlayerSet(["a", "b"]).players == ("a", "b")
    assert Control("c", leaves=[LEAF]).leaves == (LEAF,)
    assert RiskModel(SCALES, TREE, [ASSESSMENT]).assessments == (ASSESSMENT,)
    with pytest.raises(ValueError):
        Interval(2, 1)
