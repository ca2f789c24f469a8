"""Fair, explainable security bonuses for developer teams.

The pipeline: qualitative threat assessments become an exact avoided-loss
interval; repository evidence becomes a coalition game; Shapley values split
a budget anchored in the avoided loss into per-developer payments, with an
axiom audit attached to every report.
"""

from .errors import (
    CapacityError,
    DocumentError,
    GameDefinitionError,
    PayoutError,
    RiskshareError,
    UnknownLabelError,
    ValidationError,
)
from .games import (
    MATERIALIZATION_CAP,
    CoalitionGame,
    PlayerSet,
    game_from_subset_results,
    game_from_table,
    leaf_coverage_game,
)
from .intervals import Interval, as_fraction, interval_add, interval_mul, interval_sub
from .mining import (
    CherryPickPlan,
    Cycle,
    cherry_pick_plan,
    derive_attribution,
    parse_commit_log,
)
from .payout import (
    Money,
    PayoutReport,
    PlayerPayout,
    Provenance,
    allocate_payments,
    compute_budget,
    parse_report,
    render_report,
)
from .risk import (
    Control,
    LeafCondition,
    QualitativeScale,
    RiskModel,
    ScaleSet,
    Threat,
    ThreatAssessment,
    ThreatTree,
    ValidationIssue,
    ValidationReport,
    risk_delta,
    validate_assessments,
    validate_scale,
    validate_threat_tree,
)
from .shapley import (
    ORACLE_PLAYER_CAP,
    AxiomReport,
    ShapleyResult,
    check_axioms,
    sample_permutation,
    shapley_exact,
    shapley_monte_carlo,
    shapley_permutation_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "CapacityError",
    "CherryPickPlan",
    "CoalitionGame",
    "Control",
    "Cycle",
    "DocumentError",
    "GameDefinitionError",
    "Interval",
    "LeafCondition",
    "MATERIALIZATION_CAP",
    "Money",
    "ORACLE_PLAYER_CAP",
    "PayoutError",
    "PayoutReport",
    "PlayerPayout",
    "PlayerSet",
    "Provenance",
    "QualitativeScale",
    "RiskModel",
    "RiskshareError",
    "ScaleSet",
    "ShapleyResult",
    "Threat",
    "ThreatAssessment",
    "ThreatTree",
    "UnknownLabelError",
    "ValidationError",
    "ValidationIssue",
    "ValidationReport",
    "allocate_payments",
    "as_fraction",
    "check_axioms",
    "cherry_pick_plan",
    "compute_budget",
    "derive_attribution",
    "game_from_subset_results",
    "game_from_table",
    "interval_add",
    "interval_mul",
    "interval_sub",
    "leaf_coverage_game",
    "parse_commit_log",
    "parse_report",
    "render_report",
    "risk_delta",
    "sample_permutation",
    "shapley_exact",
    "shapley_monte_carlo",
    "shapley_permutation_oracle",
    "validate_assessments",
    "validate_scale",
    "validate_threat_tree",
]
