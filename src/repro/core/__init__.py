"""Core objects of the Holiday Gathering Problem.

This subpackage holds the paper's combinatorial objects (conflict graphs,
gatherings, schedules), the quality metric (maximum unhappiness length), the
validation/certification utilities and the iterated-logarithm machinery
behind the Section 4 bounds.
"""

from repro.core.problem import ConflictGraph, Gathering, Node, orientation_towards
from repro.core.schedule import (
    ExplicitSchedule,
    GeneratorSchedule,
    PeriodicSchedule,
    Schedule,
    SlotAssignment,
)
from repro.core.config import EngineConfig
from repro.core.trace import TraceMatrix
from repro.core.metrics import (
    HappinessTrace,
    ScheduleReport,
    build_trace,
    evaluate_schedule,
    happiness_rates,
    jain_fairness_index,
    max_unhappiness_lengths,
    normalized_gaps,
    observed_periods,
    unhappiness_gaps,
)
from repro.core.validation import (
    ValidationReport,
    Violation,
    certify_local_bound,
    certify_periodicity,
    check_independent_sets,
    validate_schedule,
)
from repro.core.bounds import (
    bound_table,
    degree_plus_one_bound,
    delta_plus_one_bound,
    elias_color_bound,
    elias_color_bound_exact,
    fair_share_bound,
    periodic_degree_bound,
    periodic_degree_bound_value,
)
from repro.core.phi import (
    condensation_feasible,
    elias_period_bound,
    log_star,
    phi,
    phi_int,
    reciprocal_sum,
    reciprocal_sum_partial,
    rho_ceil,
)

__all__ = [
    "ConflictGraph",
    "Gathering",
    "Node",
    "orientation_towards",
    "Schedule",
    "PeriodicSchedule",
    "ExplicitSchedule",
    "GeneratorSchedule",
    "SlotAssignment",
    "TraceMatrix",
    "EngineConfig",
    "build_trace",
    "HappinessTrace",
    "ScheduleReport",
    "evaluate_schedule",
    "max_unhappiness_lengths",
    "unhappiness_gaps",
    "observed_periods",
    "happiness_rates",
    "normalized_gaps",
    "jain_fairness_index",
    "ValidationReport",
    "Violation",
    "check_independent_sets",
    "certify_local_bound",
    "certify_periodicity",
    "validate_schedule",
    "bound_table",
    "degree_plus_one_bound",
    "delta_plus_one_bound",
    "periodic_degree_bound",
    "periodic_degree_bound_value",
    "elias_color_bound",
    "elias_color_bound_exact",
    "fair_share_bound",
    "phi",
    "phi_int",
    "log_star",
    "rho_ceil",
    "elias_period_bound",
    "reciprocal_sum",
    "reciprocal_sum_partial",
    "condensation_feasible",
]
