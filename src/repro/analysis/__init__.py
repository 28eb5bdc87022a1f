"""Experiment harness: the experiment engine, runners, result records and tables.

The benchmark scripts under ``benchmarks/`` are thin: each one builds its
workload, calls into this subpackage to execute schedulers and collect
metrics, and prints a paper-style table.  Keeping the logic here means the
same experiments can also be driven from the examples and from tests.
"""

from repro.analysis.conjecture import (
    PeriodFeasibility,
    StretchResult,
    degree_plus_slack_periods,
    feasible_schedule_or_none,
    minimal_max_stretch,
    phase_assignment_exists,
)
from repro.analysis.engine import (
    ExperimentCell,
    ExperimentEngine,
    ExperimentSpec,
    HorizonPolicy,
    execute_cell,
    expand_grid,
)
from repro.analysis.records import ExperimentRecord, ResultSet
from repro.analysis.runner import (
    RunOutcome,
    choose_horizon,
    compare_schedulers,
    run_scheduler,
)
from repro.analysis.tables import format_value, render_table

__all__ = [
    "ExperimentRecord",
    "ResultSet",
    "ExperimentSpec",
    "ExperimentCell",
    "ExperimentEngine",
    "HorizonPolicy",
    "execute_cell",
    "expand_grid",
    "RunOutcome",
    "run_scheduler",
    "compare_schedulers",
    "choose_horizon",
    "render_table",
    "format_value",
    "PeriodFeasibility",
    "StretchResult",
    "phase_assignment_exists",
    "degree_plus_slack_periods",
    "minimal_max_stretch",
    "feasible_schedule_or_none",
]
