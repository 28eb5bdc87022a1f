"""repro — a reproduction of "The Family Holiday Gathering Problem or Fair and
Periodic Scheduling of Independent Sets" (Amir, Kapah, Kopelowitz, Naor, Porat).

The package implements the paper's combinatorial problem, its three
scheduling algorithms with their per-node guarantees, the substrates they
depend on (prefix-free codes, graph colorings, a LOCAL-model simulator,
bipartite matching) and an experiment harness that re-derives every claimed
bound empirically.

Quick start::

    from repro import ConflictGraph, DegreePeriodicScheduler, Session

    graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    session = Session(graph)                       # config=EngineConfig(...)
    schedule = DegreePeriodicScheduler().build(graph)
    report = session.evaluate(schedule, horizon=64)
    print(report.muls)                  # max unhappiness per family
    print(session.validate(schedule, horizon=64).ok)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
experiment suite documented in EXPERIMENTS.md.
"""

from repro.api import Session, SessionReport
from repro.core import (
    ConflictGraph,
    EngineConfig,
    ExplicitSchedule,
    Gathering,
    GeneratorSchedule,
    HappinessTrace,
    PeriodicSchedule,
    Schedule,
    ScheduleReport,
    SlotAssignment,
    TraceMatrix,
    ValidationReport,
    certify_local_bound,
    certify_periodicity,
    check_independent_sets,
    degree_plus_one_bound,
    delta_plus_one_bound,
    elias_color_bound,
    elias_color_bound_exact,
    evaluate_schedule,
    log_star,
    max_unhappiness_lengths,
    observed_periods,
    orientation_towards,
    periodic_degree_bound,
    phi,
    rho_ceil,
    validate_schedule,
)
from repro.algorithms import (
    ColorPeriodicScheduler,
    DegreePeriodicScheduler,
    DynamicColorBoundScheduler,
    FirstComeFirstGrabScheduler,
    GraphEvent,
    PhasedGreedyScheduler,
    RoundRobinColorScheduler,
    Scheduler,
    SequentialScheduler,
    available_schedulers,
    get_scheduler,
)
from repro.coding import EliasDeltaCode, EliasGammaCode, EliasOmegaCode
from repro.coloring import (
    Coloring,
    distributed_deg_plus_one_coloring,
    dsatur_coloring,
    greedy_coloring,
    sequential_slot_assignment,
)
from repro.graphs import random_society

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ConflictGraph",
    "EngineConfig",
    "Session",
    "SessionReport",
    "Gathering",
    "orientation_towards",
    "Schedule",
    "PeriodicSchedule",
    "ExplicitSchedule",
    "GeneratorSchedule",
    "SlotAssignment",
    "HappinessTrace",
    "TraceMatrix",
    "ScheduleReport",
    "ValidationReport",
    "evaluate_schedule",
    "max_unhappiness_lengths",
    "observed_periods",
    "check_independent_sets",
    "certify_local_bound",
    "certify_periodicity",
    "validate_schedule",
    "degree_plus_one_bound",
    "delta_plus_one_bound",
    "periodic_degree_bound",
    "elias_color_bound",
    "elias_color_bound_exact",
    "phi",
    "log_star",
    "rho_ceil",
    # algorithms
    "Scheduler",
    "SequentialScheduler",
    "RoundRobinColorScheduler",
    "FirstComeFirstGrabScheduler",
    "PhasedGreedyScheduler",
    "ColorPeriodicScheduler",
    "DegreePeriodicScheduler",
    "DynamicColorBoundScheduler",
    "GraphEvent",
    "available_schedulers",
    "get_scheduler",
    # substrates
    "EliasGammaCode",
    "EliasDeltaCode",
    "EliasOmegaCode",
    "Coloring",
    "greedy_coloring",
    "dsatur_coloring",
    "distributed_deg_plus_one_coloring",
    "sequential_slot_assignment",
    "random_society",
]
