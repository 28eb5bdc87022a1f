"""Experiment runner: build a scheduler, run it, measure it, certify it.

The runner encapsulates the repetitive part of every experiment:

1. pick an observation horizon long enough to witness several periods of the
   slowest node (``choose_horizon``),
2. build the schedule and time the construction,
3. open a :class:`repro.api.Session` for the graph and the run's
   :class:`~repro.core.config.EngineConfig`,
4. evaluate the metric suite and validate legality (plus the scheduler's
   claimed per-node bound) through the session — which builds the occupancy
   trace **once** and shares it between both steps.

Execution knobs (backend, horizon representation, chunk width, generator
window) arrive on one ``config=``.

``compare_schedulers`` runs a list of registered scheduler names over a
workload dictionary and returns a :class:`~repro.analysis.records.ResultSet`
ready for table rendering — since the declarative engine landed it is a thin
wrapper over :class:`repro.analysis.engine.ExperimentEngine`, which is also
where ``jobs``/``sink``/``resume`` come from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.algorithms.base import Scheduler
from repro.analysis.engine import ExperimentEngine, ExperimentSpec, HorizonPolicy
from repro.analysis.records import ResultSet
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.metrics import ScheduleReport
from repro.core.problem import ConflictGraph
from repro.core.schedule import Schedule
from repro.core.validation import ValidationReport

__all__ = ["RunOutcome", "choose_horizon", "run_scheduler", "compare_schedulers"]


@dataclass
class RunOutcome:
    """Everything produced by one scheduler × graph run."""

    scheduler_name: str
    graph_name: str
    horizon: int
    schedule: Schedule
    report: ScheduleReport
    validation: ValidationReport
    build_seconds: float
    bound_satisfied: Optional[bool]
    backend: str = "auto"
    #: wall time of the whole measurement stage: trace construction plus the
    #: metric suite plus all validation checks (they share the one trace).
    measure_seconds: float = 0.0
    #: the ``mode`` of the trace the run was measured on: "dense", "stream"
    #: or "sets" (the frozenset reference has no streaming mode).
    horizon_mode: str = "dense"
    #: the full execution configuration the run was measured under.
    config: EngineConfig = field(default_factory=EngineConfig)

    def metrics(self) -> Dict[str, float]:
        """Flat metric dictionary (report summary + construction cost + validity)."""
        out = dict(self.report.summary())
        out["build_seconds"] = self.build_seconds
        out["measure_seconds"] = self.measure_seconds
        out["legal"] = 1.0 if self.validation.ok else 0.0
        if self.bound_satisfied is not None:
            out["bound_satisfied"] = 1.0 if self.bound_satisfied else 0.0
        return out


def choose_horizon(
    graph: ConflictGraph, multiplier: int = 4, minimum: int = 32, cap: int = 20_000
) -> int:
    """An observation horizon long enough for every paper bound to be visible.

    The slowest guarantee in the package is the Section 4 period
    ``2^{ρ(c)}`` with ``c ≤ Δ + 1``; rather than computing it per scheduler
    the horizon is simply ``multiplier`` times the largest power of two
    reaching ``2·(Δ+1)`` (the Section 5 period), clamped to ``[minimum, cap]``.
    Color-bound runs that need more (large Δ with the omega code) can pass
    an explicit horizon instead.

    Delegates to :class:`repro.analysis.engine.HorizonPolicy` — the one
    horizon rule shared with ``benchmarks.common.horizon_for_bound``.
    """
    return HorizonPolicy(multiplier=multiplier, minimum=minimum, cap=cap).for_graph(graph)


def run_scheduler(
    scheduler: Scheduler,
    graph: ConflictGraph,
    horizon: Optional[int] = None,
    seed: int = 0,
    certify_bound: bool = True,
    skip_isolated: bool = True,
    *,
    policy: Optional[HorizonPolicy] = None,
    config: Optional[EngineConfig] = None,
) -> RunOutcome:
    """Build, evaluate and validate one scheduler on one graph.

    ``config`` carries the trace-engine knobs: ``backend`` (``"auto"``/
    ``"numpy"``/``"sets"``), ``horizon_mode`` (``"dense"`` one
    n × horizon matrix, ``"stream"`` fixed-width chunks of ``chunk``
    holidays at ``O(n × chunk)`` memory, ``"auto"`` dense until the matrix
    would exceed :data:`repro.core.trace.AUTO_STREAM_BYTES`).
    ``config.window`` re-configures schedulers that support a sliding
    generator window (:meth:`~repro.algorithms.base.Scheduler.with_window`).
    The trace is built exactly once — the run goes through
    :class:`repro.api.Session` — and shared by the metric suite and the
    validator.  When ``horizon`` is ``None`` the observation window comes
    from ``policy`` (default :class:`~repro.analysis.engine.HorizonPolicy`),
    extended so any claimed per-node bound can be witnessed.
    """
    # Imported here, not at module level: repro.api sits above this module
    # (Session.run delegates back to run_scheduler), so the runner->api edge
    # must stay lazy to keep the import graph acyclic.
    from repro.api import Session

    config = config or DEFAULT_CONFIG
    if config.window is not None:
        scheduler = scheduler.with_window(config.window)

    start = time.perf_counter()
    schedule = scheduler.build(graph, seed=seed)
    build_seconds = time.perf_counter() - start

    bound_fn = scheduler.bound_function(graph) if certify_bound else None
    if horizon is None:
        horizon = (policy or HorizonPolicy()).resolve(graph, bound_fn)

    session = Session(graph, config=config, policy=policy)
    start = time.perf_counter()
    report = session.evaluate(schedule, horizon, name=scheduler.name)
    validation = session.validate(
        schedule,
        horizon,
        bound=bound_fn,
        bound_name=scheduler.info.local_bound,
        check_periodic=scheduler.info.periodic,
        skip_isolated=skip_isolated,
    )
    measure_seconds = time.perf_counter() - start
    bound_satisfied: Optional[bool] = None
    if bound_fn is not None:
        bound_satisfied = not any(v.kind == "bound-exceeded" for v in validation.violations)

    return RunOutcome(
        scheduler_name=scheduler.name,
        graph_name=graph.name,
        horizon=horizon,
        schedule=schedule,
        report=report,
        validation=validation,
        build_seconds=build_seconds,
        bound_satisfied=bound_satisfied,
        backend=config.backend,
        measure_seconds=measure_seconds,
        horizon_mode=session.trace(schedule, horizon).mode,
        config=config,
    )


def compare_schedulers(
    workloads: Mapping[str, ConflictGraph],
    scheduler_names: Sequence[str],
    experiment: str = "comparison",
    horizon: Optional[int] = None,
    seed: int = 0,
    certify_bound: bool = True,
    *,
    jobs: int = 1,
    sink: Optional[Union[str, Path]] = None,
    resume: bool = False,
    config: Optional[EngineConfig] = None,
) -> ResultSet:
    """Run every named scheduler over every workload and collect the results.

    A thin wrapper over the declarative engine: the workload dictionary is
    turned into an :class:`~repro.analysis.engine.ExperimentSpec` whose
    workload names shadow the registry with the given graphs.  ``jobs``
    selects parallel execution *across cells*.  ``sink``/``resume`` stream
    the records to a JSONL file and skip already-completed cells.

    Seed semantics: ``seed`` is the *root* seed; each cell's scheduler runs
    with a seed derived from ``(workload, algorithm, params, seed)`` (the
    engine's determinism contract), not with ``seed`` itself.  Runs remain
    exactly reproducible for a given root seed, but randomized schedulers
    (e.g. ``first-come-first-grab``) draw different streams than the
    pre-engine serial loop, which passed the root seed straight through.
    """
    spec = ExperimentSpec(
        name=experiment,
        workloads=tuple(workloads),
        algorithms=tuple(scheduler_names),
        seeds=(seed,),
        horizon=horizon,
        certify_bound=certify_bound,
        config=config or DEFAULT_CONFIG,
    )
    engine = ExperimentEngine(jobs=jobs, sink=sink, resume=resume)
    return engine.run(spec, workloads=workloads)
