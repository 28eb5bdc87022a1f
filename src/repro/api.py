"""`repro.api` — the session facade: one graph, one config, one trace.

The three-line happy path for library users::

    from repro.api import Session

    session = Session(graph)                       # config=EngineConfig(...)
    report = session.evaluate(schedule)            # full metric suite
    ok = session.validate(schedule).ok             # legality (+ bounds)

A :class:`Session` binds a conflict graph to an
:class:`~repro.core.config.EngineConfig` and owns a private occupancy-trace
cache: the first query against a ``(schedule, horizon)`` pair builds the
trace (dense or streamed, per the config), and every later query on the
same session — ``evaluate``, ``validate``, ``report``, the per-metric
helpers — reuses it.  Sessions share no cache; the service's
content-keyed cache lives in :mod:`repro.serve.cache`.
This replaces the manual trace-sharing dance callers used to copy from
``analysis/runner.py`` (build a trace, thread ``trace=`` through every
call); ``run_scheduler`` itself now runs on a session.

Horizons default to the session's :class:`~repro.analysis.engine.HorizonPolicy`
(the same degree rule ``run_scheduler`` uses), so ``session.evaluate(s)``
with no horizon observes a window long enough for the paper bounds to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.engine import HorizonPolicy
from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.metrics import (
    ScheduleLike,
    ScheduleReport,
    TraceLike,
    build_trace,
    evaluate_schedule,
    happiness_rates,
    max_unhappiness_lengths,
    observed_periods,
    unhappiness_gaps,
)
from repro.core.problem import ConflictGraph, Node
from repro.core.validation import ValidationReport, validate_schedule

__all__ = ["Session", "SessionReport", "EngineConfig", "open_store"]


def open_store(path):
    """Open (creating if missing) a :class:`~repro.io.store.ResultStore`.

    The facade spelling of the persistent result store — the cross-campaign
    cell cache the experiment engine consults before executing (see
    ``docs/storage.md``).  Usable as a context manager::

        from repro.api import open_store

        with open_store("results.sqlite") as store:
            hits = store.query(workload="small/path")

    Note the store is an I/O concern, deliberately *not* a :class:`Session`
    or :class:`EngineConfig` field: attaching one never changes what is
    computed, only whether a computation can be skipped.
    """
    from repro.io.store import ResultStore

    return ResultStore(path)


@dataclass
class SessionReport:
    """Everything :meth:`Session.report` measures about one schedule."""

    report: ScheduleReport
    validation: ValidationReport
    horizon: int

    @property
    def ok(self) -> bool:
        """True when no validation violations were found."""
        return self.validation.ok

    def summary(self) -> Dict[str, float]:
        """The metric summary plus the legality verdict, table-ready."""
        out = dict(self.report.summary())
        out["legal"] = 1.0 if self.validation.ok else 0.0
        return out


class Session:
    """A graph + an :class:`EngineConfig`, with a shared trace per schedule.

    Parameters:
        graph: the conflict graph every query runs against.
        config: the execution knobs (default: all-``auto``
            :data:`~repro.core.config.DEFAULT_CONFIG`).
        policy: how long to observe when a call gives no explicit horizon
            (default :class:`~repro.analysis.engine.HorizonPolicy`).

    The session's private trace cache is keyed by
    ``(id(schedule), id(graph), horizon, config)`` — schedule *identity*,
    the cheap exact notion a library session wants (no hashing of schedule
    content): evaluating and validating the same schedule object over the
    same horizon builds the occupancy trace exactly once (asserted by
    ``tests/api/test_session.py``).  Each entry pins its schedule and graph,
    so a dead object's recycled ``id()`` can never serve the wrong trace.
    The cache only grows — one trace per ``(schedule, horizon)`` pair — so
    a session sweeping many schedules should call :meth:`clear` between
    batches.  Under ``backend="sets"`` the shared trace is the frozenset
    reference (:class:`~repro.core.metrics.HappinessTrace`), so the
    schedule prefix is materialised once per pair as well.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        config: Optional[EngineConfig] = None,
        policy: Optional[HorizonPolicy] = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else DEFAULT_CONFIG
        self.policy = policy if policy is not None else HorizonPolicy()
        self._traces: Dict[
            Tuple[int, int, int, EngineConfig], Tuple[ScheduleLike, ConflictGraph, Optional[TraceLike]]
        ] = {}

    # -- plumbing ------------------------------------------------------------
    def resolve_horizon(
        self,
        horizon: Optional[int] = None,
        bound: Callable[[Node], float] | Mapping[Node, float] | None = None,
    ) -> int:
        """An explicit horizon, or the policy's choice for this graph.

        When a per-node ``bound`` is being certified, the policy extends the
        window so the bound can actually be witnessed (the same rule
        ``run_scheduler`` applies) — a degree-rule window alone can be too
        short to observe a violation of a larger claimed bound.
        """
        if horizon is not None:
            return horizon
        bound_fn = None
        if bound is not None:
            bound_fn = bound if callable(bound) else bound.__getitem__
        return self.policy.resolve(self.graph, bound_fn)

    def clear(self) -> None:
        """Drop every cached trace (and the schedules they pin).

        The cache holds a strong reference to each queried schedule and its
        trace, so a long-lived session sweeping many schedules grows by one
        trace per ``(schedule, horizon)`` pair — call this between batches
        to release them.
        """
        self._traces.clear()

    def trace(self, schedule: ScheduleLike, horizon: Optional[int] = None) -> TraceLike:
        """The shared trace for ``(schedule, horizon)``, built on first use
        by :func:`~repro.core.metrics.build_trace` (a
        :class:`~repro.core.metrics.HappinessTrace` under
        ``backend="sets"``)."""
        horizon = self.resolve_horizon(horizon)
        key = (id(schedule), id(self.graph), horizon, self.config)
        if key not in self._traces:
            trace = build_trace(schedule, self.graph, horizon, config=self.config)
            self._traces[key] = (schedule, self.graph, trace)
        return self._traces[key][2]

    # -- the facade ----------------------------------------------------------
    def evaluate(
        self,
        schedule: ScheduleLike,
        horizon: Optional[int] = None,
        name: str = "schedule",
    ) -> ScheduleReport:
        """The full metric suite (mul, periods, rates, fairness) over the
        shared trace."""
        horizon = self.resolve_horizon(horizon)
        return evaluate_schedule(
            schedule, self.graph, horizon, name=name,
            trace=self.trace(schedule, horizon), config=self.config,
        )

    def validate(
        self,
        schedule: ScheduleLike,
        horizon: Optional[int] = None,
        bound: Callable[[Node], float] | Mapping[Node, float] | None = None,
        bound_name: str = "bound",
        check_periodic: bool = False,
        skip_isolated: bool = False,
        fail_fast: bool = False,
    ) -> ValidationReport:
        """Legality + optional bound/periodicity checks over the shared trace."""
        horizon = self.resolve_horizon(horizon, bound=bound)
        return validate_schedule(
            schedule, self.graph, horizon,
            bound=bound, bound_name=bound_name,
            check_periodic=check_periodic, skip_isolated=skip_isolated,
            fail_fast=fail_fast,
            trace=self.trace(schedule, horizon), config=self.config,
        )

    def report(
        self,
        schedule: ScheduleLike,
        horizon: Optional[int] = None,
        name: str = "schedule",
        **validate_kwargs: object,
    ) -> SessionReport:
        """Evaluate *and* validate in one call, over one trace build."""
        horizon = self.resolve_horizon(horizon, bound=validate_kwargs.get("bound"))
        return SessionReport(
            report=self.evaluate(schedule, horizon, name=name),
            validation=self.validate(schedule, horizon, **validate_kwargs),
            horizon=horizon,
        )

    def run(self, scheduler, seed: int = 0, horizon: Optional[int] = None, **kwargs):
        """Build a scheduler's schedule and measure it under this session's
        config — :func:`repro.analysis.runner.run_scheduler` with the
        session's graph, config and policy filled in.  Returns a
        :class:`~repro.analysis.runner.RunOutcome`."""
        from repro.analysis.runner import run_scheduler

        return run_scheduler(
            scheduler, self.graph, horizon=horizon, seed=seed,
            policy=self.policy, config=self.config, **kwargs,
        )

    # -- per-metric queries over the shared trace ---------------------------
    def muls(self, schedule: ScheduleLike, horizon: Optional[int] = None) -> Dict[Node, int]:
        """``{node: maximum unhappiness length}``."""
        horizon = self.resolve_horizon(horizon)
        return max_unhappiness_lengths(
            schedule, self.graph, horizon,
            trace=self.trace(schedule, horizon), config=self.config,
        )

    def gaps(self, schedule: ScheduleLike, horizon: Optional[int] = None) -> Dict[Node, List[int]]:
        """``{node: unhappiness interval lengths}``."""
        horizon = self.resolve_horizon(horizon)
        return unhappiness_gaps(
            schedule, self.graph, horizon,
            trace=self.trace(schedule, horizon), config=self.config,
        )

    def periods(
        self, schedule: ScheduleLike, horizon: Optional[int] = None
    ) -> Dict[Node, Optional[int]]:
        """``{node: observed hosting period or None}``."""
        horizon = self.resolve_horizon(horizon)
        return observed_periods(
            schedule, self.graph, horizon,
            trace=self.trace(schedule, horizon), config=self.config,
        )

    def rates(self, schedule: ScheduleLike, horizon: Optional[int] = None) -> Dict[Node, float]:
        """``{node: fraction of holidays hosted}``."""
        horizon = self.resolve_horizon(horizon)
        return happiness_rates(
            schedule, self.graph, horizon,
            trace=self.trace(schedule, horizon), config=self.config,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(graph={self.graph.name!r}, config={self.config.describe()}, "
            f"cached_traces={len(self._traces)})"
        )
