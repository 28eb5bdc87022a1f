"""Schedule quality metrics.

The paper's objective (Definition 2.2) is the **maximum unhappiness length**
``mul(p)``: the length of the longest interval of consecutive holidays in
which parent ``p`` is never happy.  A schedule is *good* when ``mul(p)`` is
bounded by a local function of ``p`` (its degree or color) for every node.

This module computes ``mul`` over finite horizons, detects empirical
periods, and provides the fairness / throughput statistics used by the
comparison benchmark (E5) and the first-come-first-grab study (E10).

All functions accept either a :class:`~repro.core.schedule.Schedule` or a
pre-materialised sequence of happy sets, so metrics can also be applied to
traces produced outside this package.

Two evaluation engines back every metric (see :mod:`repro.core.trace` for
the architecture notes):

* ``backend="sets"`` — the historical reference path: one ``frozenset`` per
  holiday, walked node by node through :class:`HappinessTrace`.  Exact but
  O(n·horizon) Python-object churn; kept as ground truth for differential
  testing.
* ``backend="auto"`` / ``"numpy"`` — the numpy trace engine
  (:mod:`repro.core.trace`): the trace is summarised once per node (in
  closed form for periodic and cyclic schedules, by folding its occupancy
  blocks otherwise), and every metric becomes a lookup in that summary.

Execution knobs — backend, horizon representation (``dense``, one block of
the whole horizon kept once built, vs ``stream``ed fixed-width chunks at
``O(n × chunk)`` memory) and chunk width — travel together on one
:class:`~repro.core.config.EngineConfig` accepted by every entry point as
``config=``.  Every entry point also accepts a pre-built ``trace=`` so a
caller (e.g. :class:`repro.api.Session` or the experiment runner) can share
a single trace between metrics and validation.

Both horizon representations produce exactly equal metrics (asserted by
``tests/core/test_stream.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import Schedule
from repro.core.trace import TraceView, make_trace, materialize_prefix

__all__ = [
    "HappinessTrace",
    "build_trace",
    "materialize",
    "max_unhappiness_lengths",
    "unhappiness_gaps",
    "observed_periods",
    "happiness_rates",
    "normalized_gaps",
    "jain_fairness_index",
    "ScheduleReport",
    "evaluate_schedule",
]

ScheduleLike = Union[Schedule, Sequence[Iterable[Node]]]

#: what the trace-engine entry points accept and return: any
#: :class:`~repro.core.trace.TraceView` — a dense or streamed trace, or a
#: :class:`~repro.core.trace.TraceMatrix`.
TraceLike = TraceView


def build_trace(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    _reserved: None = None,
    trace: Optional[TraceLike] = None,
    *,
    config: Optional[EngineConfig] = None,
) -> Optional[TraceLike]:
    """Resolve the evaluation engine for one metric call.

    Returns a :class:`~repro.core.trace.StreamedTrace` (the given trace
    when the caller already built one, a fresh one from
    :func:`~repro.core.trace.make_trace` otherwise), or ``None`` when
    ``config.backend == "sets"`` selects the frozenset reference path.
    ``config`` carries the representation choice (``horizon_mode`` resolved
    by estimated memory when ``"auto"``) and the streaming chunk width,
    which is ignored when the resolved representation is dense: a dense
    trace is one chunk of the whole horizon.

    The fourth positional slot takes only ``None``: perfbench's span
    wrapper forwards ``(schedule, graph, horizon, None, trace)`` by
    position.  The slot goes once perfbench records spans through an API
    instead of patching this function (ROADMAP item 1).
    """
    if _reserved is not None:
        raise TypeError(
            f"build_trace() takes no engine knob by position (got {_reserved!r}); "
            "pass config=EngineConfig(backend=...)"
        )
    engine = (config or DEFAULT_CONFIG).resolve(graph.num_nodes(), horizon)
    if trace is not None:
        if not engine.uses_matrix:
            raise ValueError(
                "backend='sets' selects the frozenset reference engine and cannot "
                "use a prebuilt trace; omit trace="
            )
        if trace.horizon != horizon:
            raise ValueError(
                f"shared trace covers horizon {trace.horizon}, requested {horizon}"
            )
        if trace.graph is not graph and trace.graph.nodes() != graph.nodes():
            raise ValueError(
                f"shared trace was built on graph {trace.graph.name!r} whose nodes "
                f"differ from {graph.name!r}"
            )
        return trace
    if not engine.uses_matrix:
        return None
    return make_trace(schedule, graph, horizon, engine.mode, engine.chunk)


def materialize(schedule: ScheduleLike, graph: ConflictGraph, horizon: int) -> List[FrozenSet[Node]]:
    """Return the first ``horizon`` happy sets of ``schedule`` as frozensets."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    return list(materialize_prefix(schedule, horizon))


@dataclass
class HappinessTrace:
    """Per-node appearance times extracted from a schedule prefix.

    Attributes:
        horizon: number of holidays observed.
        appearances: ``{node: sorted list of holidays at which it was happy}``.
    """

    graph: ConflictGraph
    horizon: int
    appearances: Dict[Node, List[int]] = field(default_factory=dict)

    @classmethod
    def from_schedule(cls, schedule: ScheduleLike, graph: ConflictGraph, horizon: int) -> "HappinessTrace":
        """Observe ``horizon`` holidays and record every node's appearances."""
        sets = materialize(schedule, graph, horizon)
        appearances: Dict[Node, List[int]] = {p: [] for p in graph.nodes()}
        for t, happy in enumerate(sets, start=1):
            for p in happy:
                if p in appearances:
                    appearances[p].append(t)
        return cls(graph=graph, horizon=horizon, appearances=appearances)

    def gaps(self, node: Node) -> List[int]:
        """Unhappiness interval lengths for ``node``.

        The gaps are: the run before the first appearance, the runs between
        consecutive appearances, and the run after the last appearance up to
        the horizon.  A node that never appears has one gap equal to the
        whole horizon.
        """
        times = self.appearances[node]
        if not times:
            return [self.horizon]
        gaps: List[int] = []
        prev = 0
        for t in times:
            gaps.append(t - prev - 1)
            prev = t
        gaps.append(self.horizon - prev)
        return gaps

    def mul(self, node: Node) -> int:
        """Maximum unhappiness length of ``node`` within the horizon.

        Note this is the paper's ``mul`` measured on a finite prefix: for the
        bound ``mul(p) ≤ B(p)`` to be meaningfully certified, the horizon
        should be several multiples of the largest claimed bound (the
        benchmark harness picks horizons accordingly).
        """
        return max(self.gaps(node))

    def inter_appearance_gaps(self, node: Node) -> List[int]:
        """Differences between consecutive appearance times (empty if < 2 appearances)."""
        times = self.appearances[node]
        return [b - a for a, b in zip(times, times[1:])]

    def observed_period(self, node: Node) -> Optional[int]:
        """The common inter-appearance difference, or None if not constant.

        A perfectly periodic schedule exhibits a constant difference; a node
        with fewer than two appearances yields None (insufficient evidence).
        """
        diffs = self.inter_appearance_gaps(node)
        if not diffs:
            return None
        first = diffs[0]
        return first if all(d == first for d in diffs) else None

    def happiness_rate(self, node: Node) -> float:
        """Fraction of observed holidays at which ``node`` was happy."""
        return len(self.appearances[node]) / self.horizon


def max_unhappiness_lengths(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    *,
    trace: Optional[TraceLike] = None,
    config: Optional[EngineConfig] = None,
) -> Dict[Node, int]:
    """``{node: mul(node)}`` over the first ``horizon`` holidays."""
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    if matrix is not None:
        return matrix.muls()
    reference = HappinessTrace.from_schedule(schedule, graph, horizon)
    return {p: reference.mul(p) for p in graph.nodes()}


def unhappiness_gaps(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    *,
    trace: Optional[TraceLike] = None,
    config: Optional[EngineConfig] = None,
) -> Dict[Node, List[int]]:
    """``{node: list of unhappiness interval lengths}``."""
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    if matrix is not None:
        return matrix.all_gaps()
    reference = HappinessTrace.from_schedule(schedule, graph, horizon)
    return {p: reference.gaps(p) for p in graph.nodes()}


def observed_periods(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    *,
    trace: Optional[TraceLike] = None,
    config: Optional[EngineConfig] = None,
) -> Dict[Node, Optional[int]]:
    """``{node: empirically observed period or None}``."""
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    if matrix is not None:
        return matrix.observed_periods()
    reference = HappinessTrace.from_schedule(schedule, graph, horizon)
    return {p: reference.observed_period(p) for p in graph.nodes()}


def happiness_rates(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    *,
    trace: Optional[TraceLike] = None,
    config: Optional[EngineConfig] = None,
) -> Dict[Node, float]:
    """``{node: fraction of holidays hosted}``."""
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    if matrix is not None:
        return matrix.happiness_rates()
    reference = HappinessTrace.from_schedule(schedule, graph, horizon)
    return {p: reference.happiness_rate(p) for p in graph.nodes()}


def normalized_gaps(
    muls: Mapping[Node, int], graph: ConflictGraph, floor_degree: int = 0
) -> Dict[Node, float]:
    """``mul(p) / (deg(p) + 1)`` — the paper's "fair share" normalisation.

    The first-come-first-grab thought experiment gives every node an
    expected hosting interval of ``deg(p) + 1``, so a normalised gap close
    to 1 means the schedule matches the fair-share landmark; the clique
    lower bound shows values below 1 are impossible in the worst case.
    ``floor_degree`` can be used to avoid division dominated by isolated
    nodes.
    """
    out: Dict[Node, float] = {}
    for p, mul in muls.items():
        denom = max(graph.degree(p), floor_degree) + 1
        out[p] = mul / denom
    return out


def jain_fairness_index(values: Iterable[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — 1.0 means perfectly even.

    Applied to normalised happiness rates ``rate(p)·(deg(p)+1)`` it captures
    how evenly a schedule distributes hosting relative to each node's fair
    share.
    """
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("fairness index of an empty collection is undefined")
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(xs) * squares)


@dataclass
class ScheduleReport:
    """Aggregate evaluation of one schedule on one graph.

    Produced by :func:`evaluate_schedule`; consumed by the benchmark tables.
    """

    name: str
    graph_name: str
    horizon: int
    muls: Dict[Node, int]
    periods: Dict[Node, Optional[int]]
    rates: Dict[Node, float]
    normalized: Dict[Node, float]

    @property
    def max_mul(self) -> int:
        """Worst maximum unhappiness length over all nodes."""
        return max(self.muls.values()) if self.muls else 0

    @property
    def mean_mul(self) -> float:
        """Average maximum unhappiness length."""
        return sum(self.muls.values()) / len(self.muls) if self.muls else 0.0

    @property
    def max_normalized_gap(self) -> float:
        """Worst ``mul(p)/(deg(p)+1)`` — the locality figure of merit."""
        return max(self.normalized.values()) if self.normalized else 0.0

    @property
    def mean_normalized_gap(self) -> float:
        """Average ``mul(p)/(deg(p)+1)``."""
        return sum(self.normalized.values()) / len(self.normalized) if self.normalized else 0.0

    @property
    def all_periodic(self) -> bool:
        """True when every node with ≥ 2 appearances showed a constant period."""
        return all(period is not None for period in self.periods.values())

    @property
    def fairness(self) -> float:
        """Jain index of fair-share-normalised hosting rates."""
        shares = [
            self.rates[p] * (deg + 1)
            for p, deg in self._degrees.items()
        ]
        return jain_fairness_index(shares)

    # populated by evaluate_schedule
    _degrees: Dict[Node, int] = field(default_factory=dict, repr=False)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline numbers (used for table rows)."""
        return {
            "max_mul": float(self.max_mul),
            "mean_mul": self.mean_mul,
            "max_norm_gap": self.max_normalized_gap,
            "mean_norm_gap": self.mean_normalized_gap,
            "fairness": self.fairness,
            "periodic_fraction": (
                sum(1 for v in self.periods.values() if v is not None) / len(self.periods)
                if self.periods
                else 1.0
            ),
        }


def evaluate_schedule(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    name: str = "schedule",
    *,
    trace: Optional[TraceLike] = None,
    config: Optional[EngineConfig] = None,
) -> ScheduleReport:
    """Run the full metric suite over a schedule prefix and return a report.

    ``config`` selects the evaluation engine: ``EngineConfig.backend``
    (``"auto"``/``"numpy"`` for the trace engine, ``"sets"`` for the
    frozenset reference) and ``EngineConfig.horizon_mode``
    (``"dense"``/``"stream"``/``"auto"``).  Passing a pre-built ``trace``
    skips trace construction entirely so :class:`repro.api.Session` and the
    runner can share one engine with the validator.  All engines produce
    identical reports — this is enforced by the differential tests in
    ``tests/core/test_trace.py`` and ``tests/core/test_stream.py``.
    """
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    if matrix is not None:
        muls = matrix.muls()
        periods = matrix.observed_periods()
        rates = matrix.happiness_rates()
    else:
        reference = HappinessTrace.from_schedule(schedule, graph, horizon)
        muls = {p: reference.mul(p) for p in graph.nodes()}
        periods = {p: reference.observed_period(p) for p in graph.nodes()}
        rates = {p: reference.happiness_rate(p) for p in graph.nodes()}
    report = ScheduleReport(
        name=name,
        graph_name=graph.name,
        horizon=horizon,
        muls=muls,
        periods=periods,
        rates=rates,
        normalized=normalized_gaps(muls, graph),
    )
    report._degrees = graph.degrees()
    return report
