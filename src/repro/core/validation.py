"""Schedule validation and bound certification.

Three levels of checking are provided:

1. **Legality** — every holiday's happy set is an independent set of the
   conflict graph and only mentions known nodes
   (:func:`check_independent_sets`).
2. **Bound certification** — every node's measured ``mul`` is within a
   claimed per-node bound such as ``deg(p)+1`` or ``2^{⌈log(d+1)⌉}``
   (:func:`certify_local_bound`), which is how the benchmark harness turns
   the paper's theorems into pass/fail assertions.
3. **Periodicity certification** — a schedule that claims to be perfectly
   periodic indeed shows a constant inter-appearance gap equal to the
   advertised period for every node (:func:`certify_periodicity`).

Like the metric suite, every check runs on either engine: the numpy trace
engine (default), where legality reads the per-edge collision holidays of
the trace's summary (in closed form for periodic and cyclic schedules, one
AND of two rows per edge and block otherwise) and bound/periodicity
certification reads its per-node statistics, or the ``backend="sets"``
frozenset reference that walks every holiday.  A pre-built ``trace=`` can
be shared across checks and with the metric suite.

Execution knobs travel on one :class:`~repro.core.config.EngineConfig`
(``config=``).  Every check honours the horizon representation
(``horizon_mode="dense"`` / ``"stream"`` / ``"auto"``): the legality test
folds the trace's blocks — one block of the whole horizon when dense,
fixed-width chunks with boundary state when streamed — and
``fail_fast=True`` stops a stream at the first chunk containing a
violation; later chunks are never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import EngineConfig
from repro.core.metrics import HappinessTrace, ScheduleLike, TraceLike, build_trace, materialize
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import Schedule

__all__ = [
    "Violation",
    "ValidationReport",
    "check_independent_sets",
    "certify_local_bound",
    "certify_periodicity",
    "validate_schedule",
]


@dataclass(frozen=True)
class Violation:
    """A single validation failure."""

    kind: str
    node: Optional[Node]
    holiday: Optional[int]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - human-facing formatting
        parts = [self.kind]
        if self.node is not None:
            parts.append(f"node={self.node!r}")
        if self.holiday is not None:
            parts.append(f"holiday={self.holiday}")
        parts.append(self.detail)
        return " ".join(parts)


@dataclass
class ValidationReport:
    """Outcome of a validation run: a (possibly empty) list of violations."""

    checked_holidays: int
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations were found."""
        return not self.violations

    def raise_if_failed(self) -> None:
        """Raise :class:`AssertionError` summarising the violations, if any."""
        if self.violations:
            lines = "\n".join(str(v) for v in self.violations[:20])
            more = "" if len(self.violations) <= 20 else f"\n... and {len(self.violations) - 20} more"
            raise AssertionError(
                f"schedule validation failed with {len(self.violations)} violation(s):\n{lines}{more}"
            )

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        """Combine two reports (max of horizons, concatenated violations)."""
        return ValidationReport(
            checked_holidays=max(self.checked_holidays, other.checked_holidays),
            violations=self.violations + other.violations,
        )


def check_independent_sets(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    *,
    trace: Optional[TraceLike] = None,
    fail_fast: bool = False,
    config: Optional[EngineConfig] = None,
) -> ValidationReport:
    """Verify that every holiday in the prefix schedules an independent set.

    On the trace engine this is one adjacency-masked column test per edge —
    ``row(u) & row(v)`` flags every holiday at which two in-laws host
    simultaneously — instead of a per-holiday membership scan; on the
    streaming engine the row-ANDs run chunk by chunk (or not at all: a
    periodic or cyclic schedule's collisions come in closed form).  With
    ``fail_fast`` the report stops at the first offending holiday
    (identically on every engine) and a streaming scan stops building
    chunks there.
    """
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    if matrix is not None:
        return _check_independent_sets_trace(matrix, graph, horizon, fail_fast=fail_fast)
    sets = materialize(schedule, graph, horizon)
    report = ValidationReport(checked_holidays=horizon)
    node_set = set(graph.nodes())
    for t, happy in enumerate(sets, start=1):
        unknown = [p for p in happy if p not in node_set]
        for p in unknown:
            report.violations.append(
                Violation("unknown-node", p, t, "scheduled node is not in the conflict graph")
            )
        known = [p for p in happy if p in node_set]
        if not graph.is_independent_set(known):
            offending = _find_adjacent_pair(graph, known)
            report.violations.append(
                Violation(
                    "not-independent",
                    None,
                    t,
                    f"adjacent nodes scheduled together: {offending!r}",
                )
            )
        if fail_fast and report.violations:
            break
    return report


def _check_independent_sets_trace(
    matrix: TraceLike, graph: ConflictGraph, horizon: int, fail_fast: bool = False
) -> ValidationReport:
    """Trace-engine legality check, emitting the same violation kinds per
    holiday (unknown nodes first, then one not-independent record) as the
    reference.  The *pair* named in a not-independent detail may differ from
    the reference's choice — the matrix cannot recover the original set
    iteration order, so the first colliding edge (in graph edge order) is
    named as the witness."""
    report = ValidationReport(checked_holidays=horizon)
    # Collisions are computed against the *passed* graph's edge set — a
    # shared trace only guarantees node agreement, not edge agreement.
    unknown_by_holiday, collisions = matrix.legality_scan(graph, fail_fast=fail_fast)
    for t in sorted(set(unknown_by_holiday) | set(collisions)):
        for p in unknown_by_holiday.get(t, ()):
            report.violations.append(
                Violation("unknown-node", p, t, "scheduled node is not in the conflict graph")
            )
        if t in collisions:
            offending = collisions[t][0]
            report.violations.append(
                Violation(
                    "not-independent",
                    None,
                    t,
                    f"adjacent nodes scheduled together: {offending!r}",
                )
            )
        if fail_fast and report.violations:
            break
    return report


def _find_adjacent_pair(graph: ConflictGraph, nodes: Sequence[Node]) -> Optional[Tuple[Node, Node]]:
    selected = set(nodes)
    for p in nodes:
        for q in graph.neighbors(p):
            if q in selected:
                return (p, q)
    return None


def certify_local_bound(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    bound: Callable[[Node], float] | Mapping[Node, float],
    bound_name: str = "bound",
    skip_isolated: bool = False,
    *,
    trace: Optional[TraceLike] = None,
    config: Optional[EngineConfig] = None,
) -> ValidationReport:
    """Check ``mul(p) <= bound(p)`` for every node over the given horizon.

    ``bound`` may be a callable ``node -> value`` or a precomputed mapping.
    ``skip_isolated`` excludes degree-0 nodes (some schedulers legitimately
    never schedule nodes with no conflicts because they can host every
    holiday without coordination; the paper's guarantees are stated for
    nodes that actually have in-laws).
    """
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    reference = None if matrix is not None else HappinessTrace.from_schedule(schedule, graph, horizon)
    report = ValidationReport(checked_holidays=horizon)
    for p in graph.nodes():
        if skip_isolated and graph.degree(p) == 0:
            continue
        limit = bound[p] if isinstance(bound, Mapping) else bound(p)
        measured = matrix.mul(p) if matrix is not None else reference.mul(p)
        if measured > limit:
            report.violations.append(
                Violation(
                    "bound-exceeded",
                    p,
                    None,
                    f"mul={measured} exceeds {bound_name}={limit} (degree {graph.degree(p)})",
                )
            )
    return report


def certify_periodicity(
    schedule: Schedule,
    horizon: int,
    require_advertised: bool = True,
    *,
    trace: Optional[TraceLike] = None,
    config: Optional[EngineConfig] = None,
) -> ValidationReport:
    """Check that a schedule claiming periodicity really is perfectly periodic.

    For every node with at least two appearances in the horizon the
    inter-appearance gap must be constant; when ``require_advertised`` and
    the schedule advertises :meth:`~repro.core.schedule.Schedule.node_period`,
    the observed period must also equal the advertised one.

    On the trace engine only the *distinct* inter-appearance differences
    are consulted (:meth:`~repro.core.trace.TraceView.distinct_appearance_diffs`),
    which is what lets the streaming engine certify a 10⁸-holiday horizon
    without ever holding the full diff list.
    """
    graph = schedule.graph
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    reference = None if matrix is not None else HappinessTrace.from_schedule(schedule, graph, horizon)
    report = ValidationReport(checked_holidays=horizon)
    for p in graph.nodes():
        distinct = (
            matrix.distinct_appearance_diffs(p)
            if matrix is not None
            else sorted(set(reference.inter_appearance_gaps(p)))
        )
        if not distinct:
            continue
        if len(distinct) != 1:
            report.violations.append(
                Violation("aperiodic", p, None, f"inter-appearance gaps vary: {distinct}")
            )
            continue
        if require_advertised and schedule.is_periodic():
            advertised = schedule.node_period(p)
            if advertised is not None and distinct[0] != advertised:
                report.violations.append(
                    Violation(
                        "period-mismatch",
                        p,
                        None,
                        f"observed period {distinct[0]} != advertised {advertised}",
                    )
                )
    return report


def validate_schedule(
    schedule: ScheduleLike,
    graph: ConflictGraph,
    horizon: int,
    bound: Callable[[Node], float] | Mapping[Node, float] | None = None,
    bound_name: str = "bound",
    check_periodic: bool = False,
    skip_isolated: bool = False,
    *,
    trace: Optional[TraceLike] = None,
    fail_fast: bool = False,
    config: Optional[EngineConfig] = None,
) -> ValidationReport:
    """Run legality + optional bound + optional periodicity checks in one call.

    On a non-``"sets"`` backend the occupancy trace (dense or streamed,
    per ``config.horizon_mode``) is built at most once and shared by all
    three checks (or taken from ``trace=`` when the caller already built it
    for the metric suite).  ``fail_fast`` applies to the legality check only
    — bound and periodicity certification always cover every node.
    """
    matrix = build_trace(schedule, graph, horizon, trace=trace, config=config)
    report = check_independent_sets(
        schedule, graph, horizon, trace=matrix, fail_fast=fail_fast, config=config
    )
    if bound is not None:
        report = report.merge(
            certify_local_bound(
                schedule,
                graph,
                horizon,
                bound,
                bound_name=bound_name,
                skip_isolated=skip_isolated,
                trace=matrix,
                config=config,
            )
        )
    if check_periodic and isinstance(schedule, Schedule):
        # The periodicity check runs over schedule.graph's nodes; the trace
        # built on this call's `graph` can only be shared when the two agree
        # (certify_periodicity builds its own otherwise).
        shareable = matrix is not None and matrix.graph.nodes() == schedule.graph.nodes()
        report = report.merge(
            certify_periodicity(
                schedule,
                horizon,
                trace=matrix if shareable else None,
                config=config,
            )
        )
    return report
