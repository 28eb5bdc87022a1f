"""Baseline schedulers from the paper's introduction.

Three strawmen that frame the results:

* :class:`SequentialScheduler` — the "Trivial" example of Section 4: nodes
  take turns one at a time, giving everyone a gap of ``|P|`` regardless of
  degree.  Legal, perfectly periodic, and maximally non-local.
* :class:`RoundRobinColorScheduler` — color the graph and cycle through the
  color classes; with a ``Δ+1`` coloring this is the ``mul(p) = Δ + 1``
  solution the paper calls "not pleasing" because a one-child family waits
  for the big broods.
* :class:`FirstComeFirstGrabScheduler` — the "chaotic" randomized process:
  every holiday parents wake at random times and grab their still-available
  children; a parent is happy when it wakes before all of its in-laws.  Its
  *expected* hosting interval is ``deg(p) + 1``, the fair-share landmark the
  deterministic algorithms are measured against, but it gives no worst-case
  guarantee and is not periodic.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.coloring.base import Coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import GeneratorSchedule, PeriodicSchedule, Schedule, SlotAssignment
from repro.utils.rng import RngStream

__all__ = [
    "SequentialScheduler",
    "RoundRobinColorScheduler",
    "FirstComeFirstGrabScheduler",
]


class SequentialScheduler(Scheduler):
    """One node per holiday, cycling through the node list.

    Every node's period is exactly ``n = |P|`` — the canonical example of a
    schedule whose quality depends on a *global* property.
    """

    info = SchedulerInfo(
        name="sequential",
        periodic=True,
        local_bound="n (global)",
        paper_section="§4 example 1",
    )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        nodes = graph.nodes()
        n = max(len(nodes), 1)
        assignments = {
            p: SlotAssignment(period=n, phase=(idx + 1) % n) for idx, p in enumerate(nodes)
        }
        return PeriodicSchedule(graph, assignments, check_conflicts=True, name=self.info.name)

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        n = graph.num_nodes()
        return lambda p: float(max(n, 1))


class RoundRobinColorScheduler(Scheduler):
    """Cycle through the color classes of a legal coloring.

    With ``C`` colors every node is happy exactly every ``C`` holidays:
    on holiday ``i`` the class ``(i mod C) + 1`` hosts, exactly as described
    in Section 1 ("Connection to coloring").  Using a greedy ``Δ+1``
    coloring reproduces the ``Δ + 1`` strawman; callers may inject a better
    coloring function to study how the chromatic number drives this bound.
    """

    def __init__(self, coloring_fn: Optional[Callable[[ConflictGraph], Coloring]] = None) -> None:
        self._coloring_fn = coloring_fn or greedy_coloring
        self.last_coloring: Optional[Coloring] = None

    info = SchedulerInfo(
        name="round-robin-color",
        periodic=True,
        local_bound="C (number of colors, global)",
        paper_section="§1 coloring connection",
    )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        coloring = self._coloring_fn(graph).relabel_compact()
        self.last_coloring = coloring
        num_colors = max(coloring.max_color(), 1)
        assignments: Dict[Node, SlotAssignment] = {}
        for p in graph.nodes():
            color = coloring.color_of(p) if graph.num_nodes() else 1
            # Holiday i hosts color (i mod C) + 1, i.e. color c hosts when i ≡ c - 1 (mod C).
            assignments[p] = SlotAssignment(period=num_colors, phase=(color - 1) % num_colors)
        return PeriodicSchedule(graph, assignments, check_conflicts=True, name=self.info.name)

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        coloring = self.last_coloring or self._coloring_fn(graph).relabel_compact()
        num_colors = max(coloring.max_color(), 1)
        return lambda p: float(num_colors)


class FirstComeFirstGrabScheduler(Scheduler):
    """The randomized "first come first grab" process.

    Each holiday every parent draws an independent uniform wake-up time; a
    parent is happy when its wake-up time beats all of its in-laws' (it
    grabs every couple it shares before the other side does).  The happy set
    is exactly the set of local minima of the wake-up order, which is always
    an independent set.  Per holiday, ``P(p happy) = 1/(deg(p)+1)``.
    """

    info = SchedulerInfo(
        name="first-come-first-grab",
        periodic=False,
        local_bound="expected deg+1 (no worst-case bound)",
        paper_section="§1 fair share discussion",
    )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        nodes = graph.nodes()
        neighbors = {p: graph.neighbors(p) for p in nodes}
        rng = RngStream(seed, ("fcfg", graph.name))

        def step(holiday: int) -> FrozenSet[Node]:
            wake = {p: rng.random() for p in nodes}
            happy = [
                p
                for p in nodes
                if all(wake[p] < wake[q] for q in neighbors[p])
            ]
            return frozenset(happy)

        return GeneratorSchedule(graph, step, validate=False, name=self.info.name)

    def bound_function(self, graph: ConflictGraph) -> None:
        # Randomized: no deterministic worst-case bound to certify.
        return None
