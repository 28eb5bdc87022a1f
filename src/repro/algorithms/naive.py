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

import numpy as np

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
    "WakeUpBlocks",
    "BLOCK_ELEMENTS",
    "BLOCK_HOLIDAYS",
]

#: float64 values one first-come-first-grab block may hold: each holiday
#: takes ``n`` wake-up draws plus the ``2m`` neighbour draws gathered from them
BLOCK_ELEMENTS = 1 << 15
#: the most holidays one block covers, however small the graph
BLOCK_HOLIDAYS = 256


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

    @property
    def seeded(self) -> bool:
        return False

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

    @property
    def seeded(self) -> bool:
        return False  # the coloring function sees the graph alone

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


class WakeUpBlocks:
    """First-come-first-grab's happy sets, computed a block of holidays at a time.

    Holiday ``t`` uses draws ``(t−1)·n … t·n−1`` of the single stream
    ``RngStream(seed, ("fcfg", graph.name))``, one per node in graph order,
    so the wake-up times of holidays ``[s, s+w)`` are one ``random((w, n))``
    call once the bit generator's ``advance`` has moved the stream to draw
    ``(s−1)·n``.  A node is happy iff its draw is strictly below the
    smallest draw among its neighbours (``np.minimum.reduceat`` over a CSR
    gather of the neighbour columns): degree-0 nodes always are, and a tie
    leaves both ends unhappy.  :attr:`width` fits a block's draws and gather
    into :data:`BLOCK_ELEMENTS`, capped at :data:`BLOCK_HOLIDAYS`.
    """

    def __init__(self, graph: ConflictGraph, seed: int) -> None:
        self._nodes = graph.nodes()
        self._n = n = len(self._nodes)
        index = {p: i for i, p in enumerate(self._nodes)}
        neighbors = [graph.neighbor_tuple(p) for p in self._nodes]
        degree = np.fromiter(map(len, neighbors), dtype=np.intp, count=n)
        self._columns = np.fromiter(
            (index[q] for row in neighbors for q in row), dtype=np.intp, count=int(degree.sum())
        )
        self._linked = np.flatnonzero(degree)  # nodes with a neighbour
        self._starts = (np.cumsum(degree) - degree)[self._linked]  # their runs in _columns
        self.width = max(1, min(BLOCK_HOLIDAYS, BLOCK_ELEMENTS // max(n + self._columns.size, 1)))
        self._rng = RngStream(seed, ("fcfg", graph.name)).generator
        self._next = 1  # the holiday whose draws the stream yields next
        # the last block made: its first holiday, its happy node indices
        # row after row, and where each row starts in them
        self._block_start = 0
        self._columns_happy: list = []
        self._bounds: list = []

    def block(self, start: int, width: int) -> np.ndarray:
        """The ``(width, n)`` happy matrix of holidays ``[start, start + width)``."""
        # PCG64 steps an LCG modulo 2¹²⁸, so advancing by the difference
        # modulo 2¹²⁸ also steps back to a start behind the stream
        self._rng.bit_generator.advance((start - self._next) * self._n % (1 << 128))
        draws = self._rng.random((width, self._n))
        self._next = start + width
        happy = np.ones(draws.shape, dtype=bool)
        if self._columns.size:
            first = np.minimum.reduceat(draws[:, self._columns], self._starts, axis=1)
            happy[:, self._linked] = draws[:, self._linked] < first
        return happy

    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        """Holiday ``holiday``'s happy set, from the block that holds it."""
        if not 0 <= holiday - self._block_start < len(self._bounds) - 1:
            self._block_start = holiday - (holiday - 1) % self.width
            rows, columns = np.nonzero(self.block(self._block_start, self.width))
            self._columns_happy = columns.tolist()
            self._bounds = np.searchsorted(rows, np.arange(self.width + 1)).tolist()
        row = holiday - self._block_start
        # in graph order: where hashes collide, a frozenset's iteration
        # order follows the order its members were inserted in
        happy = self._columns_happy[self._bounds[row]:self._bounds[row + 1]]
        return frozenset(map(self._nodes.__getitem__, happy))


class FirstComeFirstGrabScheduler(Scheduler):
    """The randomized "first come first grab" process.

    Each holiday every parent draws an independent uniform wake-up time; a
    parent is happy when its wake-up time beats all of its in-laws' (it
    grabs every couple it shares before the other side does).  The happy set
    is exactly the set of local minima of the wake-up order, which is always
    an independent set.  Per holiday, ``P(p happy) = 1/(deg(p)+1)``.
    The draws are made a block of holidays at a time (:class:`WakeUpBlocks`).
    """

    info = SchedulerInfo(
        name="first-come-first-grab",
        periodic=False,
        local_bound="expected deg+1 (no worst-case bound)",
        paper_section="§1 fair share discussion",
    )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        step = WakeUpBlocks(graph, seed).happy_set
        return GeneratorSchedule(graph, step, validate=False, name=self.info.name)

    def bound_function(self, graph: ConflictGraph) -> None:
        # Randomized: no deterministic worst-case bound to certify.
        return None
