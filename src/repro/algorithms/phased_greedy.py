"""Section 3: the non-periodic, degree-bound Phased Greedy scheduler.

The algorithm keeps a legal coloring that evolves over time:

1. **Initialisation** — color the graph so that ``col(p) ≤ deg(p) + 1``
   (the paper uses the BEPS distributed algorithm; we default to our
   LOCAL-model stand-in and also allow the cheap sequential greedy coloring
   for large experiments — the guarantee only needs the ``deg+1`` property).
2. **Holiday ``i``** — every node with ``col(p) = i`` is happy, then
   immediately recolors itself with the smallest integer ``t > i`` not used
   by any neighbor.  Since ``p`` has ``deg(p)`` neighbors, the new color is
   at most ``i + deg(p) + 1``, so ``p`` is happy again within ``deg(p) + 1``
   holidays — Theorem 3.1.

The schedule is eventually periodic, never perfectly periodic: the
recoloring rule reads nothing but the colors relative to the current
holiday, so once that vector repeats the schedule is a lasso (a transient
of ``T`` holidays, then a cycle of ``C``), yet a node's gap still varies
inside the cycle with the colors its neighbors occupy.  It requires ``O(1)``
communication rounds per holiday.  E1/E6 surface both facts and E15
measures ``T`` and ``C``.  The built schedule finds its lasso while it
generates and then replays the cycle instead of recoloring.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.coloring.base import Coloring, greedy_color_for
from repro.coloring.distributed import distributed_deg_plus_one_coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import GeneratorSchedule, Schedule

__all__ = ["PhasedGreedyState", "PhasedGreedyScheduler"]


class PhasedGreedyState:
    """Mutable state of the Phased Greedy algorithm (the evolving coloring).

    Exposed separately from the scheduler so tests can step it manually and
    inspect the color dynamics, and so the dynamic-setting experiments can
    reuse the recoloring rule.
    """

    def __init__(self, graph: ConflictGraph, initial: Coloring) -> None:
        if initial.graph is not graph and set(initial.colors) != set(graph.nodes()):
            raise ValueError("initial coloring must cover exactly the graph's nodes")
        self.graph = graph
        self.colors: Dict[Node, int] = dict(initial.colors)
        self.holiday = 0
        self.recolor_events = 0
        # colour -> the nodes holding it: holiday i pops bucket i instead
        # of scanning every node
        self._buckets: Dict[int, List[Node]] = {}
        for p in graph.nodes():
            self._buckets.setdefault(self.colors[p], []).append(p)

    def step(self) -> FrozenSet[Node]:
        """Advance one holiday: return the happy set and recolor it.

        Implements the loop body of the *Phased Greedy Coloring* algorithm:
        at holiday ``i`` the nodes with current color ``i`` are happy, and
        each picks the smallest color ``> i`` unused among its neighbors.
        The happy nodes form one color class of a legal coloring, so none is
        another's neighbor and the order they recolor in changes no color.
        They go in graph order all the same, which fixes the happy
        frozenset's iteration order.
        """
        self.holiday += 1
        i = self.holiday
        happy = self._buckets.pop(i, [])
        happy.sort(key=self.graph.index_of)
        for p in happy:
            new_color = greedy_color_for(p, self.graph, self.colors, start=i + 1)
            self.colors[p] = new_color
            self._buckets.setdefault(new_color, []).append(p)
        self.recolor_events += len(happy)
        return frozenset(happy)

    def color_of(self, node: Node) -> int:
        """Current (next-hosting-holiday) color of ``node``."""
        return self.colors[node]

    def next_hosting(self, node: Node) -> int:
        """The next holiday at which ``node`` will host (its current color)."""
        return self.colors[node]


class PhasedGreedyScheduler(Scheduler):
    """Theorem 3.1 scheduler: ``mul(p) ≤ deg(p) + 1``, eventually periodic, O(1) rounds/holiday.

    Args:
        initial_coloring: ``"distributed"`` (default) runs the LOCAL-model
            (deg+1)-coloring for initialisation, matching the paper's setup;
            ``"greedy"`` uses the sequential greedy coloring (same guarantee,
            cheaper to construct — useful for large benchmark instances);
            alternatively a callable ``graph -> Coloring`` may be supplied.
        window: forwarded to the produced
            :class:`~repro.core.schedule.GeneratorSchedule`: ``None``
            (default) memoises the whole generated prefix, an integer turns
            the memo into a sliding window of that many holidays so a
            streamed evaluation runs at memory bounded by the window, not
            the horizon.  Windowed schedules support a single forward pass
            — see the ``GeneratorSchedule`` notes before opting in.  The
            lasso search below then remembers only the last ``window + 1``
            holidays (trimmed in batches, like the memo), which still finds
            every cycle no longer than the window.

    A built schedule looks for its lasso while it generates: the colour
    state after holiday ``T + C`` first repeats the one after ``T``, which
    holiday ``T + C + 1`` confirms; every later holiday replays the kept
    happy set of holiday ``T + ((h - T - 1) mod C) + 1`` and the state is
    stepped no further.  :attr:`last_lasso` reports ``(T, C)``.
    """

    def __init__(
        self,
        initial_coloring: str | Callable[[ConflictGraph], Coloring] = "distributed",
        window: Optional[int] = None,
    ) -> None:
        self._initial_coloring = initial_coloring
        self._window = window
        self.last_state: Optional[PhasedGreedyState] = None
        # the last build's (T, C), appended when its schedule finds the lasso
        self._last_lasso: List[Tuple[int, int]] = []
        self.init_rounds: Optional[int] = None
        self.init_messages: Optional[int] = None

    def with_window(self, window: Optional[int]) -> "PhasedGreedyScheduler":
        """A copy of this scheduler whose schedules keep a sliding window
        of ``window`` holidays (see :class:`Scheduler.with_window`)."""
        if window == self._window:
            return self
        return PhasedGreedyScheduler(self._initial_coloring, window=window)

    info = SchedulerInfo(
        name="phased-greedy",
        periodic=False,
        local_bound="deg(p) + 1",
        paper_section="§3, Theorem 3.1",
    )

    @property
    def seeded(self) -> bool:
        """Only the distributed initial coloring reads the seed; a greedy or
        callable one sees the graph alone, and the recoloring rule is
        deterministic."""
        return self._initial_coloring == "distributed"

    def _make_initial(self, graph: ConflictGraph, seed: int) -> Coloring:
        if callable(self._initial_coloring):
            return self._initial_coloring(graph)
        if self._initial_coloring == "distributed":
            return distributed_deg_plus_one_coloring(graph, seed=seed)
        if self._initial_coloring == "greedy":
            return greedy_coloring(graph)
        raise ValueError(
            f"unknown initial_coloring {self._initial_coloring!r}; "
            "expected 'distributed', 'greedy' or a callable"
        )

    @property
    def last_lasso(self) -> Optional[Tuple[int, int]]:
        """``(T, C)`` of the last built schedule: its colour state after
        holiday ``T + C`` first repeats the one after ``T``.  ``None`` until
        the schedule has generated that far."""
        return self._last_lasso[0] if self._last_lasso else None

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        initial = self._make_initial(graph, seed)
        if not initial.is_degree_bounded():
            raise ValueError(
                "Phased Greedy requires an initial coloring with col(p) <= deg(p) + 1"
            )
        state = PhasedGreedyState(graph, initial)
        self.last_state = state
        self.init_rounds = initial.rounds
        self.init_messages = initial.messages
        lasso: List[Tuple[int, int]] = []
        self._last_lasso = lasso
        window = self._window
        colors = state.colors
        # the colour state after holiday b decides happy set b + 1, so states
        # are looked up by that set's hash (computed once, in C, and cached
        # by the frozenset): the state after b is matched at holiday b + 1
        seen: Dict[int, List[int]] = {}  # hash of happy set b + 1 -> holidays b
        kept: List[FrozenSet[Node]] = []  # happy sets of holidays base + 1, ...
        base = 0
        cycle: Tuple[FrozenSet[Node], ...] = ()

        def repeats(a: int, t: int) -> bool:
            """Whether the colour state after holiday ``a`` is the one after
            ``t``: a node's colour after ``a`` is the first holiday it hosts
            in ``a+1..t`` (the kept sets), which must be ``t - a`` short of
            its colour now; a node hosting in none of them differs."""
            shift = t - a
            hosted = set()
            for s, happy in enumerate(kept[a - base:t - base], start=a + 1):
                for p in happy:
                    if p not in hosted:
                        if colors[p] != s + shift:
                            return False
                        hosted.add(p)
            return len(hosted) == len(colors)

        def step(holiday: int) -> FrozenSet[Node]:
            nonlocal base, cycle
            if cycle:
                # any later holiday is a kept set; only the state can go astray
                start, period = lasso[0]
                if state.holiday != start + period + 1:
                    raise RuntimeError(
                        f"Phased Greedy must be advanced sequentially (its state is at "
                        f"holiday {state.holiday}, not {start + period + 1})"
                    )
                return cycle[(holiday - start - 1) % period]
            if holiday != state.holiday + 1:
                raise RuntimeError(
                    f"Phased Greedy must be advanced sequentially (expected holiday "
                    f"{state.holiday + 1}, got {holiday})"
                )
            happy = state.step()
            kept.append(happy)
            key = hash(happy)
            earlier = seen.get(key)
            if earlier is None:
                seen[key] = [holiday - 1]
            else:
                # the state after a equals the one after b = holiday - 1 iff
                # they decide the same next happy set and the next states match
                for a in earlier:
                    if kept[a - base] == happy and repeats(a + 1, holiday):
                        lasso.append((a, holiday - 1 - a))
                        cycle = tuple(kept[a - base:holiday - 1 - base])
                        seen.clear()
                        kept.clear()
                        return happy
                earlier.append(holiday - 1)
            if window is not None and len(kept) > 2 * (window + 1):
                # keep the last window + 1 holidays: a cycle of C <= window is
                # confirmed from C + 1 sets
                drop = len(kept) - window - 1
                for old in kept[:drop]:  # the oldest state with its key
                    bucket = seen[hash(old)]
                    del bucket[0]
                    if not bucket:
                        del seen[hash(old)]
                del kept[:drop]
                base += drop
            return happy

        return GeneratorSchedule(
            graph, step, validate=False, name=self.info.name, window=self._window
        )

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        """Theorem 3.1 bound ``deg(p) + 1``."""
        return lambda p: float(graph.degree(p) + 1)
