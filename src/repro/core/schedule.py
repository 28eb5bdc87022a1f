"""Schedule abstractions: infinite sequences of independent sets.

A *schedule* answers the question "who is happy at holiday ``t``?" for every
``t ≥ 1``.  The paper distinguishes:

* arbitrary (possibly aperiodic) schedules — e.g. the Phased Greedy
  scheduler of Section 3, whose future depends on its evolving coloring;
* **perfectly periodic** schedules — every node ``p`` has a period ``τ_p``
  and a phase, and is happy exactly at holidays ``t ≡ phase_p (mod τ_p)``
  (Sections 4 and 5).

:class:`Schedule` is the minimal interface consumed by the metrics,
validation and benchmark layers.  :class:`PeriodicSchedule` is the concrete
perfectly-periodic representation (a ``{node: (period, phase)}`` table);
:class:`ExplicitSchedule` wraps a pre-computed finite prefix (optionally
cyclic); :class:`GeneratorSchedule` adapts an online scheduler object.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.problem import ConflictGraph, Node

__all__ = [
    "Schedule",
    "PeriodicSchedule",
    "ExplicitSchedule",
    "GeneratorSchedule",
    "SlotAssignment",
]


class Schedule(ABC):
    """An infinite sequence of happy (independent) sets over a conflict graph."""

    def __init__(self, graph: ConflictGraph) -> None:
        self.graph = graph

    @abstractmethod
    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        """Return the set of happy parents at holiday ``holiday`` (1-indexed)."""

    # -- derived helpers -----------------------------------------------------------
    def is_happy(self, node: Node, holiday: int) -> bool:
        """True when ``node`` is happy at ``holiday``."""
        return node in self.happy_set(holiday)

    def prefix(self, horizon: int, start: int = 1) -> List[FrozenSet[Node]]:
        """Materialise holidays ``start .. start + horizon - 1`` as a list of sets."""
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon!r}")
        return [self.happy_set(t) for t in range(start, start + horizon)]

    def iter_holidays(self, horizon: int, start: int = 1) -> Iterator[Tuple[int, FrozenSet[Node]]]:
        """Yield ``(holiday, happy_set)`` pairs for a finite horizon."""
        for t in range(start, start + horizon):
            yield t, self.happy_set(t)

    def appearances(self, node: Node, horizon: int, start: int = 1) -> List[int]:
        """Holidays within the horizon at which ``node`` is happy."""
        return [t for t in range(start, start + horizon) if self.is_happy(node, t)]

    def is_periodic(self) -> bool:
        """True when this schedule advertises perfect periodicity."""
        return False

    def node_period(self, node: Node) -> Optional[int]:
        """The advertised period of ``node`` (None for aperiodic schedules)."""
        return None

    def describe(self) -> str:
        """Short human-readable description used by benchmark tables."""
        return type(self).__name__


@dataclass(frozen=True)
class SlotAssignment:
    """A perfectly-periodic assignment for a single node.

    The node is happy at every holiday ``t >= 1`` with
    ``t % period == phase % period``.
    """

    period: int
    phase: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period!r}")
        if not (0 <= self.phase < self.period):
            object.__setattr__(self, "phase", self.phase % self.period)

    def is_happy(self, holiday: int) -> bool:
        """True when the node is happy at ``holiday``."""
        return holiday % self.period == self.phase

    def next_happy(self, holiday: int) -> int:
        """The first holiday ``>= holiday`` at which the node is happy."""
        offset = (self.phase - holiday) % self.period
        return holiday + offset


class PeriodicSchedule(Schedule):
    """A perfectly periodic schedule given by one :class:`SlotAssignment` per node.

    The constructor verifies that the assignment never makes two adjacent
    nodes happy at the same holiday — this is a *static* check over the
    pairwise congruences (two assignments ``(τ₁, φ₁)`` and ``(τ₂, φ₂)``
    collide iff ``φ₁ ≡ φ₂ (mod gcd(τ₁, τ₂))``), so it certifies the entire
    infinite schedule, not just a finite prefix.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        assignments: Mapping[Node, SlotAssignment],
        check_conflicts: bool = True,
        name: str = "periodic",
    ) -> None:
        super().__init__(graph)
        missing = [p for p in graph.nodes() if p not in assignments]
        if missing:
            raise ValueError(f"assignments missing for nodes: {missing!r}")
        extra = [p for p in assignments if p not in graph]
        if extra:
            raise ValueError(f"assignments given for unknown nodes: {extra!r}")
        self.assignments: Dict[Node, SlotAssignment] = dict(assignments)
        self.name = name
        if check_conflicts:
            conflict = self.find_conflict()
            if conflict is not None:
                u, v, holiday = conflict
                raise ValueError(
                    f"assignment conflict: adjacent nodes {u!r} and {v!r} are both "
                    f"scheduled at holiday {holiday}"
                )

    @staticmethod
    def _congruence_collision(a: SlotAssignment, b: SlotAssignment) -> Optional[int]:
        """Return the earliest colliding holiday for two assignments, or None.

        By the Chinese Remainder Theorem the congruences
        ``t ≡ φ_a (mod τ_a)`` and ``t ≡ φ_b (mod τ_b)`` have a common
        solution iff ``φ_a ≡ φ_b (mod gcd(τ_a, τ_b))``; when they do, the
        solutions form a single residue class modulo ``lcm(τ_a, τ_b)``,
        computed here in closed form (O(log) arithmetic) rather than by
        scanning up to the lcm, which blows up for large coprime periods.
        """
        g = math.gcd(a.period, b.period)
        if (a.phase - b.phase) % g != 0:
            return None
        lcm = a.period // g * b.period
        # CRT: t = φ_a + τ_a·k with k ≡ (φ_b - φ_a)/g · (τ_a/g)⁻¹ (mod τ_b/g).
        m = b.period // g
        k = ((b.phase - a.phase) // g * pow(a.period // g, -1, m)) % m
        t0 = (a.phase + a.period * k) % lcm
        return t0 if t0 >= 1 else lcm  # holidays are numbered from 1

    def find_conflict(self) -> Optional[Tuple[Node, Node, int]]:
        """Return ``(u, v, holiday)`` for some conflicting adjacent pair, or None."""
        for u, v in self.graph.edges():
            collision = self._congruence_collision(self.assignments[u], self.assignments[v])
            if collision is not None:
                return u, v, collision
        return None

    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        if holiday < 1:
            raise ValueError(f"holidays are numbered from 1, got {holiday!r}")
        return frozenset(
            p for p, slot in self.assignments.items() if slot.is_happy(holiday)
        )

    def is_periodic(self) -> bool:
        return True

    def node_period(self, node: Node) -> int:
        return self.assignments[node].period

    def node_phase(self, node: Node) -> int:
        """The phase (offset modulo the period) of ``node``."""
        return self.assignments[node].phase

    def periods(self) -> Dict[Node, int]:
        """``{node: period}`` for every node."""
        return {p: slot.period for p, slot in self.assignments.items()}

    def global_period(self) -> int:
        """The least common multiple of all node periods (the schedule's cycle)."""
        lcm = 1
        for slot in self.assignments.values():
            lcm = lcm // math.gcd(lcm, slot.period) * slot.period
        return lcm

    def describe(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ExplicitSchedule(Schedule):
    """A schedule backed by an explicit finite list of happy sets.

    When ``cyclic`` is True the list is repeated forever (holiday ``t`` maps
    to entry ``(t - 1) mod len``); otherwise querying beyond the recorded
    prefix raises :class:`IndexError`.  Used to snapshot online schedulers
    and to feed hand-crafted sequences to the metrics in tests.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        happy_sets: Sequence[Iterable[Node]],
        cyclic: bool = False,
        validate: bool = True,
        name: str = "explicit",
    ) -> None:
        super().__init__(graph)
        self._sets: List[FrozenSet[Node]] = [frozenset(s) for s in happy_sets]
        self.cyclic = cyclic
        self.name = name
        if validate:
            for idx, happy in enumerate(self._sets, start=1):
                unknown = [p for p in happy if p not in graph]
                if unknown:
                    raise ValueError(f"holiday {idx} schedules unknown nodes {unknown!r}")
                if not graph.is_independent_set(happy):
                    raise ValueError(f"holiday {idx} is not an independent set: {sorted(map(repr, happy))}")

    def __len__(self) -> int:
        return len(self._sets)

    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        if holiday < 1:
            raise ValueError(f"holidays are numbered from 1, got {holiday!r}")
        idx = holiday - 1
        if self.cyclic and self._sets:
            return self._sets[idx % len(self._sets)]
        if idx >= len(self._sets):
            raise IndexError(
                f"holiday {holiday} is beyond the recorded horizon of {len(self._sets)}"
            )
        return self._sets[idx]

    def is_periodic(self) -> bool:
        return self.cyclic

    def describe(self) -> str:
        suffix = "cyclic" if self.cyclic else f"{len(self._sets)} holidays"
        return f"{type(self).__name__}({self.name}, {suffix})"


class GeneratorSchedule(Schedule):
    """Adapter turning an online "next holiday" callback into a :class:`Schedule`.

    The callback is invoked lazily and exactly once per holiday, in order;
    results are memoised so repeated queries (and out-of-order reads within
    the already-generated prefix) are cheap.  This is how the Section 3
    Phased Greedy scheduler — which must be run forward — is exposed through
    the common interface.

    By default the memo cache grows with the highest holiday ever queried,
    which is what historically kept aperiodic schedulers from streaming at
    bounded memory.  Passing ``window=W`` turns the cache into a **sliding
    window**: at least the last ``W`` generated holidays stay retrievable,
    and everything far enough behind the generation frontier is evicted
    once the cache crosses its high-water mark of ``2·W`` entries (batched
    eviction keeps ``happy_set`` amortised O(1); resident sets never exceed
    ``2·W``).  The trade-off is that a windowed schedule supports a single
    forward pass: reading a holiday at or below :attr:`evicted_below`
    raises :class:`ValueError`.  That is exactly the access pattern of the
    streaming trace engine's one summary pass
    (:class:`repro.core.trace.StreamedTrace`), so ``window= a few chunks``
    lets generator-backed schedulers evaluate arbitrary horizons in
    ``O(window + chunk)`` memory — but per-appearance queries that stream a
    second pass (``appearances``/``all_gaps``/``happy_set``), and any other
    re-read of evicted history, are off the table.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        step: Callable[[int], Iterable[Node]],
        validate: bool = True,
        name: str = "generator",
        window: Optional[int] = None,
    ) -> None:
        super().__init__(graph)
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self._step = step
        self._cache: List[FrozenSet[Node]] = []
        self.validate = validate
        self.name = name
        self.window = window
        self._evicted = 0  # number of leading holidays dropped from the cache

    @property
    def evicted_below(self) -> int:
        """Holidays ``1..evicted_below`` are no longer retrievable (0 when
        nothing has been evicted; always 0 for unwindowed schedules)."""
        return self._evicted

    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        if holiday < 1:
            raise ValueError(f"holidays are numbered from 1, got {holiday!r}")
        if holiday <= self._evicted:
            raise ValueError(
                f"holiday {holiday} was evicted from the generator's sliding window "
                f"(window={self.window}, retained from holiday {self._evicted + 1}); "
                "windowed generator schedules support a single forward pass"
            )
        while self._evicted + len(self._cache) < holiday:
            t = self._evicted + len(self._cache) + 1
            happy = frozenset(self._step(t))
            if self.validate and not self.graph.is_independent_set(happy):
                raise ValueError(f"holiday {t} produced a non-independent set: {sorted(map(repr, happy))}")
            self._cache.append(happy)
            # batched low-water eviction: trim back to `window` entries only
            # after crossing 2×window, so the amortised cost per holiday is
            # O(1) while the guaranteed lookback stays >= window.
            if self.window is not None and len(self._cache) > 2 * self.window:
                drop = len(self._cache) - self.window
                del self._cache[:drop]
                self._evicted += drop
        return self._cache[holiday - self._evicted - 1]

    def describe(self) -> str:
        suffix = "" if self.window is None else f", window={self.window}"
        return f"{type(self).__name__}({self.name}{suffix})"

