"""The :class:`Scheduler` interface shared by all algorithms.

A scheduler is a *factory*: given a conflict graph (and a seed for its
internal randomness) it produces a :class:`~repro.core.schedule.Schedule`.
Keeping construction separate from the schedule object itself lets the
benchmark harness measure construction cost (communication rounds, wall
time) independently of per-holiday evaluation cost, mirroring the paper's
lightweight-vs-heavyweight discussion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import Schedule

__all__ = ["Scheduler", "SchedulerInfo"]


@dataclass(frozen=True)
class SchedulerInfo:
    """Static facts about a scheduler, used in benchmark tables.

    Attributes:
        name: short identifier (also the registry key).
        periodic: whether the produced schedules are perfectly periodic.
        local_bound: human-readable statement of the per-node guarantee.
        paper_section: where in the paper the algorithm comes from.
    """

    name: str
    periodic: bool
    local_bound: str
    paper_section: str


class Scheduler(ABC):
    """Abstract scheduler: ``build`` a schedule for a conflict graph."""

    info: SchedulerInfo

    @abstractmethod
    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        """Construct a schedule for ``graph``.

        Implementations must be deterministic given ``(graph, seed)``.
        """

    def bound_function(self, graph: ConflictGraph) -> Optional[Callable[[Node], float]]:
        """The per-node bound this scheduler guarantees, or None if global-only.

        Returned as a callable so it can be fed straight into
        :func:`repro.core.validation.certify_local_bound`.
        """
        return None

    def with_window(self, window: Optional[int]) -> "Scheduler":
        """A scheduler variant whose schedules memoise a sliding window.

        This is how :attr:`repro.core.config.EngineConfig.window` reaches a
        scheduler: generator-backed schedulers that support the
        :class:`~repro.core.schedule.GeneratorSchedule` window cache
        override this to return a re-configured copy; everything else (in
        particular perfectly periodic schedulers, which never materialise a
        prefix at all) returns itself unchanged.
        """
        return self

    @property
    def seeded(self) -> bool:
        """Whether :meth:`build` reads its ``seed``.

        True unless a subclass knows otherwise: a scheduler whose ``build``
        never reads ``seed`` builds the same schedule at every seed and
        overrides this to return False, which lets a content key of its
        schedules (the serving layer's trace-cache key) leave the seed out.
        The value follows from the scheduler's configuration; it is not an
        option of its own.
        """
        return True

    @property
    def name(self) -> str:
        """Shorthand for ``info.name``."""
        return self.info.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.info.name!r})"
