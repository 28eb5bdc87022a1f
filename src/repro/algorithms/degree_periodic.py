"""Section 5: the perfectly periodic, degree-bound scheduler (Theorem 5.3).

A node of degree ``d`` hosts exactly every ``2^{⌈log(d+1)⌉} ≤ 2d`` holidays.
The scheduler is a thin wrapper around the modular slot assignment of
:mod:`repro.coloring.slot_assignment`; both the sequential (Section 5.1) and
the phased distributed (Section 5.2) constructions are exposed through the
``mode`` argument so the E4 benchmark can verify that they achieve the same
periods while differing only in construction cost.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.coloring.slot_assignment import (
    ModularSlotAssignment,
    distributed_slot_assignment,
    modulus_for_degree,
    sequential_slot_assignment,
)
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import Schedule

__all__ = ["DegreePeriodicScheduler"]


class DegreePeriodicScheduler(Scheduler):
    """Theorem 5.3 scheduler: exact period ``2^{⌈log(deg(p)+1)⌉}`` for every node.

    Args:
        mode: ``"sequential"`` (Section 5.1 greedy, default) or
            ``"distributed"`` (Section 5.2 phased LOCAL-model construction).
    """

    def __init__(self, mode: str = "sequential") -> None:
        if mode not in ("sequential", "distributed"):
            raise ValueError(f"mode must be 'sequential' or 'distributed', got {mode!r}")
        self.mode = mode
        self.last_assignment: Optional[ModularSlotAssignment] = None

    info = SchedulerInfo(
        name="degree-periodic",
        periodic=True,
        local_bound="2^ceil(log(deg(p)+1)) ≤ 2·deg(p)",
        paper_section="§5, Theorem 5.3",
    )

    @property
    def seeded(self) -> bool:
        """Only the distributed construction's LOCAL-model rounds read the seed."""
        return self.mode == "distributed"

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        if self.mode == "sequential":
            assignment = sequential_slot_assignment(graph)
        else:
            assignment = distributed_slot_assignment(graph, seed=seed)
        self.last_assignment = assignment
        name = f"{self.info.name}-{self.mode}"
        return assignment.to_schedule(name=name)

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        """The Theorem 5.3 period ``2^{⌈log(deg+1)⌉}`` (≥ the measured mul)."""
        return lambda p: float(modulus_for_degree(graph.degree(p)))

    @property
    def construction_rounds(self) -> Optional[int]:
        """LOCAL-model rounds spent by the last distributed construction (None otherwise)."""
        if self.last_assignment is None:
            return None
        return self.last_assignment.rounds

    @property
    def construction_messages(self) -> Optional[int]:
        """Messages sent by the last distributed construction (None otherwise)."""
        if self.last_assignment is None:
            return None
        return self.last_assignment.messages
