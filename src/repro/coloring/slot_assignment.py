"""Modular slot assignment — the combinatorial core of Section 5.

A *slot assignment* gives every node ``p`` of degree ``d`` a modulus
``2^{j}`` with ``j = ⌈log(d+1)⌉`` and a slot ``x ∈ [0, 2^{j} - 1]`` such that
no two adjacent nodes ever claim the same holiday, i.e. for every edge
``(p, q)`` the congruences ``t ≡ x_p (mod 2^{j_p})`` and
``t ≡ x_q (mod 2^{j_q})`` have no common solution.  Because the moduli are
nested powers of two, this is equivalent to ``x_p ≢ x_q (mod 2^{min(j_p, j_q)})``
(Lemma 5.1 / 5.2 in the paper).

Two constructions are implemented:

* :func:`sequential_slot_assignment` — the Section 5.1 greedy algorithm:
  process nodes in decreasing degree order; when it is ``p``'s turn at most
  ``deg(p) < 2^{j_p}`` residues are blocked, so a free slot always exists.
* :func:`distributed_slot_assignment` — the Section 5.2 algorithm: one
  LOCAL-model coloring phase per degree class ``i = ⌈log(Δ+1)⌉ … 0``, where
  the palette of a node is restricted to the residues modulo ``2^{i}`` not
  blocked by neighbors that picked in earlier (higher) phases.

The result converts directly into a
:class:`~repro.core.schedule.PeriodicSchedule` via :meth:`ModularSlotAssignment.to_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.coloring.distributed import restricted_palette_rounds
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import PeriodicSchedule, SlotAssignment
from repro.distributed.stats import RoundStats
from repro.utils.math import ceil_log2

__all__ = [
    "ModularSlotAssignment",
    "sequential_slot_assignment",
    "distributed_slot_assignment",
    "modulus_for_degree",
]


def modulus_for_degree(degree: int) -> int:
    """The Section 5 modulus ``2^{⌈log(d+1)⌉}`` of a node with degree ``d``.

    Equals 1 for isolated nodes and is at most ``2d`` for ``d ≥ 1``.
    """
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree!r}")
    return 1 << ceil_log2(degree + 1)


@dataclass
class ModularSlotAssignment:
    """The output of a Section 5 construction: per-node ``(slot, modulus)`` pairs."""

    graph: ConflictGraph
    slots: Dict[Node, int]
    moduli: Dict[Node, int]
    algorithm: str = "slot-assignment"
    rounds: Optional[int] = None
    messages: Optional[int] = None
    stats: Optional[RoundStats] = None

    def __post_init__(self) -> None:
        for p in self.graph.nodes():
            if p not in self.slots or p not in self.moduli:
                raise ValueError(f"node {p!r} has no slot assignment")
            modulus = self.moduli[p]
            if modulus < 1 or (modulus & (modulus - 1)) != 0:
                raise ValueError(f"modulus of {p!r} must be a power of two, got {modulus}")
            if not (0 <= self.slots[p] < modulus):
                raise ValueError(
                    f"slot of {p!r} must lie in [0, {modulus}), got {self.slots[p]}"
                )

    def verify_conflict_free(self) -> None:
        """Check Lemma 5.1/5.2: adjacent nodes never claim the same holiday.

        Raises :class:`AssertionError` naming the first offending edge.
        """
        for u, v in self.graph.edges():
            small = min(self.moduli[u], self.moduli[v])
            if (self.slots[u] - self.slots[v]) % small == 0:
                raise AssertionError(
                    f"slot conflict on edge ({u!r}, {v!r}): "
                    f"{self.slots[u]} mod {self.moduli[u]} vs {self.slots[v]} mod {self.moduli[v]}"
                )

    def period_of(self, node: Node) -> int:
        """The exact hosting period of ``node`` (its modulus)."""
        return self.moduli[node]

    def to_schedule(self, name: Optional[str] = None) -> PeriodicSchedule:
        """Convert to a perfectly periodic schedule (validated on construction)."""
        assignments = {
            p: SlotAssignment(period=self.moduli[p], phase=self.slots[p] % self.moduli[p])
            for p in self.graph.nodes()
        }
        return PeriodicSchedule(
            self.graph, assignments, check_conflicts=True, name=name or self.algorithm
        )


def sequential_slot_assignment(graph: ConflictGraph) -> ModularSlotAssignment:
    """Section 5.1: greedy slot assignment in decreasing degree order.

    When node ``p`` (degree ``d``, modulus ``2^{j}``) picks its slot, only its
    already-processed neighbors block residues, each blocking exactly one
    residue modulo ``2^{j}``; since there are at most ``d < 2^{j}`` of them a
    free slot always exists, so the construction never fails.
    """
    order = sorted(graph.nodes(), key=lambda p: (-graph.degree(p), repr(p)))
    slots: Dict[Node, int] = {}
    moduli: Dict[Node, int] = {}
    for p in order:
        modulus = modulus_for_degree(graph.degree(p))
        blocked = set()
        for q in graph.neighbors(p):
            if q in slots:
                blocked.add(slots[q] % modulus)
        slot = next(x for x in range(modulus) if x not in blocked)
        slots[p] = slot
        moduli[p] = modulus
    assignment = ModularSlotAssignment(
        graph=graph, slots=slots, moduli=moduli, algorithm="slot-sequential"
    )
    assignment.verify_conflict_free()
    return assignment


def distributed_slot_assignment(
    graph: ConflictGraph, seed: int = 0, max_rounds: int = 10_000
) -> ModularSlotAssignment:
    """Section 5.2: phased distributed slot assignment.

    Phase ``i`` (from ``⌈log(Δ+1)⌉`` down to 0) lets exactly the nodes with
    ``⌈log(deg+1)⌉ = i`` pick a slot, running the restricted-palette
    distributed coloring (seed ``seed + i``) among them: a node hears only
    the neighbours of its own phase.  A node's palette is the set of
    residues modulo ``2^{i}`` not blocked (mod ``2^{i}``) by neighbors that
    picked in earlier phases; at most ``deg`` residues are ever blocked so
    the palette is never empty.  ``stats`` adds up the phases' rounds.
    """
    slots: Dict[Node, int] = {}
    moduli: Dict[Node, int] = {}
    stats = RoundStats()

    delta = graph.max_degree()
    top_phase = ceil_log2(delta + 1) if delta >= 0 else 0
    phase_of: Dict[Node, int] = {p: ceil_log2(graph.degree(p) + 1) for p in graph.nodes()}

    for phase in range(top_phase, -1, -1):
        members: List[Node] = [p for p in graph.nodes() if phase_of[p] == phase]
        if not members:
            continue
        modulus = 1 << phase
        if modulus == 1:
            # Isolated nodes (degree 0): the only slot is 0 and it never conflicts.
            for p in members:
                slots[p] = 0
                moduli[p] = 1
            continue

        palettes: Dict[Node, List[int]] = {}
        for p in members:
            blocked = set()
            for q in graph.neighbor_tuple(p):
                if q in slots:
                    blocked.add(slots[q] % modulus)
            allowed = [x for x in range(modulus) if x not in blocked]
            if not allowed:
                raise RuntimeError(
                    f"phase {phase}: node {p!r} has no available slot — this contradicts "
                    "Lemma 5.2 and indicates a bug"
                )
            # The coloring process expects colors >= 1, so shift residues by +1.
            palettes[p] = [x + 1 for x in allowed]

        picked, phase_stats = restricted_palette_rounds(
            graph, members, palettes, seed + phase, max_rounds
        )
        stats = stats.merge(phase_stats)
        for p in members:
            slots[p] = int(picked[p]) - 1
            moduli[p] = modulus

    assignment = ModularSlotAssignment(
        graph=graph,
        slots=slots,
        moduli=moduli,
        algorithm="slot-distributed",
        rounds=stats.rounds,
        messages=stats.messages,
        stats=stats,
    )
    assignment.verify_conflict_free()
    return assignment
