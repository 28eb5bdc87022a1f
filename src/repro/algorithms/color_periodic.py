"""Section 4: the perfectly periodic, color-bound scheduler (Theorem 4.2).

The construction:

1. color the conflict graph legally (any coloring works; the period of a
   node depends only on its color, so better colorings give better periods);
2. encode each color ``c`` with a prefix-free code — the paper uses the
   Elias omega code ``ω(c)`` for its near-optimal length;
3. node ``p`` (color ``c``, codeword of length ``L``) is happy at exactly
   the holidays ``i`` whose binary representation ends with the *reversed*
   codeword: ``LSB(B(i), L) = ω(c)^R``.

Correctness: the codewords of two different colors are never one a prefix of
the other, so the low-order bits of a holiday number can match at most one
color — adjacent nodes (which have different colors) are never happy
together.  Periodicity: the matching condition is ``i ≡ value(ω(c)^R)
(mod 2^L)``, so the node's period is exactly ``2^L = 2^{ρ(c)}``, which
Theorem 4.2 bounds by ``2^{1+log* c}·φ(c)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.coding.bits import bits_to_int, reverse_bits
from repro.coding.elias import EliasOmegaCode
from repro.coding.prefix_free import PrefixFreeCode
from repro.coloring.base import Coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import PeriodicSchedule, Schedule, SlotAssignment

__all__ = ["ColorPeriodicScheduler", "color_pattern", "color_period", "slot_for_color"]


def color_pattern(color: int, code: Optional[PrefixFreeCode] = None) -> str:
    """The low-order-bit pattern a holiday must end with for color ``color`` to host.

    This is the reversed codeword ``ω(color)^R`` (for the default omega code).
    """
    code = code or EliasOmegaCode()
    return reverse_bits(code.encode(color))


def color_period(color: int, code: Optional[PrefixFreeCode] = None) -> int:
    """The exact hosting period of a node with color ``color``: ``2^{len(code(color))}``."""
    code = code or EliasOmegaCode()
    return 1 << code.codeword_length(color)


def slot_for_color(color: int, code: Optional[PrefixFreeCode] = None) -> SlotAssignment:
    """The periodic slot (period, phase) induced by a color under the given code.

    A holiday ``i`` matches iff ``i ≡ value(pattern) (mod 2^{len(pattern)})``
    where ``pattern`` is the reversed codeword.
    """
    pattern = color_pattern(color, code)
    period = 1 << len(pattern)
    phase = bits_to_int(pattern) % period
    return SlotAssignment(period=period, phase=phase)


class ColorPeriodicScheduler(Scheduler):
    """Theorem 4.2 scheduler: perfectly periodic with period ``2^{ρ(col(p))}``.

    Args:
        coloring_fn: graph -> :class:`~repro.coloring.base.Coloring` used in
            step 1 (default: sequential greedy, which guarantees
            ``col(p) ≤ deg(p)+1``); pass :func:`repro.coloring.dsatur.dsatur_coloring`
            or the distributed coloring to study other color profiles.
        code: any prefix-free code over the positive integers (default:
            Elias omega, the paper's choice).
    """

    def __init__(
        self,
        coloring_fn: Optional[Callable[[ConflictGraph], Coloring]] = None,
        code: Optional[PrefixFreeCode] = None,
        compact_colors: bool = True,
    ) -> None:
        self._coloring_fn = coloring_fn or greedy_coloring
        self.code = code or EliasOmegaCode()
        self.compact_colors = compact_colors
        self.last_coloring: Optional[Coloring] = None

    info = SchedulerInfo(
        name="color-periodic-omega",
        periodic=True,
        local_bound="2^ρ(col(p)) ≤ 2^{1+log* c}·φ(c)",
        paper_section="§4, Theorem 4.2",
    )

    @property
    def seeded(self) -> bool:
        return False  # the coloring function sees the graph alone

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        coloring = self._coloring_fn(graph)
        if self.compact_colors:
            coloring = coloring.relabel_compact()
        self.last_coloring = coloring
        nodes = graph.nodes()
        colors = [coloring.color_of(p) for p in nodes]
        # the slot depends on the color alone: encode each color once
        slots = {c: slot_for_color(c, self.code) for c in dict.fromkeys(colors)}
        assignments: Dict[Node, SlotAssignment] = {p: slots[c] for p, c in zip(nodes, colors)}
        return PeriodicSchedule(
            graph,
            assignments,
            check_conflicts=True,
            name=f"{self.info.name}[{self.code.name}]",
        )

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        """The exact per-node period ``2^{len(code(col(p)))}`` (≤ Theorem 4.2's bound)."""
        coloring = self.last_coloring
        if coloring is None:
            coloring = self._coloring_fn(graph)
            if self.compact_colors:
                coloring = coloring.relabel_compact()
            self.last_coloring = coloring
        code = self.code
        return lambda p: float(color_period(coloring.color_of(p), code))
