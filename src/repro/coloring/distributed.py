"""Distributed (deg+1)-coloring in the LOCAL model.

The paper uses the BEPS algorithm (Barenboim–Elkin–Pettie–Schneider,
FOCS 2012) as a black box with three properties: it is distributed, it
produces a legal coloring with ``col(p) ≤ deg(p) + 1``, and it still works
when each node's palette is restricted to an arbitrary list of allowed
colors of size ``deg(p) + 1`` (this is what Section 5.2 needs).  The exact
BEPS round complexity is irrelevant to the scheduling guarantees, so —
as documented in DESIGN.md — we substitute a simpler classical randomized
algorithm with the same interface:

every undecided node repeatedly proposes a uniformly random color from its
remaining palette; a proposal is *kept* when no lower-index neighbor
proposed the same color in the same round and no neighbor has already
finalised that color.  Each node terminates with probability at least a
constant per attempt, so the algorithm finishes in ``O(log n)`` rounds with
high probability, and trivially never exceeds palette size
``deg(p) + 1``.

The library runs the algorithm through :func:`restricted_palette_rounds`,
plain synchronous rounds over the graph's neighbour tuples with the
communication cost (:class:`~repro.distributed.stats.RoundStats`) counted
in closed form.  :class:`DistributedColoringProcess` is the same algorithm
written as a :class:`~repro.distributed.node.NodeProcess`; run under
:class:`~repro.distributed.simulator.SyncSimulator` it is the oracle the
round function is tested equal to, colours, statistics and errors alike.
:func:`distributed_deg_plus_one_coloring` is the convenience driver.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coloring.base import Coloring
from repro.core.problem import ConflictGraph, Node
from repro.distributed.messages import Message, payload_bits
from repro.distributed.node import NodeContext, NodeProcess
from repro.distributed.simulator import SimulationError
from repro.distributed.stats import RoundStats
from repro.utils.rng import _MASK64, derive_seed

__all__ = [
    "DistributedColoringProcess",
    "distributed_deg_plus_one_coloring",
    "restricted_palette_rounds",
]

_PROPOSE = "propose"
_FINAL = "final"


def _base_palette(palette: Sequence[int]) -> List[int]:
    """The sorted distinct colours of ``palette``, which must be non-empty and positive."""
    if not palette:
        raise ValueError("palette must be non-empty")
    if any(c < 1 for c in palette):
        raise ValueError("palette colors must be positive integers")
    return sorted(set(palette))


def _exhausted(index: int, base: List[int], forbidden: Set[int]) -> RuntimeError:
    return RuntimeError(
        f"palette exhausted for node index {index}: "
        f"base={base}, forbidden={sorted(forbidden)}"
    )


class DistributedColoringProcess(NodeProcess):
    """Per-node program of the randomized restricted-palette coloring.

    Args:
        index: a unique comparable integer identity used only for symmetric
            tie-breaking (the paper's model assumes unique identifiers).
        palette: the allowed colors for this node.  Must contain at least
            ``degree + 1`` entries counting only colors that neighbors could
            also take — the standard choice is ``range(1, degree + 2)``.
    """

    def __init__(self, index: int, palette: Sequence[int]) -> None:
        self.index = index
        self.base_palette: List[int] = _base_palette(palette)
        self.forbidden: Set[int] = set()
        self.color: Optional[int] = None
        self._last_proposal: Optional[int] = None

    # -- helpers -------------------------------------------------------------------
    def _available(self) -> List[int]:
        available = [c for c in self.base_palette if c not in self.forbidden]
        if not available:
            raise _exhausted(self.index, self.base_palette, self.forbidden)
        return available

    def _propose(self, ctx: NodeContext) -> None:
        available = self._available()
        pick = int(ctx.rng.integers(0, len(available)))
        self._last_proposal = available[pick]
        ctx.broadcast((_PROPOSE, self._last_proposal, self.index))

    # -- NodeProcess interface -----------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        self._propose(ctx)

    def on_round(self, ctx: NodeContext, inbox: List[Message]) -> None:
        same_color_rivals: List[int] = []
        for message in inbox:
            kind = message.payload[0]
            if kind == _FINAL:
                self.forbidden.add(message.payload[1])
            elif kind == _PROPOSE:
                _, proposed, rival_index = message.payload
                if self._last_proposal is not None and proposed == self._last_proposal:
                    same_color_rivals.append(rival_index)

        if self._last_proposal is not None and self._last_proposal not in self.forbidden:
            if all(self.index < rival for rival in same_color_rivals):
                self.color = self._last_proposal
                ctx.broadcast((_FINAL, self.color))
                ctx.halt()
                return

        self._propose(ctx)

    def result(self) -> Optional[int]:
        return self.color


def restricted_palette_rounds(
    graph: ConflictGraph,
    members: Sequence[Node],
    palettes: Mapping[Node, Sequence[int]],
    seed: int,
    max_rounds: int,
) -> Tuple[Dict[Node, int], RoundStats]:
    """Colour ``members`` from their ``palettes`` in synchronous LOCAL rounds.

    This is the run :class:`DistributedColoringProcess` makes under
    :class:`~repro.distributed.simulator.SyncSimulator` on the subgraph that
    ``members`` induce in ``graph``, over ``Network(subgraph, seed)``, with
    each node's ``graph.index_of`` as its identity.  It returns the same
    colours, the same :class:`~repro.distributed.stats.RoundStats` and
    raises the same errors, but keeps no message, context or subgraph:

    * round 0: every member proposes a uniform colour of its palette,
      drawn from the stream ``Network.rng_for`` would give it;
    * round r: a live member keeps its round r−1 proposal unless a finalised
      neighbour has taken that colour or a neighbour with a lower index
      proposed it in round r−1; it then broadcasts the colour as final and
      halts, and otherwise proposes again from its palette minus the
      finals received so far.

    Messages delivered in round r are the (member-)degrees of the members
    that broadcast in round r−1, each charged :func:`payload_bits` of the
    broadcast tuple.  As in the simulator, a round that delivers the last
    finals is recorded and counts against ``max_rounds``.

    Raises:
        ValueError: a palette is empty or non-positive, or ``max_rounds < 1``.
        RuntimeError: a member's palette ran out (the first such member in
            ``members`` order).
        SimulationError: the run did not end within ``max_rounds`` rounds.
    """
    root = int(seed) & _MASK64  # as RngStream reads a seed
    bases = [_base_palette(palettes[p]) for p in members]
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    position = {p: i for i, p in enumerate(members)}
    neighbours = [[position[q] for q in graph.neighbor_tuple(p) if q in position] for p in members]
    index = [graph.index_of(p) for p in members]
    forbidden: List[Set[int]] = [set() for _ in members]
    streams: List[Optional[np.random.Generator]] = [None] * len(members)
    broadcasts = [1] * len(members)  # round 0's proposal included

    def propose(i: int) -> Tuple[str, int, int]:
        available = [c for c in bases[i] if c not in forbidden[i]]
        if not available:
            raise _exhausted(index[i], bases[i], forbidden[i])
        if len(available) == 1:
            # a draw from one colour can only pick it, and a member's palette
            # never grows back, so it never draws from its stream again
            return (_PROPOSE, available[0], index[i])
        stream = streams[i]
        if stream is None:
            stream = streams[i] = np.random.default_rng(derive_seed(root, "node", members[i]))
        return (_PROPOSE, available[stream.integers(0, len(available))], index[i])

    colours: List[Optional[int]] = [None] * len(members)
    stats = RoundStats()
    live = list(range(len(members)))
    sent = {i: propose(i) for i in live}
    for _ in range(max_rounds):
        heard, sent = sent, {}
        delivered = delivered_bits = 0
        for i, payload in heard.items():
            degree = len(neighbours[i])
            if degree:
                delivered += degree
                delivered_bits += degree * payload_bits(payload)
        if not live and not delivered:
            break
        still_live = []
        for i in live:
            mine = heard[i][1]
            taken = forbidden[i]
            beaten = False
            for j in neighbours[i]:
                payload = heard.get(j)
                if payload is None:
                    continue
                if payload[0] == _FINAL:
                    taken.add(payload[1])
                elif payload[1] == mine and index[j] < index[i]:
                    beaten = True
            broadcasts[i] += 1
            if beaten or mine in taken:
                sent[i] = propose(i)
                still_live.append(i)
            else:
                colours[i] = mine
                sent[i] = (_FINAL, mine)
        live = still_live
        stats.record_round(delivered, delivered_bits)
        if not live and not any(neighbours[i] for i in sent):
            break
    else:
        raise SimulationError(
            f"simulation did not terminate within {max_rounds} rounds; "
            f"{len(live)} node(s) still live"
        )
    stats.messages_by_node = {
        p: len(neighbours[i]) * broadcasts[i] for i, p in enumerate(members) if neighbours[i]
    }
    return dict(zip(members, colours)), stats


def _default_palettes(graph: ConflictGraph) -> Dict[Node, List[int]]:
    return {p: list(range(1, graph.degree(p) + 2)) for p in graph.nodes()}


def distributed_deg_plus_one_coloring(
    graph: ConflictGraph,
    seed: int = 0,
    palettes: Optional[Mapping[Node, Iterable[int]]] = None,
    max_rounds: int = 10_000,
) -> Coloring:
    """Run the distributed coloring over ``graph`` and return the resulting coloring.

    Args:
        graph: the conflict graph (also the communication topology).
        seed: RNG seed; the run is deterministic given the seed.
        palettes: optional per-node allowed colors (defaults to
            ``{1, ..., deg(p)+1}``); used by the Section 5.2 phases to
            restrict colors modulo powers of two.
        max_rounds: safety bound on LOCAL-model rounds.

    Returns:
        A :class:`~repro.coloring.base.Coloring` whose ``rounds`` and
        ``messages`` fields record the communication cost, and whose
        ``stats`` holds the run's :class:`~repro.distributed.stats.RoundStats`.
    """
    nodes = graph.nodes()
    if palettes is not None:
        missing = [p for p in nodes if p not in palettes]
        if missing:
            raise ValueError(f"palettes missing for nodes {missing!r}")
        chosen_palettes = {p: list(palettes[p]) for p in nodes}
    else:
        chosen_palettes = _default_palettes(graph)

    colors, stats = restricted_palette_rounds(graph, nodes, chosen_palettes, seed, max_rounds)
    return Coloring(
        graph=graph,
        colors={p: int(colors[p]) for p in nodes},
        algorithm="distributed-deg+1",
        rounds=stats.rounds,
        messages=stats.messages,
        stats=stats,
    )
