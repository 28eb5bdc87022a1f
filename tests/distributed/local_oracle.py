"""The LOCAL-model oracle for the restricted-palette colouring.

The library colours through :func:`repro.coloring.distributed.restricted_palette_rounds`:
plain synchronous rounds, with the communication cost counted in closed
form.  This module keeps the other way of running the same algorithm: one
:class:`DistributedColoringProcess` per node, driven message by message by
:class:`SyncSimulator` over a :class:`Network`.  For Section 5.2 that is
one induced subgraph and one ``Network(subgraph, seed + phase)`` per phase.
The differential tests hold the two equal in colours, slots, statistics
and errors.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.coloring.distributed import DistributedColoringProcess
from repro.core.problem import ConflictGraph, Node
from repro.distributed.network import Network
from repro.distributed.simulator import SyncSimulator
from repro.distributed.stats import RoundStats
from repro.utils.math import ceil_log2


def _simulate(
    topology: ConflictGraph,
    graph: ConflictGraph,
    palettes: Mapping[Node, List[int]],
    seed: int,
    max_rounds: int,
) -> Tuple[Dict[Node, Optional[int]], RoundStats]:
    """Run one process per node of ``topology``, identified by its index in ``graph``."""
    network = Network(topology, seed=seed)
    processes = {
        p: DistributedColoringProcess(index=graph.index_of(p), palette=palettes[p])
        for p in topology.nodes()
    }
    outcome = SyncSimulator(network, processes).run(max_rounds=max_rounds)
    return {p: outcome.result_of(p) for p in topology.nodes()}, outcome.stats


def simulated_rounds(
    graph: ConflictGraph,
    members: Sequence[Node],
    palettes: Mapping[Node, List[int]],
    seed: int,
    max_rounds: int,
) -> Tuple[Dict[Node, Optional[int]], RoundStats]:
    """``restricted_palette_rounds`` through the simulator, on the subgraph
    ``members`` induce."""
    return _simulate(graph.subgraph(members), graph, palettes, seed, max_rounds)


def simulated_coloring(
    graph: ConflictGraph,
    seed: int = 0,
    palettes: Optional[Mapping[Node, Iterable[int]]] = None,
    max_rounds: int = 10_000,
) -> Tuple[Dict[Node, int], RoundStats]:
    """``distributed_deg_plus_one_coloring`` through the simulator: colours and stats."""
    if palettes is not None:
        missing = [p for p in graph.nodes() if p not in palettes]
        if missing:
            raise ValueError(f"palettes missing for nodes {missing!r}")
        chosen_palettes = {p: list(palettes[p]) for p in graph.nodes()}
    else:
        chosen_palettes = {p: list(range(1, graph.degree(p) + 2)) for p in graph.nodes()}

    colors, stats = _simulate(graph, graph, chosen_palettes, seed, max_rounds)
    if any(c is None for c in colors.values()):
        raise RuntimeError("distributed coloring terminated with uncolored nodes")
    return {p: int(c) for p, c in colors.items()}, stats


def simulated_slot_assignment(
    graph: ConflictGraph, seed: int = 0, max_rounds: int = 10_000
) -> Tuple[Dict[Node, int], Dict[Node, int], RoundStats]:
    """``distributed_slot_assignment`` through the simulator: slots, moduli and
    the phases' stats merged with :meth:`RoundStats.merge`."""
    slots: Dict[Node, int] = {}
    moduli: Dict[Node, int] = {}
    runs: List[RoundStats] = []

    delta = graph.max_degree()
    top_phase = ceil_log2(delta + 1) if delta >= 0 else 0
    phase_of: Dict[Node, int] = {p: ceil_log2(graph.degree(p) + 1) for p in graph.nodes()}

    for phase in range(top_phase, -1, -1):
        members: List[Node] = [p for p in graph.nodes() if phase_of[p] == phase]
        if not members:
            continue
        modulus = 1 << phase
        if modulus == 1:
            for p in members:
                slots[p] = 0
                moduli[p] = 1
            continue

        palettes: Dict[Node, List[int]] = {}
        for p in members:
            blocked = {slots[q] % modulus for q in graph.neighbors(p) if q in slots}
            allowed = [x for x in range(modulus) if x not in blocked]
            if not allowed:
                raise RuntimeError(
                    f"phase {phase}: node {p!r} has no available slot — this contradicts "
                    "Lemma 5.2 and indicates a bug"
                )
            palettes[p] = [x + 1 for x in allowed]

        subgraph = graph.subgraph(members, name=f"{graph.name}-phase{phase}")
        picked, stats = _simulate(subgraph, graph, palettes, seed + phase, max_rounds)
        runs.append(stats)
        for p in members:
            if picked[p] is None:
                raise RuntimeError(f"phase {phase}: node {p!r} ended without a slot")
            slots[p] = int(picked[p]) - 1
            moduli[p] = modulus

    return slots, moduli, reduce(RoundStats.merge, runs, RoundStats())
