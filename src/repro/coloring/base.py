"""Coloring data structures and legality checks.

Colors are positive integers (1, 2, 3, ...), matching the paper's convention
that "colors are thought of as values in {1, 2, ..., c}".  A coloring is
*legal* when adjacent nodes never share a color.  The paper additionally
cares about the **degree-bounded** property ``col(p) ≤ deg(p) + 1`` (which
the BEPS algorithm guarantees and our greedy/distributed stand-ins preserve)
because it turns color-based period bounds into degree-based ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.problem import ConflictGraph, Node
from repro.distributed.stats import RoundStats

__all__ = [
    "Coloring",
    "is_legal_coloring",
    "verify_coloring",
    "color_classes",
    "max_color",
    "greedy_color_for",
]


def is_legal_coloring(graph: ConflictGraph, colors: Mapping[Node, int]) -> bool:
    """True when every node has a positive color and no edge is monochromatic."""
    for p in graph.nodes():
        if p not in colors or colors[p] < 1:
            return False
    for u, v in graph.edges():
        if colors[u] == colors[v]:
            return False
    return True


def verify_coloring(
    graph: ConflictGraph,
    colors: Mapping[Node, int],
    require_degree_bounded: bool = False,
) -> None:
    """Raise :class:`ValueError` describing the first problem found, if any."""
    for p in graph.nodes():
        if p not in colors:
            raise ValueError(f"node {p!r} has no color")
        if colors[p] < 1:
            raise ValueError(f"node {p!r} has non-positive color {colors[p]}")
    for u, v in graph.edges():
        if colors[u] == colors[v]:
            raise ValueError(f"adjacent nodes {u!r} and {v!r} share color {colors[u]}")
    if require_degree_bounded:
        for p in graph.nodes():
            if colors[p] > graph.degree(p) + 1:
                raise ValueError(
                    f"node {p!r} has color {colors[p]} exceeding deg+1 = {graph.degree(p) + 1}"
                )


def color_classes(colors: Mapping[Node, int]) -> Dict[int, List[Node]]:
    """Group nodes by color: ``{color: [nodes]}`` (each class is an independent set
    when the coloring is legal)."""
    classes: Dict[int, List[Node]] = {}
    for node, color in colors.items():
        classes.setdefault(color, []).append(node)
    for nodes in classes.values():
        nodes.sort(key=repr)
    return dict(sorted(classes.items()))


def max_color(colors: Mapping[Node, int]) -> int:
    """The largest color used (0 for an empty coloring)."""
    return max(colors.values(), default=0)


def greedy_color_for(
    node: Node,
    graph: ConflictGraph,
    colors: Mapping[Node, int],
    forbidden: Iterable[int] = (),
    start: int = 1,
) -> int:
    """Smallest color ``>= start`` not used by any already-colored neighbor of ``node``
    and not in ``forbidden``.

    This is the inner step shared by the sequential greedy coloring and the
    Phased Greedy recoloring rule of Section 3 (which uses ``start = i + 1``
    at holiday ``i``).
    """
    taken: Set[int] = set(forbidden)
    for q in graph.neighbor_tuple(node):
        if q in colors:
            taken.add(colors[q])
    candidate = start
    while candidate in taken:
        candidate += 1
    return candidate


@dataclass
class Coloring:
    """A coloring of a conflict graph plus provenance metadata.

    Attributes:
        graph: the colored conflict graph.
        colors: ``{node: color}`` with colors ``>= 1``.
        algorithm: name of the producing algorithm (for tables).
        rounds: communication rounds spent (None for sequential algorithms).
        messages: messages delivered (None for sequential algorithms).
        stats: the LOCAL-model run's full accounting (None for sequential
            algorithms).
    """

    graph: ConflictGraph
    colors: Dict[Node, int]
    algorithm: str = "unknown"
    rounds: Optional[int] = None
    messages: Optional[int] = None
    stats: Optional[RoundStats] = None

    def __post_init__(self) -> None:
        verify_coloring(self.graph, self.colors)

    def color_of(self, node: Node) -> int:
        """The color of ``node``."""
        return self.colors[node]

    def num_colors(self) -> int:
        """Number of distinct colors used."""
        return len(set(self.colors.values()))

    def max_color(self) -> int:
        """Largest color value used."""
        return max_color(self.colors)

    def classes(self) -> Dict[int, List[Node]]:
        """Color classes (independent sets)."""
        return color_classes(self.colors)

    def is_degree_bounded(self) -> bool:
        """True when ``col(p) <= deg(p) + 1`` for every node."""
        return all(self.colors[p] <= self.graph.degree(p) + 1 for p in self.graph.nodes())

    def histogram(self) -> Dict[int, int]:
        """``{color: number of nodes with that color}``."""
        hist: Dict[int, int] = {}
        for color in self.colors.values():
            hist[color] = hist.get(color, 0) + 1
        return dict(sorted(hist.items()))

    def relabel_compact(self) -> "Coloring":
        """Return an equivalent coloring whose colors are ``1..k`` with no gaps.

        Smaller color values give smaller Elias codewords, so compacting a
        coloring can only improve the Section 4 period bounds.
        """
        used = sorted(set(self.colors.values()))
        remap = {old: new for new, old in enumerate(used, start=1)}
        return Coloring(
            graph=self.graph,
            colors={p: remap[c] for p, c in self.colors.items()},
            algorithm=f"{self.algorithm}+compact",
            rounds=self.rounds,
            messages=self.messages,
            stats=self.stats,
        )
