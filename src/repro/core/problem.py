"""The Holiday Gathering Problem's basic objects.

Terminology follows Section 2 of the paper:

* the **conflict graph** ``G = (P, E)`` has one node per *parent pair* and an
  edge between two parents whose children are in a relationship (in-laws);
* a **family holiday gathering** (a *gathering*) is an orientation of ``E``;
  a parent is **happy** in a gathering when it is a sink (all incident edges
  point toward it) — the happy parents of any gathering form an independent
  set of ``G``;
* a parent is **satisfied** when at least one incident edge points toward it
  (Appendix A.3).

:class:`ConflictGraph` wraps a :class:`networkx.Graph` and adds the
validation and convenience queries the schedulers rely on (degrees, the
"child" edge view used by the satisfaction algorithms, deterministic node
ordering).  :class:`Gathering` realises Definition 2.1 literally as an edge
orientation so that the happiness/satisfaction predicates can be exercised
exactly as stated; schedulers normally work with the derived happy *sets*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Sequence, Tuple

import networkx as nx

__all__ = ["Node", "Edge", "ConflictGraph", "Gathering", "orientation_towards"]

Node = Hashable
Edge = Tuple[Node, Node]


class ConflictGraph:
    """An undirected conflict graph of parents (nodes) and in-law relations (edges).

    The wrapper enforces the structural assumptions of the paper:

    * simple graph — no self-loops (a couple's two parent pairs are distinct)
      and no parallel edges (multiple children married across the same two
      families only simplify the problem, per Section 2, so they collapse);
    * hashable node identifiers with a deterministic iteration order (sorted
      by ``repr`` when heterogeneous), so runs are reproducible.

    Args:
        edges: iterable of ``(u, v)`` pairs.
        nodes: optional iterable of isolated or additional nodes.
        name: optional label used in benchmark tables.
    """

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        nodes: Iterable[Node] = (),
        name: str = "conflict-graph",
    ) -> None:
        graph = nx.Graph(name=name)
        graph.add_nodes_from(nodes)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop {u!r} is not a valid in-law relation")
            graph.add_edge(u, v)
        self._graph = graph
        self.name = name
        self._order: List[Node] = self._stable_order(graph.nodes())
        self._index: Dict[Node, int] = {p: i for i, p in enumerate(self._order)}
        # derived-query caches, invalidated by the mutation methods below;
        # hot loops (per-edge legality scans, per-node bound checks) hit
        # these thousands of times per run
        self._edge_cache: List[Edge] | None = None
        self._degree_cache: Dict[Node, int] | None = None
        # filled lazily, one finished tuple per node: threads sharing a
        # graph may race to fill an entry, but every writer stores an equal
        # tuple and no reader sees a partial one
        self._neighbor_cache: Dict[Node, Tuple[Node, ...]] = {}

    def _invalidate_caches(self) -> None:
        self._edge_cache = None
        self._degree_cache = None
        self._neighbor_cache = {}

    # -- construction --------------------------------------------------------------
    @staticmethod
    def _stable_order(nodes: Iterable[Node]) -> List[Node]:
        nodes = list(nodes)
        try:
            return sorted(nodes)
        except TypeError:
            return sorted(nodes, key=repr)

    @classmethod
    def from_networkx(cls, graph: nx.Graph, name: str | None = None) -> "ConflictGraph":
        """Build a conflict graph from an existing undirected networkx graph."""
        if graph.is_directed():
            raise ValueError("conflict graphs are undirected")
        if any(u == v for u, v in graph.edges()):
            raise ValueError("conflict graphs cannot contain self-loops")
        return cls(edges=graph.edges(), nodes=graph.nodes(), name=name or graph.name or "conflict-graph")

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], name: str = "conflict-graph") -> "ConflictGraph":
        """Build a conflict graph directly from an edge list."""
        return cls(edges=edges, name=name)

    @classmethod
    def from_couples(
        cls,
        couples: Iterable[Tuple[Node, Node]],
        parents: Iterable[Node] = (),
        name: str = "society",
    ) -> "ConflictGraph":
        """Build a conflict graph from the family story.

        ``couples`` lists pairs ``(parent_a, parent_b)`` meaning a child of
        family ``parent_a`` is in a relationship with a child of family
        ``parent_b`` — each such couple is one conflict edge.  ``parents``
        may list families with no married children (isolated nodes).
        """
        return cls(edges=couples, nodes=parents, name=name)

    def to_networkx(self) -> nx.Graph:
        """Return a *copy* of the underlying networkx graph."""
        return self._graph.copy()

    def copy(self, name: str | None = None) -> "ConflictGraph":
        """Return an independent copy of this conflict graph."""
        return ConflictGraph(edges=self.edges(), nodes=self.nodes(), name=name or self.name)

    # -- queries -------------------------------------------------------------------
    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __contains__(self, node: Node) -> bool:
        return node in self._graph

    def __iter__(self) -> Iterator[Node]:
        return iter(self._order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConflictGraph(name={self.name!r}, n={self.num_nodes()}, "
            f"m={self.num_edges()}, max_degree={self.max_degree()})"
        )

    def nodes(self) -> List[Node]:
        """All parents in a deterministic order."""
        return list(self._order)

    def edges(self) -> List[Edge]:
        """All in-law edges (each once, as stored by networkx)."""
        if self._edge_cache is None:
            self._edge_cache = list(self._graph.edges())
        return list(self._edge_cache)

    def num_nodes(self) -> int:
        """Number of parents ``|P|``."""
        return self._graph.number_of_nodes()

    def num_edges(self) -> int:
        """Number of conflict edges ``|E|``."""
        return self._graph.number_of_edges()

    def degree(self, node: Node) -> int:
        """Degree (number of in-law families) of ``node``."""
        if self._degree_cache is None:
            self._degree_cache = {p: int(d) for p, d in self._graph.degree()}
        try:
            return self._degree_cache[node]
        except KeyError:
            # fall through for networkx's error reporting on unknown nodes
            return int(self._graph.degree(node))

    def degrees(self) -> Dict[Node, int]:
        """``{node: degree}`` for every parent."""
        if self._degree_cache is None:
            self._degree_cache = {p: int(d) for p, d in self._graph.degree()}
        return dict(self._degree_cache)

    def neighbors(self, node: Node) -> List[Node]:
        """Neighbors (in-law families) of ``node`` in deterministic order."""
        return list(self.neighbor_tuple(node))

    def neighbor_tuple(self, node: Node) -> Tuple[Node, ...]:
        """:meth:`neighbors` as a cached tuple, for hot loops that only read it."""
        try:
            return self._neighbor_cache[node]
        except KeyError:
            ordered = tuple(self._stable_order(self._graph.neighbors(node)))
            self._neighbor_cache[node] = ordered
            return ordered

    def max_degree(self) -> int:
        """The global maximum degree ``Δ`` (0 for an empty or edgeless graph)."""
        if self.num_nodes() == 0:
            return 0
        return max(self.degrees().values(), default=0)

    def index_of(self, node: Node) -> int:
        """Deterministic integer index of ``node`` (useful for array-backed code)."""
        return self._index[node]

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when families ``u`` and ``v`` are in-laws."""
        return self._graph.has_edge(u, v)

    def incident_edges(self, node: Node) -> List[Edge]:
        """``E_p``: the conflict edges touching ``node``."""
        return [(node, q) for q in self.neighbor_tuple(node)]

    def is_independent_set(self, nodes: Iterable[Node]) -> bool:
        """True when no two of the given nodes share a conflict edge."""
        selected = list(nodes)
        unknown = [p for p in selected if p not in self._graph]
        if unknown:
            raise ValueError(f"nodes {unknown!r} are not in the conflict graph")
        selected_set = set(selected)
        for p in selected_set:
            for q in self._graph.neighbors(p):
                if q in selected_set:
                    return False
        return True

    def subgraph(self, nodes: Iterable[Node], name: str | None = None) -> "ConflictGraph":
        """Induced subgraph on ``nodes`` as a new :class:`ConflictGraph`.

        Its node order is this graph's order restricted to the kept nodes,
        so ``index_of`` ranks them as this graph does, mixed labels and
        nodes added after construction included.
        """
        sub = ConflictGraph.from_networkx(
            self._graph.subgraph(list(nodes)).copy(), name=name or f"{self.name}-sub"
        )
        sub._order = [p for p in self._order if p in sub._graph]
        sub._index = {p: i for i, p in enumerate(sub._order)}
        return sub

    # -- mutation (used by the dynamic setting of Section 6) ------------------------
    def add_edge(self, u: Node, v: Node) -> None:
        """Add a new in-law relation (a marriage event in the dynamic setting)."""
        if u == v:
            raise ValueError(f"self-loop {u!r} is not a valid in-law relation")
        self._graph.add_edge(u, v)
        self._invalidate_caches()
        for node in (u, v):
            if node not in self._index:
                self._order.append(node)
                self._index[node] = len(self._order) - 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove an in-law relation (a divorce event in the dynamic setting)."""
        if not self._graph.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) is not in the conflict graph")
        self._graph.remove_edge(u, v)
        self._invalidate_caches()

    def add_node(self, node: Node) -> None:
        """Add an isolated family."""
        if node not in self._graph:
            self._graph.add_node(node)
            self._invalidate_caches()
            self._order.append(node)
            self._index[node] = len(self._order) - 1


@dataclass(frozen=True)
class Gathering:
    """A single holiday gathering: an orientation of the conflict edges.

    ``orientation[(u, v)] == v`` means the edge is directed *toward* ``v``
    (family ``v`` receives that couple for this holiday).  Every conflict
    edge must be assigned exactly one direction (Definition 2.1).
    """

    graph: ConflictGraph
    orientation: Mapping[Edge, Node]

    def __post_init__(self) -> None:
        edges = self.graph.edges()
        oriented = dict(self.orientation)
        normalized: Dict[Edge, Node] = {}
        for u, v in edges:
            if (u, v) in oriented:
                target = oriented[(u, v)]
            elif (v, u) in oriented:
                target = oriented[(v, u)]
            else:
                raise ValueError(f"edge ({u!r}, {v!r}) has no orientation")
            if target not in (u, v):
                raise ValueError(f"edge ({u!r}, {v!r}) oriented toward non-endpoint {target!r}")
            normalized[(u, v)] = target
        extra = set()
        for key in oriented:
            u, v = key
            if not self.graph.has_edge(u, v):
                extra.add(key)
        if extra:
            raise ValueError(f"orientation mentions non-edges: {sorted(map(repr, extra))}")
        object.__setattr__(self, "orientation", normalized)

    def direction(self, u: Node, v: Node) -> Node:
        """Return the endpoint the edge ``{u, v}`` points toward."""
        if (u, v) in self.orientation:
            return self.orientation[(u, v)]
        if (v, u) in self.orientation:
            return self.orientation[(v, u)]
        raise KeyError(f"edge ({u!r}, {v!r}) is not in the gathering")

    def is_happy(self, node: Node) -> bool:
        """Definition 2.1: ``node`` is happy iff it is a sink of the orientation."""
        for u, v in self.graph.incident_edges(node):
            if self.direction(u, v) != node:
                return False
        return True

    def is_satisfied(self, node: Node) -> bool:
        """Definition A.1: ``node`` is satisfied iff some incident edge points to it.

        Isolated nodes are vacuously satisfied (they host their unmarried
        children every holiday).
        """
        incident = self.graph.incident_edges(node)
        if not incident:
            return True
        return any(self.direction(u, v) == node for u, v in incident)

    def happy_set(self) -> FrozenSet[Node]:
        """All happy parents of this gathering — always an independent set."""
        return frozenset(p for p in self.graph.nodes() if self.is_happy(p))

    def satisfied_set(self) -> FrozenSet[Node]:
        """All satisfied parents of this gathering."""
        return frozenset(p for p in self.graph.nodes() if self.is_satisfied(p))


def orientation_towards(graph: ConflictGraph, happy_nodes: Iterable[Node]) -> Gathering:
    """Construct a gathering in which every node of ``happy_nodes`` is a sink.

    ``happy_nodes`` must be an independent set (otherwise two adjacent sinks
    would be required, which is impossible); edges not incident to any happy
    node are oriented toward the lexicographically smaller endpoint so the
    construction is deterministic.  Nodes outside ``happy_nodes`` whose
    neighbours are all also unselected may incidentally end up as sinks —
    the guarantee is ``happy_nodes ⊆ gathering.happy_set()``, which is all
    the schedulers rely on.

    This realises the standard conversion used implicitly throughout the
    paper: a schedule of independent sets *is* a schedule of gatherings.
    """
    happy = set(happy_nodes)
    if not graph.is_independent_set(happy):
        raise ValueError("happy_nodes must form an independent set of the conflict graph")
    orientation: Dict[Edge, Node] = {}
    for u, v in graph.edges():
        if u in happy:
            orientation[(u, v)] = u
        elif v in happy:
            orientation[(u, v)] = v
        else:
            orientation[(u, v)] = min(u, v, key=repr)
    return Gathering(graph=graph, orientation=orientation)
