"""Tests for ConflictGraph and Gathering (Definitions 2.1 / A.1)."""

import sys
import threading

import networkx as nx
import pytest

from repro.core.problem import ConflictGraph, Gathering, orientation_towards
from repro.graphs.random_graphs import erdos_renyi


def _added_after_construction():
    """Parent order [1, 2, 0, 5]: nodes added by a mutation go last."""
    graph = ConflictGraph.from_edges([(1, 2)])
    graph.add_edge(0, 5)
    return graph


class TestConflictGraphConstruction:
    def test_from_edges(self):
        g = ConflictGraph.from_edges([(0, 1), (1, 2)])
        assert g.num_nodes() == 3
        assert g.num_edges() == 2

    def test_isolated_nodes(self):
        g = ConflictGraph(edges=[(0, 1)], nodes=[5, 6])
        assert g.num_nodes() == 4
        assert g.degree(5) == 0

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            ConflictGraph(edges=[(1, 1)])

    def test_parallel_edges_collapse(self):
        g = ConflictGraph(edges=[(0, 1), (1, 0), (0, 1)])
        assert g.num_edges() == 1

    def test_from_networkx_rejects_directed(self):
        with pytest.raises(ValueError):
            ConflictGraph.from_networkx(nx.DiGraph([(0, 1)]))

    def test_from_networkx_rejects_self_loop(self):
        graph = nx.Graph()
        graph.add_edge(2, 2)
        with pytest.raises(ValueError):
            ConflictGraph.from_networkx(graph)

    def test_from_couples(self):
        g = ConflictGraph.from_couples([("smith", "jones"), ("smith", "lee")])
        assert g.degree("smith") == 2
        assert g.has_edge("smith", "jones")

    def test_to_networkx_is_copy(self):
        g = ConflictGraph.from_edges([(0, 1)])
        nxg = g.to_networkx()
        nxg.add_edge(5, 6)
        assert g.num_nodes() == 2

    def test_copy_independent(self):
        g = ConflictGraph.from_edges([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges() == 1
        assert h.num_edges() == 2


class TestConflictGraphQueries:
    def test_degrees_and_max_degree(self, square_with_diagonal):
        degrees = square_with_diagonal.degrees()
        assert degrees == {0: 2, 1: 3, 2: 2, 3: 3}
        assert square_with_diagonal.max_degree() == 3

    def test_empty_graph_max_degree(self):
        assert ConflictGraph().max_degree() == 0

    def test_neighbors_sorted(self, square_with_diagonal):
        assert square_with_diagonal.neighbors(1) == [0, 2, 3]

    def test_stable_node_order(self):
        g = ConflictGraph(edges=[(3, 1), (2, 0)])
        assert g.nodes() == [0, 1, 2, 3]

    def test_stable_order_heterogeneous_nodes(self):
        g = ConflictGraph(edges=[("b", 1)], nodes=["a"])
        assert len(g.nodes()) == 3  # must not raise despite unorderable mix

    def test_index_of_is_consistent(self, square_with_diagonal):
        for i, p in enumerate(square_with_diagonal.nodes()):
            assert square_with_diagonal.index_of(p) == i

    def test_incident_edges(self, square_with_diagonal):
        edges = square_with_diagonal.incident_edges(1)
        assert len(edges) == 3
        assert all(e[0] == 1 for e in edges)

    def test_is_independent_set(self, square_with_diagonal):
        assert square_with_diagonal.is_independent_set([0, 2])
        assert not square_with_diagonal.is_independent_set([1, 3])
        assert square_with_diagonal.is_independent_set([])

    def test_is_independent_set_unknown_node(self, square_with_diagonal):
        with pytest.raises(ValueError):
            square_with_diagonal.is_independent_set([99])

    @pytest.mark.parametrize(
        "parent, kept, order, num_edges",
        [
            (lambda: ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]),
             [0, 1, 2], [0, 1, 2], 2),
            # the parent orders ['a', 'b', 10, 2, 3] by repr; the kept ints
            # alone would sort to [2, 3, 10]
            (lambda: ConflictGraph(edges=[("a", 10), ("b", 2)], nodes=[3]),
             [10, 2, 3], [10, 2, 3], 0),
            (_added_after_construction, [0, 1, 5], [1, 0, 5], 1),
        ],
        ids=["square+diag", "mixed-labels", "added-after-construction"],
    )
    def test_subgraph(self, parent, kept, order, num_edges):
        """A subgraph keeps its parent's node order restricted to the kept
        nodes, so ``index_of`` ranks them as the parent does."""
        graph = parent()
        sub = graph.subgraph(kept)
        assert sub.num_nodes() == len(kept)
        assert sub.num_edges() == num_edges
        assert sub.nodes() == order == sorted(kept, key=graph.index_of)
        assert [sub.index_of(p) for p in order] == list(range(len(order)))

    def test_contains_and_len(self, square_with_diagonal):
        assert 0 in square_with_diagonal
        assert 99 not in square_with_diagonal
        assert len(square_with_diagonal) == 4


class TestConflictGraphMutation:
    def test_add_edge_new_node(self):
        g = ConflictGraph.from_edges([(0, 1)])
        g.add_edge(1, 2)
        assert g.degree(1) == 2
        assert 2 in g

    def test_add_edge_rejects_self_loop(self):
        g = ConflictGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            g.add_edge(0, 0)

    def test_remove_edge(self):
        g = ConflictGraph.from_edges([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.degree(1) == 1

    def test_remove_missing_edge_raises(self):
        g = ConflictGraph.from_edges([(0, 1)])
        with pytest.raises(KeyError):
            g.remove_edge(0, 2)

    def test_add_node(self):
        g = ConflictGraph.from_edges([(0, 1)])
        g.add_node(7)
        assert 7 in g
        assert g.degree(7) == 0

    @staticmethod
    def _warm(g):
        for p in g.nodes():
            g.neighbors(p)

    def test_neighbors_see_add_edge_after_warm_cache(self):
        g = ConflictGraph.from_edges([(0, 1), (1, 2)])
        self._warm(g)
        g.add_edge(0, 2)
        assert g.neighbors(0) == [1, 2]
        assert g.neighbors(2) == [0, 1]
        g.add_edge(2, 3)  # a new node too
        assert g.neighbors(2) == [0, 1, 3]
        assert g.neighbors(3) == [2]

    def test_neighbors_see_remove_edge_after_warm_cache(self):
        g = ConflictGraph.from_edges([(0, 1), (1, 2)])
        self._warm(g)
        g.remove_edge(0, 1)
        assert g.neighbors(0) == []
        assert g.neighbors(1) == [2]
        assert g.neighbor_tuple(1) == (2,)

    def test_neighbors_see_add_node_after_warm_cache(self):
        g = ConflictGraph.from_edges([(0, 1)])
        self._warm(g)
        with pytest.raises(nx.NetworkXError):
            g.neighbors(7)  # an unknown node is an error, not a cached entry
        g.add_node(7)
        assert g.neighbors(7) == []
        g.add_edge(7, 0)
        assert g.neighbors(0) == [1, 7]
        assert g.neighbors(7) == [0]

    def test_mutating_a_returned_list_leaves_the_cache(self):
        g = ConflictGraph.from_edges([(0, 1), (0, 2)])
        first = g.neighbors(0)
        first.append(99)
        first.remove(1)
        assert g.neighbors(0) == [1, 2]
        assert g.neighbors(0) is not g.neighbors(0)
        assert g.neighbor_tuple(0) == (1, 2)


class TestNeighborCacheThreads:
    def test_threads_racing_to_fill_a_cold_cache_read_the_same_neighbours(self):
        # serve's handler threads share graphs: more readers than cores,
        # switching as often as the interpreter allows, on cold caches
        source = erdos_renyi(40, 0.2, seed=5)
        expected = {p: sorted(source.to_networkx().neighbors(p)) for p in source.nodes()}
        wrong, finished = [], []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                graph = source.copy()
                nodes = graph.nodes()
                barrier = threading.Barrier(8)

                def read(offset):
                    barrier.wait(timeout=10)
                    for p in nodes[offset:] + nodes[:offset]:
                        if graph.neighbors(p) != expected[p]:
                            wrong.append(p)
                        if list(graph.neighbor_tuple(p)) != expected[p]:
                            wrong.append(p)
                    finished.append(offset)

                threads = [threading.Thread(target=read, args=(5 * k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old_interval)
        assert not wrong
        assert len(finished) == 10 * 8


class TestGathering:
    def test_happy_is_sink(self, square_with_diagonal):
        gathering = orientation_towards(square_with_diagonal, [1])
        assert gathering.is_happy(1)
        assert not gathering.is_happy(0)
        assert not gathering.is_happy(2)

    def test_happy_set_is_independent(self, square_with_diagonal):
        gathering = orientation_towards(square_with_diagonal, [0, 2])
        happy = gathering.happy_set()
        assert {0, 2} <= happy
        assert square_with_diagonal.is_independent_set(happy)

    def test_orientation_rejects_dependent_happy_set(self, square_with_diagonal):
        with pytest.raises(ValueError):
            orientation_towards(square_with_diagonal, [1, 3])

    def test_missing_orientation_rejected(self, square_with_diagonal):
        with pytest.raises(ValueError):
            Gathering(graph=square_with_diagonal, orientation={(0, 1): 0})

    def test_orientation_toward_non_endpoint_rejected(self):
        g = ConflictGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            Gathering(graph=g, orientation={(0, 1): 7})

    def test_orientation_with_non_edges_rejected(self):
        g = ConflictGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            Gathering(graph=g, orientation={(0, 1): 0, (0, 2): 0})

    def test_reverse_key_accepted(self):
        g = ConflictGraph.from_edges([(0, 1)])
        gathering = Gathering(graph=g, orientation={(1, 0): 0})
        assert gathering.direction(0, 1) == 0

    def test_satisfaction(self):
        # Path 0-1-2: orient both edges toward 1 -> 1 is happy and satisfied,
        # 0 and 2 are neither.
        g = ConflictGraph.from_edges([(0, 1), (1, 2)])
        gathering = Gathering(graph=g, orientation={(0, 1): 1, (1, 2): 1})
        assert gathering.is_satisfied(1)
        assert not gathering.is_satisfied(0)
        assert gathering.satisfied_set() == frozenset({1})

    def test_isolated_node_vacuously_satisfied_and_happy(self):
        g = ConflictGraph(edges=[(0, 1)], nodes=[9])
        gathering = orientation_towards(g, [0])
        assert gathering.is_happy(9)
        assert gathering.is_satisfied(9)
