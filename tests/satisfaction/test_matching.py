"""Tests for the from-scratch Hopcroft–Karp implementation."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.satisfaction.matching import HopcroftKarp, maximum_bipartite_matching
from repro.utils.rng import RngStream


def brute_force_matching_size(adjacency):
    """Maximum matching by exhaustive search (tiny instances only).

    Still exhaustive, but starts at the largest size any matching can
    reach: no more edges than there are left or right endpoints."""
    edges = [(u, v) for u, nbrs in adjacency.items() for v in nbrs]
    largest = min(len(edges), len({u for u, _ in edges}), len({v for _, v in edges}))
    best = 0
    for r in range(largest, 0, -1):
        if r <= best:
            break
        for subset in itertools.combinations(edges, r):
            lefts = [e[0] for e in subset]
            rights = [e[1] for e in subset]
            if len(set(lefts)) == r and len(set(rights)) == r:
                best = r
                break
    return best


def random_bipartite(n_left, n_right, p, seed):
    rng = RngStream(seed)
    return {
        f"L{i}": [f"R{j}" for j in range(n_right) if rng.random() < p] for i in range(n_left)
    }


class TestSmallCases:
    def test_perfect_matching(self):
        adjacency = {"a": ["x", "y"], "b": ["x"], "c": ["y", "z"]}
        matching = maximum_bipartite_matching(adjacency)
        assert len(matching) == 3
        assert len(set(matching.values())) == 3

    def test_deficient_side(self):
        adjacency = {"a": ["x"], "b": ["x"], "c": ["x"]}
        assert len(maximum_bipartite_matching(adjacency)) == 1

    def test_empty(self):
        assert maximum_bipartite_matching({}) == {}
        assert maximum_bipartite_matching({"a": []}) == {}

    def test_augmenting_path_needed(self):
        # Greedy left-to-right would match a-x then be stuck for b; HK must augment.
        adjacency = {"a": ["x", "y"], "b": ["x"]}
        matching = maximum_bipartite_matching(adjacency)
        assert len(matching) == 2
        assert matching["b"] == "x"
        assert matching["a"] == "y"

    def test_matching_is_valid(self):
        adjacency = random_bipartite(8, 8, 0.4, seed=1)
        matching = maximum_bipartite_matching(adjacency)
        for left, right in matching.items():
            assert right in adjacency[left]
        assert len(set(matching.values())) == len(matching)

    def test_duplicate_adjacency_entries_ignored(self):
        adjacency = {"a": ["x", "x", "y"], "b": ["y", "y"]}
        assert len(maximum_bipartite_matching(adjacency)) == 2

    def test_solver_object_api(self):
        hk = HopcroftKarp({"a": ["x"], "b": ["y"]})
        assert hk.matching_size() == 2
        assert hk.is_perfect_on_left()
        # calling solve twice returns the same result (memoised)
        assert hk.solve() == hk.solve()


class TestAgainstReferences:
    def test_against_networkx_on_random_instances(self):
        for seed in range(6):
            adjacency = random_bipartite(12, 10, 0.3, seed=seed)
            ours = len(maximum_bipartite_matching(adjacency))
            g = nx.Graph()
            left = list(adjacency.keys())
            g.add_nodes_from(left, bipartite=0)
            for u, nbrs in adjacency.items():
                for v in nbrs:
                    g.add_edge(u, v)
            reference = len(nx.bipartite.maximum_matching(g, top_nodes=left)) // 2
            assert ours == reference

    @settings(max_examples=25, deadline=None)
    @given(
        n_left=st.integers(min_value=0, max_value=5),
        n_right=st.integers(min_value=0, max_value=5),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**4),
    )
    def test_property_matches_brute_force(self, n_left, n_right, p, seed):
        adjacency = random_bipartite(n_left, n_right, p, seed)
        ours = len(maximum_bipartite_matching(adjacency))
        assert ours == brute_force_matching_size(adjacency)
