"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import trace as trace_module
from repro.core.problem import ConflictGraph
from repro.graphs.families import clique, complete_bipartite, cycle, path, star
from repro.graphs.random_graphs import erdos_renyi
from repro.graphs.society import random_society


@pytest.fixture
def square_with_diagonal() -> ConflictGraph:
    """A 4-cycle plus one diagonal: small, non-bipartite, heterogeneous degrees."""
    return ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], name="square+diag")


@pytest.fixture
def small_star() -> ConflictGraph:
    """A hub with five leaves."""
    return star(5)


@pytest.fixture
def small_clique() -> ConflictGraph:
    """K5 — the tight instance for degree bounds."""
    return clique(5)


@pytest.fixture
def small_bipartite() -> ConflictGraph:
    """K_{3,4} — the two-group society of the introduction."""
    return complete_bipartite(3, 4)


@pytest.fixture
def medium_random() -> ConflictGraph:
    """A moderately dense random graph for integration-style checks."""
    return erdos_renyi(24, 0.2, seed=42)


@pytest.fixture
def graph_zoo(square_with_diagonal, small_star, small_clique, small_bipartite, medium_random):
    """A list of diverse graphs for parametrised sweeps inside tests."""
    return [
        square_with_diagonal,
        small_star,
        small_clique,
        small_bipartite,
        path(7),
        cycle(8),
        medium_random,
    ]


@pytest.fixture
def small_society():
    """A reproducible random society with ~20 families."""
    return random_society(num_families=20, mean_children=2.5, marriage_fraction=0.8, seed=3)


#: The two arms of :func:`repro.core.trace.fold`, as ``(FLAT_FOLD_WIDTH,
#: EDGE_GROUP_CELLS)``.  The kernel picks its arm from the block width, so
#: the small blocks of the differential suites would only ever reach the
#: flat scan; moving the threshold sends every block down the named arm.
#: The flat arm also shrinks the collision groups, so the edge-group
#: boundaries are crossed on every block.
FOLD_ARMS = {
    "flat": (1 << 62, 64),
    "per-row": (0, trace_module.EDGE_GROUP_CELLS),
}


@pytest.fixture(params=sorted(FOLD_ARMS))
def fold_arm(request, monkeypatch):
    """Run the test with every trace fold on one arm of the kernel."""
    width, group = FOLD_ARMS[request.param]
    monkeypatch.setattr(trace_module, "FLAT_FOLD_WIDTH", width)
    monkeypatch.setattr(trace_module, "EDGE_GROUP_CELLS", group)
    return request.param
