"""Block-drawn and bucketed schedule generation equals the per-holiday loops.

The two aperiodic schedulers generate their schedules as array and index
work: first-come-first-grab draws a block of holidays' wake-up times at
once (:class:`repro.algorithms.naive.WakeUpBlocks`), and Phased Greedy pops
a colour bucket instead of scanning every node.  The per-holiday loops they
replaced are kept here verbatim as oracles; every happy set, colour and
recolour count must match them exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.naive import (
    BLOCK_ELEMENTS,
    BLOCK_HOLIDAYS,
    FirstComeFirstGrabScheduler,
    WakeUpBlocks,
)
from repro.algorithms.phased_greedy import PhasedGreedyState
from repro.coloring.base import Coloring, greedy_color_for
from repro.coloring.distributed import distributed_deg_plus_one_coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph, Node
from repro.graphs.random_graphs import erdos_renyi
from repro.graphs.suites import BENCHMARK_WORKLOADS, SMALL_WORKLOADS, get_workload
from repro.utils.rng import RngStream

SEEDS = range(5)

EXTRA_GRAPHS = {
    "empty": lambda: ConflictGraph(name="empty"),
    "edgeless": lambda: ConflictGraph(nodes=range(6), name="edgeless"),
    "isolated": lambda: ConflictGraph(
        edges=[(0, 1), (1, 2), (2, 0), (3, 4)], nodes=[9, 5, 7], name="isolated"
    ),
}
GRAPH_NAMES = sorted(BENCHMARK_WORKLOADS) + sorted(SMALL_WORKLOADS) + sorted(EXTRA_GRAPHS)


@lru_cache(maxsize=None)
def graph_named(name: str) -> ConflictGraph:
    return EXTRA_GRAPHS[name]() if name in EXTRA_GRAPHS else get_workload(name)


# -- the per-holiday loops the generators replaced ----------------------------

def reference_fcfg_step(graph: ConflictGraph, seed: int):
    """First-come-first-grab's per-holiday step before block draws."""
    nodes = graph.nodes()
    neighbors = {p: graph.neighbors(p) for p in nodes}
    rng = RngStream(seed, ("fcfg", graph.name))

    def step(holiday: int) -> FrozenSet[Node]:
        wake = {p: rng.random() for p in nodes}
        happy = [
            p
            for p in nodes
            if all(wake[p] < wake[q] for q in neighbors[p])
        ]
        return frozenset(happy)

    return step


class ReferencePhasedGreedy:
    """``PhasedGreedyState`` before colour buckets: every holiday scans all nodes."""

    def __init__(self, graph: ConflictGraph, initial: Coloring) -> None:
        self.graph = graph
        self.colors: Dict[Node, int] = dict(initial.colors)
        self.holiday = 0
        self.recolor_events = 0

    def step(self) -> FrozenSet[Node]:
        self.holiday += 1
        i = self.holiday
        happy = [p for p in self.graph.nodes() if self.colors[p] == i]
        for p in happy:
            new_color = greedy_color_for(p, self.graph, self.colors, start=i + 1)
            self.colors[p] = new_color
            self.recolor_events += 1
        return frozenset(happy)


@lru_cache(maxsize=None)
def reference_fcfg_prefix(name: str, seed: int, horizon: int) -> List[FrozenSet[Node]]:
    step = reference_fcfg_step(graph_named(name), seed)
    return [step(t) for t in range(1, horizon + 1)]


def block_width(graph: ConflictGraph) -> int:
    return WakeUpBlocks(graph, 0).width


def horizons(width: int) -> List[int]:
    return sorted({h for h in (1, width - 1, width, width + 1, 3 * width + 5) if h >= 1})


# -- first-come-first-grab ----------------------------------------------------

class TestBlockWidth:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_width_fits_the_element_budget(self, name):
        graph = graph_named(name)
        width = block_width(graph)
        per_holiday = graph.num_nodes() + 2 * graph.num_edges()
        assert 1 <= width <= BLOCK_HOLIDAYS
        assert width * per_holiday <= max(BLOCK_ELEMENTS, per_holiday)
        # and it is the widest block that does
        assert width == BLOCK_HOLIDAYS or (width + 1) * per_holiday > BLOCK_ELEMENTS

    def test_a_graph_past_the_budget_takes_one_holiday_per_block(self):
        graph = erdos_renyi(300, 0.5, seed=1)
        assert graph.num_nodes() + 2 * graph.num_edges() > BLOCK_ELEMENTS
        assert block_width(graph) == 1


class TestFirstComeFirstGrabOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_prefix_matches_per_holiday_loop(self, name, seed):
        graph = graph_named(name)
        cases = horizons(block_width(graph))
        expected = reference_fcfg_prefix(name, seed, max(cases))
        for horizon in cases:
            schedule = FirstComeFirstGrabScheduler().build(graph, seed=seed)
            got = schedule.prefix(horizon)
            assert got == expected[:horizon], (name, seed, horizon)
            # built in the same node order, so even iteration order agrees
            assert [list(s) for s in got] == [list(s) for s in expected[:horizon]]

    @pytest.mark.parametrize("seed", (0, 3))
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_block_at_any_start_matches_reference_rows(self, name, seed):
        graph = graph_named(name)
        width = block_width(graph)
        nodes = graph.nodes()
        expected = reference_fcfg_prefix(name, seed, 3 * width + 5)
        blocks = WakeUpBlocks(graph, seed)
        # forwards, backwards and overlapping starts, odd widths
        for start, rows in ((2, 5), (width + 1, width), (1, 1), (width - 1 or 1, 7),
                            (2 * width + 3, width + 2), (5, 2 * width)):
            block = blocks.block(start, rows)
            assert block.shape == (rows, len(nodes))
            for r in range(rows):
                happy = frozenset(p for p, hit in zip(nodes, block[r]) if hit)
                assert happy == expected[start + r - 1], (name, seed, start, r)

    def test_out_of_order_reads_step_the_stream_back(self):
        graph = graph_named("society")
        width = block_width(graph)
        expected = reference_fcfg_prefix("society", 2, 3 * width + 5)
        blocks = WakeUpBlocks(graph, 2)
        for holiday in (3 * width + 5, 1, 2 * width, width + 1, width, 2):
            assert blocks.happy_set(holiday) == expected[holiday - 1], holiday

    def test_tie_leaves_both_ends_unhappy_and_isolated_nodes_happy(self):
        # path 0-1-2 plus isolated 3; two holidays of hand-made wake-up times
        graph = ConflictGraph(edges=[(0, 1), (1, 2)], nodes=[3])
        blocks = WakeUpBlocks(graph, 0)

        class Draws:
            class bit_generator:
                @staticmethod
                def advance(delta):
                    pass

            @staticmethod
            def random(shape):
                return np.array([[0.25, 0.25, 0.5, 0.9],  # 0 and 1 tie for the minimum
                                 [0.5, 0.1, 0.5, 0.0]]).reshape(shape)

        blocks._rng = Draws()
        happy = blocks.block(1, 2)
        assert happy.tolist() == [[False, False, False, True], [False, True, False, True]]


# -- Phased Greedy ------------------------------------------------------------

def initial_colorings(graph: ConflictGraph):
    yield "greedy", greedy_coloring(graph)
    for seed in SEEDS:
        yield f"distributed-{seed}", distributed_deg_plus_one_coloring(graph, seed=seed)


class TestPhasedGreedyOracle:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_colors_and_recolors_match_after_every_holiday(self, name):
        graph = graph_named(name)
        horizon = 4 * (graph.max_degree() + 2) + 60
        for label, initial in initial_colorings(graph):
            state = PhasedGreedyState(graph, initial)
            reference = ReferencePhasedGreedy(graph, initial)
            for holiday in range(1, horizon + 1):
                got, expected = state.step(), reference.step()
                assert got == expected and list(got) == list(expected), (label, holiday)
                assert state.colors == reference.colors, (label, holiday)
                assert state.recolor_events == reference.recolor_events, (label, holiday)
                assert state.holiday == holiday
            assert all(state.color_of(p) == state.next_hosting(p) == reference.colors[p]
                       for p in graph.nodes())


# -- random graphs ------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=14),
    p=st.floats(min_value=0.0, max_value=0.9),
    graph_seed=st.integers(min_value=0, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2 ** 64 + 5),
    horizon=st.integers(min_value=1, max_value=300),
)
def test_property_generation_matches_per_holiday_loops(n, p, graph_seed, seed, horizon):
    graph = erdos_renyi(n, p, seed=graph_seed) if n else ConflictGraph()
    step = reference_fcfg_step(graph, seed)
    expected = [step(t) for t in range(1, horizon + 1)]
    assert FirstComeFirstGrabScheduler().build(graph, seed=seed).prefix(horizon) == expected

    initial = greedy_coloring(graph)
    state, reference = PhasedGreedyState(graph, initial), ReferencePhasedGreedy(graph, initial)
    for _ in range(min(horizon, 60)):
        assert state.step() == reference.step()
        assert state.colors == reference.colors
        assert state.recolor_events == reference.recolor_events
