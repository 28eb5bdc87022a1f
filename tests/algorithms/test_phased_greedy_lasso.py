"""Phased Greedy's lasso: found exactly, replayed faithfully.

The recolouring rule reads nothing but the colours relative to the current
holiday, so once that vector repeats (after holiday ``T + C``, first seen
after ``T``) the schedule is a lasso.  The built schedule looks each state
up by the hash of the happy set it decides next, confirms a match exactly
from the happy sets it holds (at holiday ``T + C + 1``), and then replays
the cycle ``T+1..T+C`` instead of recolouring.  Every happy set must still
equal plain :class:`PhasedGreedyState` stepping and the per-holiday
reference loop of ``test_generation_oracles.py`` (sets and iteration
order), and ``(T, C)`` must be the first repeat of the full relative-colour
vector.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.phased_greedy import PhasedGreedyScheduler, PhasedGreedyState
from repro.analysis.runner import choose_horizon
from repro.coloring.base import Coloring
from repro.coloring.distributed import distributed_deg_plus_one_coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph, Node
from repro.graphs.random_graphs import erdos_renyi
from test_generation_oracles import GRAPH_NAMES, SEEDS, ReferencePhasedGreedy, graph_named

#: (initial colouring, seed): greedy reads no seed
INITS = [("greedy", 0)] + [("distributed", seed) for seed in SEEDS]


def initial_for(graph: ConflictGraph, mode: str, seed: int) -> Coloring:
    if mode == "greedy":
        return greedy_coloring(graph)
    return distributed_deg_plus_one_coloring(graph, seed=seed)


def brute_force_lasso(graph: ConflictGraph, initial: Coloring) -> Tuple[int, int]:
    """``(T, C)``: the first holiday ``T + C`` whose whole relative-colour
    tuple equals the one after an earlier holiday ``T``."""
    state = PhasedGreedyState(graph, initial)
    nodes = graph.nodes()
    seen = {tuple(state.colors[p] for p in nodes): 0}
    while True:
        state.step()
        h = state.holiday
        key = tuple(state.colors[p] - h for p in nodes)
        if key in seen:
            return seen[key], h - seen[key]
        seen[key] = h


def stepped(graph: ConflictGraph, initial: Coloring, horizon: int) -> List[FrozenSet[Node]]:
    state = PhasedGreedyState(graph, initial)
    return [state.step() for _ in range(horizon)]


@lru_cache(maxsize=None)
def expected_run(name: str, mode: str, seed: int):
    """``(T, C, sets)`` for a named graph, ``sets`` long enough for every
    horizon the tests read; plain stepping and the reference loop agree."""
    graph = graph_named(name)
    initial = initial_for(graph, mode, seed)
    t, c = brute_force_lasso(graph, initial)
    horizon = max(3 * (t + c) + 5, 2 * choose_horizon(graph), 12 * (c + 1))
    sets = stepped(graph, initial, horizon)
    reference = ReferencePhasedGreedy(graph, initial)
    assert [list(s) for s in sets] == [list(reference.step()) for _ in range(horizon)]
    return t, c, sets


def assert_same_sets(got, expected, label) -> None:
    assert got == expected, label
    # replayed sets are the generated objects, so iteration order agrees too
    assert [list(s) for s in got] == [list(s) for s in expected], label


class TestReplay:
    @pytest.mark.parametrize("mode,seed", INITS)
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_prefix_matches_stepping_around_the_lasso(self, name, mode, seed):
        graph = graph_named(name)
        t, c, expected = expected_run(name, mode, seed)
        found_at = t + c + 1  # the holiday whose happy set confirms the repeat
        cases = {t + c - 1, t + c, found_at, found_at + 1, 3 * (t + c) + 5,
                 2 * choose_horizon(graph)}
        for horizon in sorted(h for h in cases if h >= 1):
            scheduler = PhasedGreedyScheduler(initial_coloring=mode)
            schedule = scheduler.build(graph, seed=seed)
            assert_same_sets(schedule.prefix(horizon), expected[:horizon], (mode, seed, horizon))
            assert scheduler.last_lasso == ((t, c) if horizon >= found_at else None), horizon
            # past the lasso the state is stepped no further
            assert scheduler.last_state.holiday == min(horizon, found_at)

    @pytest.mark.parametrize("mode,seed", INITS[:2])
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_window_below_at_and_above_the_cycle(self, name, mode, seed):
        graph = graph_named(name)
        t, c, expected = expected_run(name, mode, seed)
        horizon = len(expected)
        for window in sorted({max(1, c - 1), c, c + 1}):
            scheduler = PhasedGreedyScheduler(initial_coloring=mode, window=window)
            schedule = scheduler.build(graph, seed=seed)
            got = [schedule.happy_set(h) for h in range(1, horizon + 1)]
            assert_same_sets(got, expected, (mode, seed, window))
            # a cycle no longer than the window is found at its first repeat;
            # a longer one only where the batched trim happens to keep it
            if window >= c:
                assert scheduler.last_lasso == (t, c), window
            else:
                lasso = scheduler.last_lasso
                assert lasso is None or (lasso[0] >= t and lasso[1] == c), window
            assert schedule.evicted_below >= horizon - 2 * window

    def test_examples(self):
        # every node hosts at holiday 1 and moves one ahead: the initial
        # state already repeats (T = 0), which a search from holiday 1 misses
        assert expected_run("edgeless", "greedy", 0)[:2] == (0, 1)
        assert expected_run("empty", "greedy", 0)[:2] == (0, 1)
        # K_n hosts one node per holiday, round robin
        assert expected_run("clique", "greedy", 0)[:2] == (0, 12)
        assert expected_run("society", "greedy", 0)[:2] == (7, 10)


class TestSequentialAccess:
    def test_out_of_band_step_after_the_lasso_raises(self, square_with_diagonal):
        scheduler = PhasedGreedyScheduler(initial_coloring="greedy")
        schedule = scheduler.build(square_with_diagonal)
        t, c = brute_force_lasso(square_with_diagonal, greedy_coloring(square_with_diagonal))
        horizon = 3 * (t + c) + 5
        schedule.prefix(horizon)
        assert scheduler.last_lasso == (t, c)
        scheduler.last_state.step()
        with pytest.raises(RuntimeError, match="sequentially"):
            schedule.happy_set(horizon + 1)

    def test_replay_keeps_reading_in_order(self, square_with_diagonal):
        scheduler = PhasedGreedyScheduler(initial_coloring="greedy")
        schedule = scheduler.build(square_with_diagonal)
        expected = stepped(square_with_diagonal, greedy_coloring(square_with_diagonal), 50)
        # forward, then back into the memo, then forward again
        assert schedule.happy_set(30) == expected[29]
        assert schedule.happy_set(3) == expected[2]
        assert schedule.prefix(50) == expected


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=25),
    p=st.floats(min_value=0.0, max_value=0.9),
    graph_seed=st.integers(min_value=0, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2 ** 32),
    mode=st.sampled_from(["greedy", "distributed"]),
)
def test_property_lasso_on_random_graphs(n, p, graph_seed, seed, mode):
    graph = erdos_renyi(n, p, seed=graph_seed) if n else ConflictGraph()
    initial = initial_for(graph, mode, seed)
    t, c = brute_force_lasso(graph, initial)
    horizon = 3 * (t + c) + 5
    scheduler = PhasedGreedyScheduler(initial_coloring=mode)
    got = scheduler.build(graph, seed=seed).prefix(horizon)
    assert_same_sets(got, stepped(graph, initial, horizon), (t, c))
    assert scheduler.last_lasso == (t, c)
