"""The LOCAL-model round kernel against its simulator oracle.

:func:`restricted_palette_rounds` runs the restricted-palette colouring as
plain synchronous rounds and counts its communication in closed form; the
oracle (``local_oracle.py``) runs :class:`DistributedColoringProcess`
through :class:`SyncSimulator`.  Both public builds must give the oracle's
colours, slots and moduli, its :class:`RoundStats` field for field, and
the same exception (type and message) whenever the oracle raises.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from local_oracle import simulated_coloring, simulated_rounds, simulated_slot_assignment

from repro.algorithms.registry import get_scheduler
from repro.coloring.distributed import distributed_deg_plus_one_coloring, restricted_palette_rounds
from repro.coloring.slot_assignment import distributed_slot_assignment
from repro.core.problem import ConflictGraph
from repro.distributed.simulator import SimulationError, SyncSimulator
from repro.graphs.families import path, star
from repro.graphs.suites import BENCHMARK_WORKLOADS, expand_workload_names, get_workload

SEEDS = (0, 1, 2, 3, -5, 2**64 + 3)


def mixed_labels() -> ConflictGraph:
    """Int and str labels (ordered by repr) plus an isolated node."""
    return ConflictGraph(
        edges=[(1, "a"), ("a", 2), (2, 10), (10, "b"), ("b", 1), (9, 10), ("c", 9), (1, 2)],
        nodes=["z"],
        name="mixed",
    )


GRAPHS = {
    **{name: (lambda name=name: get_workload(name)) for name in BENCHMARK_WORKLOADS},
    **{name: (lambda name=name: get_workload(name)) for name in expand_workload_names(["small/*"])},
    "empty": lambda: ConflictGraph(name="empty"),
    "edgeless": lambda: ConflictGraph(nodes=range(7), name="edgeless"),
    "mixed-labels": mixed_labels,
}


def outcome(build):
    """What ``build()`` gives, or the type and message of what it raises."""
    try:
        return ("returned", build())
    except Exception as exc:  # the comparison is the point: any exception
        return ("raised", type(exc), str(exc))


def kernel_coloring(graph, seed, palettes=None, max_rounds=10_000):
    coloring = distributed_deg_plus_one_coloring(graph, seed, palettes, max_rounds)
    assert (coloring.rounds, coloring.messages) == (coloring.stats.rounds, coloring.stats.messages)
    return coloring.colors, coloring.stats


def kernel_slot_assignment(graph, seed, max_rounds=10_000):
    assignment = distributed_slot_assignment(graph, seed, max_rounds)
    stats = assignment.stats
    assert (assignment.rounds, assignment.messages) == (stats.rounds, stats.messages)
    return assignment.slots, assignment.moduli, stats


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_coloring_equals_the_simulator(name, seed):
    graph = GRAPHS[name]()
    colors, stats = kernel_coloring(graph, seed)
    assert (colors, stats) == simulated_coloring(graph, seed)
    assert list(colors) == graph.nodes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_slot_assignment_equals_the_simulator(name, seed):
    graph = GRAPHS[name]()
    assert kernel_slot_assignment(graph, seed) == simulated_slot_assignment(graph, seed)


def test_members_hear_only_members():
    """On a member subset the kernel is the simulator on the induced subgraph,
    with each node keeping its index in the whole graph."""
    graph = get_workload("gnp-dense")
    members = graph.nodes()[::3]
    palettes = {p: list(range(1, 5)) for p in members}
    kernel = restricted_palette_rounds(graph, members, palettes, 7, 10_000)
    assert kernel == simulated_rounds(graph, members, palettes, 7, 10_000)
    assert set(kernel[1].messages_by_node) < set(members)


class TestSameErrors:
    """The round kernel raises what the simulated run raises, message and all."""

    def assert_same(self, graph, **kwargs):
        kernel = outcome(lambda: kernel_coloring(graph, **kwargs))
        assert kernel[0] == "raised"
        assert kernel == outcome(lambda: simulated_coloring(graph, **kwargs))
        return kernel

    def test_missing_palette(self):
        _, kind, _ = self.assert_same(path(3), seed=0, palettes={0: [1, 2]})
        assert kind is ValueError

    def test_empty_palette(self):
        _, kind, message = self.assert_same(path(3), seed=0, palettes={0: [1], 1: [], 2: [1]})
        assert (kind, message) == (ValueError, "palette must be non-empty")

    def test_non_positive_palette(self):
        _, kind, message = self.assert_same(path(2), seed=0, palettes={0: [0, 1], 1: [1]})
        assert (kind, message) == (ValueError, "palette colors must be positive integers")

    @pytest.mark.parametrize("graph", [path(3), ConflictGraph()], ids=["path", "empty"])
    def test_no_round_budget(self, graph):
        _, kind, message = self.assert_same(graph, seed=0, max_rounds=0)
        assert (kind, message) == (ValueError, "max_rounds must be >= 1")

    def test_exhausted_palette(self):
        # a star whose leaves may only take the centre's one colour
        graph = star(4)
        palettes = {p: [1] for p in graph.nodes()}
        _, kind, message = self.assert_same(graph, seed=3, palettes=palettes)
        assert kind is RuntimeError
        assert message == "palette exhausted for node index 1: base=[1], forbidden=[1]"

    def test_round_budget_counts_the_last_delivery(self):
        # every node keeps its round-0 proposal in round 1; the finals are
        # delivered in round 2, which a budget of one round does not reach
        graph = path(2)
        palettes = {0: [1], 1: [2]}
        _, kind, message = self.assert_same(graph, seed=0, palettes=palettes, max_rounds=1)
        assert kind is SimulationError
        assert message.endswith("; 0 node(s) still live")
        colors, stats = kernel_coloring(graph, 0, palettes, max_rounds=2)
        assert stats.messages_per_round == [2, 2]

    def test_slot_assignment_round_budget(self):
        graph = get_workload("society")
        kernel = outcome(lambda: kernel_slot_assignment(graph, 1, max_rounds=1))
        assert kernel[:2] == ("raised", SimulationError)
        assert kernel == outcome(lambda: simulated_slot_assignment(graph, 1, max_rounds=1))


def test_library_builds_never_run_the_simulator(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a library path ran SyncSimulator.run")

    monkeypatch.setattr(SyncSimulator, "run", refuse)
    graph = get_workload("powerlaw")
    with pytest.raises(AssertionError, match="SyncSimulator.run"):
        simulated_coloring(graph, 1)
    distributed_deg_plus_one_coloring(graph, seed=1)
    distributed_slot_assignment(graph, seed=1)
    for name in ("degree-periodic-distributed", "phased-greedy-distributed"):
        get_scheduler(name).build(graph, seed=1)


@st.composite
def local_runs(draw):
    """A random graph (mixed labels in some draws), seed, palettes and round budget."""
    n = draw(st.integers(min_value=0, max_value=25))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    labels = list(range(n))
    if draw(st.booleans()):
        labels = [i if i % 3 else f"v{i}" for i in labels]
    p = draw(st.floats(min_value=0.0, max_value=0.6))
    edges = [
        (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    graph = ConflictGraph(edges=edges, nodes=labels, name="drawn")
    seed = draw(st.one_of(st.sampled_from([0, 1, -5, 2**64 + 3]), st.integers(-(2**70), 2**70)))
    palettes = None
    if draw(st.booleans()):
        # 1-4 colours out of 1-6: singletons and small palettes run dry
        palettes = {q: rng.sample(range(1, 7), rng.randint(1, 4)) for q in graph.nodes()}
    max_rounds = draw(st.sampled_from([1, 2, 3, 10_000]))
    return graph, seed, palettes, max_rounds


@settings(max_examples=200, deadline=None)
@given(run=local_runs())
def test_property_kernel_equals_the_simulator(run):
    graph, seed, palettes, max_rounds = run
    assert outcome(lambda: kernel_coloring(graph, seed, palettes, max_rounds)) == outcome(
        lambda: simulated_coloring(graph, seed, palettes, max_rounds)
    )
    assert outcome(lambda: kernel_slot_assignment(graph, seed, max_rounds)) == outcome(
        lambda: simulated_slot_assignment(graph, seed, max_rounds)
    )
    if palettes is not None:
        # a member subset, in the induced subgraph's own order (the order the
        # simulator runs it in, which decides which node reports exhaustion)
        members = graph.subgraph(graph.nodes()[::2]).nodes()
        assert outcome(
            lambda: restricted_palette_rounds(graph, members, palettes, seed, max_rounds)
        ) == outcome(lambda: simulated_rounds(graph, members, palettes, seed, max_rounds))
