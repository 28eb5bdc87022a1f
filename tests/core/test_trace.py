"""Differential tests for the numpy trace engine.

The contract of :class:`repro.core.trace.TraceMatrix` is *exact* agreement
with the frozenset reference (``backend="sets"`` /
:class:`repro.core.metrics.HappinessTrace`) on every metric, every
validation check and every registered scheduler.  These tests sweep random
graphs × all registered schedulers × both arms of the fold kernel (the flat
scan and the per-row loop, forced by the ``fold_arm`` fixture) and assert
equality — hypothesis-style via seeded randomness rather than an external
dependency.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.metrics import (
    HappinessTrace,
    evaluate_schedule,
    happiness_rates,
    max_unhappiness_lengths,
    observed_periods,
    unhappiness_gaps,
)
from repro.core.config import EngineConfig
from repro.core.problem import ConflictGraph
from repro.core.schedule import ExplicitSchedule, PeriodicSchedule, SlotAssignment
from repro.core.trace import TraceMatrix
from repro.core.validation import check_independent_sets, validate_schedule
from repro.graphs.random_graphs import erdos_renyi

#: the trace engine's backend; the sweeps keep it as an explicit axis so a
#: case names the engine it checks against the ``sets`` reference
BACKENDS = ["numpy"]


def cfg(backend=None, mode=None, chunk=None):
    """EngineConfig from the sweep's knob spellings (None = default)."""
    opts = {"backend": backend, "horizon_mode": mode, "chunk": chunk}
    return EngineConfig(**{k: v for k, v in opts.items() if v is not None})


def random_graphs(seeds):
    """A reproducible family of small random graphs across densities."""
    graphs = []
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(5, 18)
        p = rng.choice([0.1, 0.25, 0.5])
        graphs.append(erdos_renyi(n, p, seed=seed, name=f"gnp-{n}-{seed}"))
    return graphs


# ---------------------------------------------------------------------------
# engine-level equality on hand-crafted schedules
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
class TestTraceMatrixBasics:
    def test_periodic_fast_path(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
        schedule = PeriodicSchedule(
            graph,
            {0: SlotAssignment(2, 1), 1: SlotAssignment(4, 0), 2: SlotAssignment(2, 1)},
        )
        horizon = 23
        matrix = TraceMatrix.from_schedule(schedule, graph, horizon)
        reference = HappinessTrace.from_schedule(schedule, graph, horizon)
        for p in graph.nodes():
            assert matrix.appearances(p) == reference.appearances[p]
            assert matrix.gaps(p) == reference.gaps(p)
            assert matrix.mul(p) == reference.mul(p)
            assert matrix.observed_period(p) == reference.observed_period(p)
            assert matrix.happiness_rate(p) == reference.happiness_rate(p)

    def test_happy_set_columns(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
        schedule = ExplicitSchedule(graph, [[0, 2], [1], [], [0]])
        matrix = TraceMatrix.from_schedule(schedule, graph, 4)
        for t in range(1, 5):
            assert matrix.happy_set(t) == schedule.happy_set(t)
        with pytest.raises(ValueError):
            matrix.happy_set(5)

    def test_cyclic_tiling(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
        schedule = ExplicitSchedule(graph, [[0, 2], [1], []], cyclic=True)
        horizon = 17  # not a multiple of the cycle
        matrix = TraceMatrix.from_schedule(schedule, graph, horizon)
        reference = HappinessTrace.from_schedule(schedule, graph, horizon)
        for p in graph.nodes():
            assert matrix.appearances(p) == reference.appearances[p]
            assert matrix.gaps(p) == reference.gaps(p)

    def test_never_happy_node(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        schedule = ExplicitSchedule(graph, [[0], [0], [0]])
        matrix = TraceMatrix.from_schedule(schedule, graph, 3)
        assert matrix.gaps(1) == [3]
        assert matrix.mul(1) == 3
        assert matrix.count(1) == 0
        assert matrix.observed_period(1) is None

    def test_edge_collisions(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        # deliberately illegal: both endpoints happy at holidays 2 and 5
        matrix = TraceMatrix.from_schedule([[0], [0, 1], [], [1], [0, 1]], graph, 5)
        assert matrix.edge_collisions(0, 1) == [2, 5]
        assert matrix.conflicting_holidays() == {2: [(0, 1)], 5: [(0, 1)]}

    def test_unknown_nodes_recorded(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        matrix = TraceMatrix.from_schedule([[0], [99], [1]], graph, 3)
        assert matrix.unknown == [(2, 99)]

    def test_periodic_schedule_against_mismatched_graph(self):
        """A periodic schedule evaluated on a *different* graph must match
        the reference: extra graph nodes are never happy, extra scheduled
        nodes surface as unknown-node violations (not the fast path)."""
        base = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
        schedule = PeriodicSchedule(
            base,
            {0: SlotAssignment(2, 1), 1: SlotAssignment(2, 0), 2: SlotAssignment(2, 1)},
        )
        bigger = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3)], name="p4")
        fast = max_unhappiness_lengths(schedule, bigger, 6, config=cfg(backend="numpy"))
        assert fast == max_unhappiness_lengths(schedule, bigger, 6, config=cfg(backend="sets"))
        assert fast[3] == 6  # in the graph, never scheduled

        smaller = ConflictGraph.from_edges([(0, 1)], name="p2")
        fast_report = check_independent_sets(schedule, smaller, 4, config=cfg(backend="numpy"))
        reference = check_independent_sets(schedule, smaller, 4, config=cfg(backend="sets"))
        assert [(v.kind, v.holiday) for v in fast_report.violations] == \
            [(v.kind, v.holiday) for v in reference.violations]
        assert any(v.kind == "unknown-node" for v in fast_report.violations)


# ---------------------------------------------------------------------------
# differential property sweep: random graphs × all registered schedulers
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_schedulers_metrics_match_reference(backend, seed):
    """Vectorized metrics must be exactly equal to backend="sets" everywhere."""
    for graph in random_graphs([seed * 10 + 3, seed * 10 + 7]):
        for name in available_schedulers():
            schedule = get_scheduler(name).build(graph, seed=seed)
            horizon = 96
            fast = evaluate_schedule(schedule, graph, horizon, name=name, config=cfg(backend=backend))
            reference = evaluate_schedule(schedule, graph, horizon, name=name, config=cfg(backend="sets"))
            assert fast.muls == reference.muls, (name, graph.name)
            assert fast.periods == reference.periods, (name, graph.name)
            assert fast.rates == reference.rates, (name, graph.name)
            assert fast.normalized == reference.normalized, (name, graph.name)
            assert fast.summary() == reference.summary(), (name, graph.name)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_all_schedulers_validation_matches_reference(backend):
    for graph in random_graphs([11, 12]):
        for name in available_schedulers():
            schedule = get_scheduler(name).build(graph, seed=0)
            fast = validate_schedule(schedule, graph, 64, check_periodic=True, config=cfg(backend=backend))
            reference = validate_schedule(schedule, graph, 64, check_periodic=True, config=cfg(backend="sets"))
            assert fast.ok == reference.ok, (name, graph.name)
            assert len(fast.violations) == len(reference.violations), (name, graph.name)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_metric_helpers_match_reference(backend):
    graph = erdos_renyi(14, 0.3, seed=5, name="gnp-14")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    horizon = 80
    assert max_unhappiness_lengths(schedule, graph, horizon, config=cfg(backend=backend)) == \
        max_unhappiness_lengths(schedule, graph, horizon, config=cfg(backend="sets"))
    assert unhappiness_gaps(schedule, graph, horizon, config=cfg(backend=backend)) == \
        unhappiness_gaps(schedule, graph, horizon, config=cfg(backend="sets"))
    assert observed_periods(schedule, graph, horizon, config=cfg(backend=backend)) == \
        observed_periods(schedule, graph, horizon, config=cfg(backend="sets"))
    assert happiness_rates(schedule, graph, horizon, config=cfg(backend=backend)) == \
        happiness_rates(schedule, graph, horizon, config=cfg(backend="sets"))


# ---------------------------------------------------------------------------
# validation on illegal traces
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_illegal_sequence_flagged_identically(backend):
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    bad = [[0, 1], [2], [0, 99], [1, 2]]  # conflicts at 1 and 4, unknown at 3
    fast = check_independent_sets(bad, graph, 4, config=cfg(backend=backend))
    reference = check_independent_sets(bad, graph, 4, config=cfg(backend="sets"))
    assert not fast.ok and not reference.ok
    assert [(v.kind, v.holiday) for v in fast.violations] == \
        [(v.kind, v.holiday) for v in reference.violations]


# ---------------------------------------------------------------------------
# shared-trace plumbing
# ---------------------------------------------------------------------------

def test_shared_trace_is_reused():
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    matrix = TraceMatrix.from_schedule(schedule, graph, 32)
    report = evaluate_schedule(schedule, graph, 32, trace=matrix)
    validation = validate_schedule(schedule, graph, 32, check_periodic=True, trace=matrix)
    assert report.summary() == evaluate_schedule(schedule, graph, 32, config=cfg(backend="sets")).summary()
    assert validation.ok


def test_shared_trace_horizon_mismatch_rejected():
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    matrix = TraceMatrix.from_schedule(schedule, graph, 32)
    with pytest.raises(ValueError):
        evaluate_schedule(schedule, graph, 16, trace=matrix)


def test_shared_trace_with_sets_backend_rejected():
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    matrix = TraceMatrix.from_schedule(schedule, graph, 32)
    with pytest.raises(ValueError, match="sets"):
        evaluate_schedule(schedule, graph, 32, trace=matrix, config=cfg(backend="sets"))


@pytest.mark.usefixtures("fold_arm")
def test_shared_trace_validates_against_passed_graphs_edges():
    """Legality must be judged by the edges of the graph being validated,
    not by the edges of the graph the trace was built on."""
    loose = ConflictGraph(edges=[(0, 1)], nodes=[2], name="loose")
    strict = ConflictGraph.from_edges([(0, 1), (1, 2)], name="strict")
    sets = [[0], [1, 2], [0]]  # legal on loose, illegal on strict at holiday 2
    matrix = TraceMatrix.from_schedule(sets, loose, 3)
    assert check_independent_sets(sets, loose, 3, trace=matrix).ok
    strict_report = check_independent_sets(sets, strict, 3, trace=matrix)
    assert [(v.kind, v.holiday) for v in strict_report.violations] == [("not-independent", 2)]


def test_shared_trace_graph_mismatch_rejected():
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    bigger = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    matrix = TraceMatrix.from_schedule(schedule, graph, 32)
    with pytest.raises(ValueError, match="nodes"):
        evaluate_schedule(schedule, bigger, 32, trace=matrix)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_validate_periodic_schedule_on_subgraph(backend):
    """check_periodic over a graph smaller than schedule.graph must not
    crash on matrix backends (the shared trace cannot cover schedule.graph,
    so certify_periodicity builds its own)."""
    base = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = PeriodicSchedule(
        base,
        {0: SlotAssignment(2, 1), 1: SlotAssignment(2, 0), 2: SlotAssignment(2, 1)},
    )
    smaller = ConflictGraph.from_edges([(0, 1)], name="p2")
    fast = validate_schedule(schedule, smaller, 8, check_periodic=True, config=cfg(backend=backend))
    reference = validate_schedule(schedule, smaller, 8, check_periodic=True, config=cfg(backend="sets"))
    assert fast.ok == reference.ok
    assert [(v.kind, v.node, v.holiday) for v in fast.violations] == \
        [(v.kind, v.node, v.holiday) for v in reference.violations]


# ---------------------------------------------------------------------------
# the CRT collision satellite
# ---------------------------------------------------------------------------

def test_congruence_collision_matches_brute_force():
    rng = random.Random(20160711)
    for _ in range(2000):
        a = SlotAssignment(rng.randint(1, 24), rng.randint(0, 23))
        b = SlotAssignment(rng.randint(1, 24), rng.randint(0, 23))
        closed_form = PeriodicSchedule._congruence_collision(a, b)
        import math

        g = math.gcd(a.period, b.period)
        lcm = a.period // g * b.period
        brute = next(
            (t for t in range(1, lcm + 1) if a.is_happy(t) and b.is_happy(t)), None
        )
        assert closed_form == brute, (a, b)


def test_congruence_collision_large_coprime_is_fast():
    # pre-fix this scanned ~10^12 holidays; closed form is instant
    a = SlotAssignment(1_000_003, 7)
    b = SlotAssignment(999_983, 11)
    t = PeriodicSchedule._congruence_collision(a, b)
    assert t is not None and a.is_happy(t) and b.is_happy(t)
