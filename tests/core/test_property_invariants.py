"""Property-based tests of core cross-cutting invariants.

These tie together several modules: the static congruence-based conflict
check of :class:`PeriodicSchedule` must agree with brute-force simulation,
gatherings built from scheduled happy sets must make exactly those nodes
happy, and the mul metric must be consistent with the gap decomposition.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.config import EngineConfig
from repro.core.metrics import HappinessTrace, evaluate_schedule
from repro.core.problem import ConflictGraph, orientation_towards
from repro.core.schedule import ExplicitSchedule, PeriodicSchedule, SlotAssignment
from repro.core.trace import TraceBatch
from repro.core.validation import validate_schedule
from repro.graphs.random_graphs import erdos_renyi


@st.composite
def small_graph_and_assignments(draw):
    """A random small graph plus a random (not necessarily legal) periodic assignment."""
    n = draw(st.integers(min_value=2, max_value=8))
    p = draw(st.floats(min_value=0.0, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=10**4))
    graph = erdos_renyi(n, p, seed=seed)
    assignments = {}
    for node in graph.nodes():
        period = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
        phase = draw(st.integers(min_value=0, max_value=period - 1))
        assignments[node] = SlotAssignment(period=period, phase=phase)
    return graph, assignments


@settings(max_examples=60, deadline=None)
@given(small_graph_and_assignments())
def test_static_conflict_check_agrees_with_simulation(data):
    """PeriodicSchedule's gcd-congruence conflict test is exactly equivalent to
    simulating one full hyper-period and looking for adjacent co-scheduling."""
    graph, assignments = data
    schedule = PeriodicSchedule(graph, assignments, check_conflicts=False)
    conflict = schedule.find_conflict()

    hyper = 1
    for slot in assignments.values():
        hyper = hyper // math.gcd(hyper, slot.period) * slot.period
    simulated_conflict = None
    for t in range(1, hyper + 1):
        happy = schedule.happy_set(t)
        for u in happy:
            for v in graph.neighbors(u):
                if v in happy:
                    simulated_conflict = (u, v, t)
                    break
            if simulated_conflict:
                break
        if simulated_conflict:
            break

    assert (conflict is None) == (simulated_conflict is None)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    p=st.floats(min_value=0.0, max_value=0.7),
    seed=st.integers(min_value=0, max_value=10**4),
)
def test_gathering_from_happy_set_keeps_scheduled_nodes_happy(n, p, seed):
    """Converting an independent set into an edge orientation (Definition 2.1)
    always makes exactly the selected nodes sinks among nodes with neighbors."""
    graph = erdos_renyi(n, p, seed=seed)
    # take a maximal independent set greedily
    selected = []
    taken = set()
    for node in graph.nodes():
        if all(q not in taken for q in graph.neighbors(node)):
            selected.append(node)
            taken.add(node)
    gathering = orientation_towards(graph, selected)
    for node in selected:
        assert gathering.is_happy(node)
    happy = gathering.happy_set()
    assert graph.is_independent_set(happy)
    assert set(selected) <= set(happy)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    horizon=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10**4),
)
def test_gap_decomposition_consistency(n, horizon, seed):
    """For any schedule prefix: gaps sum + appearances = horizon, and mul = max gap."""
    graph = erdos_renyi(n, 0.4, seed=seed)
    assignments = {
        node: SlotAssignment(period=1 + (graph.index_of(node) % 4), phase=graph.index_of(node) % 2)
        for node in graph.nodes()
    }
    schedule = PeriodicSchedule(graph, assignments, check_conflicts=False)
    trace = HappinessTrace.from_schedule(schedule, graph, horizon)
    for node in graph.nodes():
        gaps = trace.gaps(node)
        appearances = trace.appearances[node]
        assert sum(gaps) + len(appearances) == horizon
        assert trace.mul(node) == max(gaps)
        assert all(g >= 0 for g in gaps)


# ---------------------------------------------------------------------------
# the randomized differential fuzz harness
# ---------------------------------------------------------------------------
#
# One seeded `random.Random` drives everything — graph shape, schedule
# family, horizon, chunk geometry — so a red run reproduces from the seed
# in its parametrized test id alone.  For each drawn instance, every
# evaluation engine must produce the *same* metric report and the *same*
# validation report: the frozenset reference, the dense matrix, the chunked
# stream (in closed form for periodic and cyclic schedules), and a batch
# member view.

FUZZ_SEEDS = range(60)

#: scheduled by some raw and cyclic draws, but not a node of any graph
GHOST = "ghost"


def _fuzz_instance(seed):
    """Deterministically draw (graph, horizon, chunk, family, make_schedule)."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    graph = erdos_renyi(n, rng.uniform(0.1, 0.7), seed=rng.randrange(10**6),
                        name=f"fuzz-{seed}")
    horizon = rng.randint(1, 120)
    chunk = rng.choice([1, 2, 3, 5, 7, 13, horizon, horizon + 3])
    family = rng.choice(["scheduler", "raw", "cyclic"])
    if family == "scheduler":
        name = rng.choice(available_schedulers())
        build_seed = rng.randrange(10**6)
        # fresh build per engine: generator-backed schedules are consumed
        make = lambda: get_scheduler(name).build(graph, seed=build_seed)
        family = f"scheduler:{name}"
    else:
        length = horizon if family == "raw" else rng.randint(1, max(2, horizon // 2))
        # arbitrary subsets: possibly illegal, possibly empty, sometimes
        # with a node the graph lacks — validation must flag exactly the
        # same holidays in every engine
        nodes = graph.nodes() + ([GHOST] if rng.random() < 0.3 else [])
        sets = [
            frozenset(p for p in nodes if rng.random() < 0.3) for _ in range(length)
        ]
        if family == "raw":
            make = lambda: list(sets)
        else:
            make = lambda: ExplicitSchedule(graph, sets, cyclic=True, validate=False,
                                            name=f"fuzz-cyclic-{seed}")
    return graph, horizon, chunk, family, make


def _fuzz_engines(chunk, horizon):
    """(name, EngineConfig) pairs for every evaluation engine under test."""
    return [
        ("numpy-dense", EngineConfig(backend="numpy", horizon_mode="dense")),
        ("numpy-stream", EngineConfig(backend="numpy", horizon_mode="stream", chunk=chunk)),
    ]


def _report_state(report):
    return (report.muls, report.periods, report.rates, report.summary())


def _violation_tuples(report):
    # The witness pair inside a not-independent detail is engine-specific by
    # documented contract (set-iteration order vs graph edge order picks a
    # different adjacent pair as evidence), so it is masked; every other
    # field — including details of all other kinds — must match exactly.
    return [
        (v.kind, v.node, v.holiday,
         "<witness>" if v.kind == "not-independent" else v.detail)
        for v in report.violations
    ]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_differential_fuzz_all_engines_agree(seed):
    graph, horizon, chunk, family, make = _fuzz_instance(seed)
    ctx = f"seed={seed} family={family} n={graph.num_nodes()} horizon={horizon} chunk={chunk}"

    reference = evaluate_schedule(
        make(), graph, horizon, config=EngineConfig(backend="sets"))
    ref_state = _report_state(reference)
    ref_val = validate_schedule(
        make(), graph, horizon, check_periodic=True, config=EngineConfig(backend="sets"))

    for engine_name, config in _fuzz_engines(chunk, horizon):
        report = evaluate_schedule(make(), graph, horizon, config=config)
        assert _report_state(report) == ref_state, f"{ctx} engine={engine_name}"
        val = validate_schedule(make(), graph, horizon, check_periodic=True, config=config)
        assert val.ok == ref_val.ok, f"{ctx} engine={engine_name}"
        assert _violation_tuples(val) == _violation_tuples(ref_val), \
            f"{ctx} engine={engine_name}"

    # batch member views are engines too: a singleton batch and a batch that
    # sandwiches the instance between two unrelated members
    decoys = [
        get_scheduler("sequential").build(graph, seed=0),
        get_scheduler("round-robin-color").build(graph, seed=0),
    ]
    for batch_name, members, index in [
        ("batch-singleton", [make()], 0),
        ("batch-sandwich", [decoys[0], make(), decoys[1]], 1),
    ]:
        batch = TraceBatch(members, graph, horizon, chunk=chunk)
        view = batch.member(index)
        report = evaluate_schedule(make(), graph, horizon, trace=view)
        assert _report_state(report) == ref_state, f"{ctx} engine={batch_name}"
        val = validate_schedule(make(), graph, horizon, trace=view, check_periodic=True)
        assert val.ok == ref_val.ok, f"{ctx} engine={batch_name}"
        assert _violation_tuples(val) == _violation_tuples(ref_val), \
            f"{ctx} engine={batch_name}"
