"""Differential tests for batched multi-schedule traces.

The contract of :class:`repro.core.trace.TraceBatch` is *exact* agreement
between a batch member and an ordinary per-cell trace of the same
schedule — on every query, for every registered scheduler, on both arms of
the fold kernel, for every way of splitting the schedule set into batches
(size 1, 2, a size that does not divide the set, and the whole set), and in
streamed mode for several chunk widths.  The members also plug into
``evaluate_schedule``/``validate_schedule`` via ``trace=`` and must
reproduce per-cell reports verbatim.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.config import EngineConfig
from repro.core.metrics import evaluate_schedule
from repro.core.schedule import PeriodicSchedule, SlotAssignment
from repro.core.trace import StreamedTrace, TraceBatch, TraceMatrix
from repro.core.validation import validate_schedule
from repro.graphs.random_graphs import erdos_renyi

HORIZON = 64
#: streamed-batch chunk widths: degenerate, non-dividing, == horizon, > horizon.
CHUNKS = (1, 7, HORIZON, 200)


@pytest.fixture(scope="module")
def graph():
    g = erdos_renyi(14, 0.3, seed=3)
    assert g.num_edges() > 0
    return g


@pytest.fixture(scope="module")
def schedules(graph):
    """One schedule per registered scheduler, deterministic seeds."""
    return [
        (name, get_scheduler(name).build(graph, seed=17 + k))
        for k, name in enumerate(available_schedulers())
    ]


def batch_splits(size):
    """Batch sizes 1, 2, a non-dividing size, and == S."""
    non_dividing = next(b for b in range(3, size + 2) if size % b)
    return sorted({1, 2, non_dividing, size})


def assert_member_matches(view, reference, graph):
    assert view.unknown == reference.unknown
    assert view.muls() == reference.muls()
    assert view.observed_periods() == reference.observed_periods()
    assert view.happiness_rates() == reference.happiness_rates()
    for p in graph.nodes():
        assert view.count(p) == reference.count(p)
        assert view.mul(p) == reference.mul(p)
        assert view.distinct_appearance_diffs(p) == reference.distinct_appearance_diffs(p)
        assert view.appearances(p) == reference.appearances(p)
        assert view.gaps(p) == reference.gaps(p)
    for u, v in graph.edges():
        assert view.edge_collisions(u, v) == reference.edge_collisions(u, v)
        assert view.edge_collisions(v, u) == reference.edge_collisions(v, u)
    assert view.conflicting_holidays() == reference.conflicting_holidays()


@pytest.mark.usefixtures("fold_arm")
def test_dense_batch_matches_per_cell_for_every_split(graph, schedules):
    built = [schedule for _, schedule in schedules]
    for size in batch_splits(len(built)):
        for lo in range(0, len(built), size):
            group = built[lo:lo + size]
            batch = TraceBatch(group, graph, HORIZON)
            assert batch.member_mode == "dense"
            for s, schedule in enumerate(group):
                reference = TraceMatrix.from_schedule(schedule, graph, HORIZON)
                assert_member_matches(batch.member(s), reference, graph)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("chunk", CHUNKS)
def test_streamed_batch_matches_per_cell(graph, schedules, chunk):
    built = [schedule for _, schedule in schedules]
    batch = TraceBatch(built, graph, HORIZON, horizon_mode="stream", chunk=chunk)
    assert batch.member_mode == "stream"
    for s, schedule in enumerate(built):
        reference = TraceMatrix.from_schedule(schedule, graph, HORIZON)
        assert_member_matches(batch.member(s), reference, graph)
        streamed = StreamedTrace(schedule, graph, HORIZON, chunk=chunk)
        view = batch.member(s)
        assert view.muls() == streamed.muls()
        assert view.unknown == streamed.unknown


@pytest.mark.usefixtures("fold_arm")
def test_member_views_drive_metrics_and_validation(graph, schedules):
    """evaluate/validate over a member view ≡ per-cell, scheduler by scheduler."""
    config = EngineConfig(backend="numpy")
    built = [schedule for _, schedule in schedules]
    batch = TraceBatch(built, graph, HORIZON)
    for s, (name, schedule) in enumerate(schedules):
        scheduler = get_scheduler(name)
        view = batch.member(s)
        assert view.mode == "dense"
        batched_report = evaluate_schedule(
            schedule, graph, HORIZON, name=name, trace=view, config=config
        )
        percell_report = evaluate_schedule(schedule, graph, HORIZON, name=name, config=config)
        assert batched_report.summary() == percell_report.summary()
        bound_fn = scheduler.bound_function(graph)
        batched_validation = validate_schedule(
            schedule, graph, HORIZON,
            bound=bound_fn, bound_name=scheduler.info.local_bound,
            check_periodic=scheduler.info.periodic, trace=view, config=config,
        )
        percell_validation = validate_schedule(
            schedule, graph, HORIZON,
            bound=bound_fn, bound_name=scheduler.info.local_bound,
            check_periodic=scheduler.info.periodic, config=config,
        )
        assert [
            (v.kind, v.node, v.holiday, v.detail) for v in batched_validation.violations
        ] == [
            (v.kind, v.node, v.holiday, v.detail) for v in percell_validation.violations
        ]
        assert batched_validation.ok == percell_validation.ok


@pytest.mark.usefixtures("fold_arm")
def test_raw_sequences_and_unknown_nodes(graph):
    """Non-schedule members (raw happy-set sequences, possibly mentioning
    nodes outside the graph) take the generic fill and track unknowns."""
    nodes = graph.nodes()
    known = [{nodes[t % len(nodes)]} for t in range(HORIZON)]
    alien = [{nodes[0]} if t % 2 else {"ghost"} for t in range(HORIZON)]
    batch = TraceBatch([known, alien], graph, HORIZON)
    for s, raw in enumerate((known, alien)):
        reference = TraceMatrix.from_schedule(raw, graph, HORIZON)
        assert_member_matches(batch.member(s), reference, graph)
    assert batch.member(1).unknown  # the ghost node was recorded


@pytest.mark.usefixtures("fold_arm")
def test_colliding_periodic_members_match_the_matrix_fold(graph):
    """Periodic members with overlapping, colliding (period, phase) tables:
    each dense member summarises in closed form (``periodic_summary``) and
    answers exactly like the fold of its ``TraceMatrix.from_schedule``
    matrix."""
    nodes = graph.nodes()
    tables = []
    for shift in (0, 1, 3):
        tables.append(
            PeriodicSchedule(
                graph,
                {
                    p: SlotAssignment(period=4 if i % 2 else 8, phase=(i + shift) % 4)
                    for i, p in enumerate(nodes)
                },
                check_conflicts=False,  # collisions are wanted: they exercise edge_collisions
            )
        )
    batch = TraceBatch(tables, graph, HORIZON)
    for s, schedule in enumerate(tables):
        reference = TraceMatrix.from_schedule(schedule, graph, HORIZON)
        assert_member_matches(batch.member(s), reference, graph)


def test_batch_rejects_bad_inputs(graph):
    with pytest.raises(ValueError, match="at least one"):
        TraceBatch([], graph, HORIZON)
    schedule = get_scheduler("sequential").build(graph, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        TraceBatch([schedule], graph, 0)
    with pytest.raises(ValueError, match="chunk"):
        TraceBatch([schedule], graph, HORIZON, chunk=0)
    batch = TraceBatch([schedule], graph, HORIZON)
    with pytest.raises(IndexError):
        batch.member(1)
