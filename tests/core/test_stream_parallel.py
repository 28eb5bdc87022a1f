"""Differential tests for *parallel* chunked streaming: ``jobs=1 ≡ jobs=N``.

The contract of :class:`repro.core.trace.StreamedTrace` with ``jobs > 1`` is
that parallelism is purely a wall-clock knob: for every registered scheduler,
chunk widths that do and do not divide the horizon, both fail-fast settings
and both arms of the fold kernel, the streamed metrics and validation reports
must be *identical* to the serial scan (and therefore, transitively, to the
dense matrix and the frozenset reference).  Schedules that cannot be split
(generator-backed ones must run forward) fall back to the serial scan, which
is asserted here too — the contract holds for them trivially.

Periodic schedules never reach the workers: :func:`periodic_summary`
answers their summaries in closed form at any ``jobs`` (asserted below), so
each periodic input here has a cyclic twin — one global period of the same
schedule as a cyclic :class:`ExplicitSchedule`, whose chunks the pool does
split.  The worker-block machinery has its own boundary conditions covered
below: block width 1, more workers than chunks, a single chunk (no
parallelism possible), and fail-fast cancellation mid-block.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.metrics import build_trace, evaluate_schedule
from repro.core.config import EngineConfig
from repro.core.problem import ConflictGraph
from repro.core.schedule import ExplicitSchedule, GeneratorSchedule, PeriodicSchedule, SlotAssignment
from repro.core import trace as trace_module
from repro.core.trace import BLOCKS_PER_JOB, StreamedTrace, _chunk_blocks
from repro.core.validation import check_independent_sets, validate_schedule
from repro.graphs.random_graphs import erdos_renyi

BACKENDS = ["numpy"]


def cfg(backend=None, mode=None, chunk=None, jobs=None):
    """EngineConfig from the sweep's knob spellings (None = default)."""
    opts = {"backend": backend, "horizon_mode": mode, "chunk": chunk, "stream_jobs": jobs}
    return EngineConfig(**{k: v for k, v in opts.items() if v is not None})

HORIZON = 96
#: 13 does not divide 96, 16 does — both sides of the chunk-alignment coin.
CHUNKS = (13, 16)


def report_tuples(report):
    return [(v.kind, v.node, v.holiday, v.detail) for v in report.violations]


def cyclic_twin(schedule: PeriodicSchedule) -> ExplicitSchedule:
    """One global period of ``schedule`` as a cyclic explicit schedule: the
    same trace, tiled chunk by chunk (and split by the pool) instead of
    summarised in closed form."""
    return ExplicitSchedule(
        schedule.graph, schedule.prefix(schedule.global_period()), cyclic=True, validate=False
    )


def with_cyclic_twin(schedule: PeriodicSchedule):
    """``schedule`` and its :func:`cyclic_twin`."""
    return {"periodic": schedule, "cyclic": cyclic_twin(schedule)}


def summary_state(trace: StreamedTrace):
    """Everything the summary pass produces, in comparable form."""
    s = trace.summary()
    return (
        s.count.tolist(), s.first.tolist(), s.last.tolist(), s.dmax.tolist(), s.dmin.tolist(),
        [s.distinct(row) for row in range(len(s.count))],
        s.collisions,
        s.unknown,
    )


# ---------------------------------------------------------------------------
# the acceptance gate: all schedulers × backends × chunk widths × fail-fast
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_all_schedulers_parallel_matches_serial(backend, chunk):
    """jobs=3 must reproduce the serial streamed reports exactly for every
    registered scheduler (generator-backed ones exercise the serial
    fallback, periodic ones the closed form, and their cyclic twins the
    worker-block fan-out)."""
    graph = erdos_renyi(12, 0.3, seed=6, name="gnp-12")
    for name in available_schedulers():
        schedule = get_scheduler(name).build(graph, seed=5)
        serial = evaluate_schedule(
            schedule, graph, HORIZON, name=name, config=cfg(backend=backend, mode="stream", chunk=chunk, jobs=1))
        # a fresh build: generator-backed schedules must be re-run forward
        schedule2 = get_scheduler(name).build(graph, seed=5)
        trace = build_trace(
            schedule2, graph, HORIZON, config=cfg(backend=backend, mode="stream", chunk=chunk, jobs=3))
        assert isinstance(trace, StreamedTrace) and trace.jobs == 3
        parallel = evaluate_schedule(
            schedule2, graph, HORIZON, name=name, trace=trace, config=cfg(backend=backend))
        assert parallel.muls == serial.muls, (name, backend, chunk)
        assert parallel.periods == serial.periods, (name, backend, chunk)
        assert parallel.rates == serial.rates, (name, backend, chunk)
        assert parallel.summary() == serial.summary(), (name, backend, chunk)

        serial_val = validate_schedule(
            schedule, graph, HORIZON, check_periodic=True, config=cfg(backend=backend, mode="stream", chunk=chunk, jobs=1))
        parallel_val = validate_schedule(
            schedule2, graph, HORIZON, check_periodic=True, trace=trace, config=cfg(backend=backend))
        assert parallel_val.ok == serial_val.ok, (name, backend, chunk)
        assert report_tuples(parallel_val) == report_tuples(serial_val), (name, chunk)

        if isinstance(schedule, PeriodicSchedule):
            twin = cyclic_twin(schedule)
            twins = [
                StreamedTrace(twin, graph, HORIZON, backend=backend, chunk=chunk, jobs=jobs)
                for jobs in (1, 3)
            ]
            assert summary_state(twins[1]) == summary_state(twins[0]) == summary_state(trace), \
                (name, chunk)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fail_fast", (False, True))
def test_illegal_sequence_parallel_matches_serial(backend, fail_fast):
    """Raw-sequence legality (worker slices) with and without fail-fast must
    flag exactly the serial violations, across block boundaries."""
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    bad = [
        [0, 1] if t % 17 == 0 else ([99] if t % 23 == 0 else [0, 2])
        for t in range(1, 81)
    ]
    serial = check_independent_sets(
        bad, graph, 80, fail_fast=fail_fast, config=cfg(backend=backend, mode="stream", chunk=5, jobs=1))
    parallel = check_independent_sets(
        bad, graph, 80, fail_fast=fail_fast, config=cfg(backend=backend, mode="stream", chunk=5, jobs=4))
    reference = check_independent_sets(bad, graph, 80, fail_fast=fail_fast, config=cfg(backend="sets"))
    assert report_tuples(parallel) == report_tuples(serial)
    assert [(v.kind, v.holiday) for v in parallel.violations] == \
        [(v.kind, v.holiday) for v in reference.violations]
    if fail_fast:
        # everything truncates at the first offending holiday (17's chunk)
        assert parallel.violations and parallel.violations[0].holiday == 17


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_legality_scan_against_foreign_graph(backend):
    """Edges that are not the trace graph's own edge set take the dedicated
    (parallelisable) legality path; results must match the serial scan."""
    base = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = PeriodicSchedule(
        base,
        {0: SlotAssignment(2, 1), 1: SlotAssignment(4, 0), 2: SlotAssignment(2, 1)},
    )
    smaller = ConflictGraph.from_edges([(0, 2)], name="p2-cross")
    for form, source in with_cyclic_twin(schedule).items():
        serial = StreamedTrace(source, base, 64, backend=backend, chunk=7, jobs=1)
        parallel = StreamedTrace(source, base, 64, backend=backend, chunk=7, jobs=3)
        assert parallel.legality_scan(smaller) == serial.legality_scan(smaller), form
        assert parallel.legality_scan(smaller, fail_fast=True) == \
            serial.legality_scan(smaller, fail_fast=True), form


# ---------------------------------------------------------------------------
# worker-block boundary conditions
# ---------------------------------------------------------------------------

def test_chunk_blocks_partition_is_contiguous_and_complete():
    for num_chunks in (1, 2, 5, 17, 100):
        for parts in (1, 2, 3, 16, 200):
            blocks = _chunk_blocks(num_chunks, parts)
            assert len(blocks) == min(max(parts, 1), num_chunks)
            expected = 0
            for first, count in blocks:
                assert first == expected and count >= 1
                expected += count
            assert expected == num_chunks


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_block_width_one(backend):
    """chunk=1 → every block scans single-holiday chunks."""
    graph = erdos_renyi(8, 0.35, seed=3, name="gnp-8")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    for form, source in with_cyclic_twin(schedule).items():
        serial = StreamedTrace(source, graph, 17, backend=backend, chunk=1, jobs=1)
        parallel = StreamedTrace(source, graph, 17, backend=backend, chunk=1, jobs=3)
        assert summary_state(parallel) == summary_state(serial), form


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_more_workers_than_chunks(backend):
    """jobs exceeding the chunk count must clamp, not crash or diverge."""
    graph = erdos_renyi(8, 0.35, seed=3, name="gnp-8")
    schedule = get_scheduler("round-robin-color").build(graph, seed=0)
    for form, source in with_cyclic_twin(schedule).items():
        serial = StreamedTrace(source, graph, 60, backend=backend, chunk=50, jobs=1)
        parallel = StreamedTrace(source, graph, 60, backend=backend, chunk=50, jobs=5)
        assert parallel._source.num_chunks() == 2  # far fewer chunks than workers
        assert summary_state(parallel) == summary_state(serial), form


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_single_chunk_takes_serial_path(backend):
    """One chunk cannot be split: jobs>1 must quietly run the serial scan."""
    graph = erdos_renyi(8, 0.35, seed=3, name="gnp-8")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    for form, source in with_cyclic_twin(schedule).items():
        serial = StreamedTrace(source, graph, 40, backend=backend, chunk=200, jobs=1)
        parallel = StreamedTrace(source, graph, 40, backend=backend, chunk=200, jobs=4)
        assert summary_state(parallel) == summary_state(serial), form


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_explicit_prefix_is_sliced_not_shipped_whole(backend):
    """A non-cyclic ExplicitSchedule is just a validated list: workers must
    receive their block's slice (like a raw sequence), not a full copy of
    the prefix per block — and produce the serial summary exactly."""
    from repro.core.schedule import ExplicitSchedule

    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    sets = [[t % 3] if t % 5 else [] for t in range(70)]
    schedule = ExplicitSchedule(graph, sets, cyclic=False)
    parallel = StreamedTrace(schedule, graph, 70, backend=backend, chunk=6, jobs=3)
    source = parallel._parallel_source()
    assert isinstance(source, list)  # sliceable, not the Schedule object
    payload = parallel._block_payload(source, 2, 3)
    assert payload[0] == [frozenset(s) for s in sets[12:30]]  # the slice only
    assert payload[-1] == 12  # global holiday offset
    serial = StreamedTrace(schedule, graph, 70, backend=backend, chunk=6, jobs=1)
    assert summary_state(parallel) == summary_state(serial)

    # a too-short prefix must keep failing the serial way (IndexError at
    # scan), so it is excluded from slicing
    short = ExplicitSchedule(graph, sets[:10], cyclic=False)
    assert StreamedTrace(short, graph, 70, backend=backend, chunk=6, jobs=3)._parallel_source() is None


def test_generator_schedules_fall_back_to_serial():
    """A generator-backed schedule cannot be shipped to workers; the scan
    must not try (the step callback raises if re-run from scratch, which a
    worker rebuilding the stream would do)."""
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    calls = []

    def step(t):
        calls.append(t)
        assert calls.count(t) == 1, f"holiday {t} generated twice (shipped to a worker?)"
        return [t % 2]

    schedule = GeneratorSchedule(graph, step, validate=False)
    trace = StreamedTrace(schedule, graph, 30, chunk=4, jobs=4)
    assert trace._parallel_source() is None
    trace._scan()  # serial fallback: each holiday generated exactly once
    assert trace.count(0) == 15 and trace.count(1) == 15


def test_fail_fast_cancellation_discards_later_blocks():
    """With fail_fast, violations past the first offending chunk never reach
    the report — neither later chunks in the same worker block (the worker
    truncates) nor later blocks (the parent stops merging and cancels)."""
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    horizon = 32 * BLOCKS_PER_JOB  # chunk=2, jobs=4 → one chunk per block
    bad = [[0] for _ in range(horizon)]
    for t in (9, 10, 21, 40, horizon - 1):  # violations in several blocks
        bad[t - 1] = [0, 1]
    serial = check_independent_sets(
        bad, graph, horizon, fail_fast=True, config=cfg(mode="stream", chunk=2, jobs=1))
    parallel = check_independent_sets(
        bad, graph, horizon, fail_fast=True, config=cfg(mode="stream", chunk=2, jobs=4))
    assert report_tuples(parallel) == report_tuples(serial)
    holidays = [v.holiday for v in parallel.violations]
    # chunk 5 covers holidays 9-10; everything later was discarded
    assert holidays == [9]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_invalid_jobs_rejected():
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    with pytest.raises(ValueError, match="jobs"):
        StreamedTrace(schedule, graph, 32, jobs=0)


class CyclicTwinScheduler:
    """A periodic scheduler whose schedules come out as their cyclic twins."""

    def __init__(self, inner):
        self.inner, self.info, self.name = inner, inner.info, inner.name

    def build(self, graph, seed=0):
        return cyclic_twin(self.inner.build(graph, seed=seed))

    def bound_function(self, graph):
        return self.inner.bound_function(graph)


def test_run_scheduler_parallel_stream_matches_serial_and_records_jobs():
    from repro.analysis.runner import run_scheduler

    graph = erdos_renyi(10, 0.3, seed=2, name="gnp-10")
    periodic = get_scheduler("degree-periodic")
    for scheduler in (periodic, CyclicTwinScheduler(periodic)):
        serial = run_scheduler(
            scheduler, graph, horizon=90, seed=1, config=cfg(mode="stream", chunk=8, jobs=1))
        parallel = run_scheduler(
            scheduler, graph, horizon=90, seed=1, config=cfg(mode="stream", chunk=8, jobs=2))
        assert serial.jobs == 1 and parallel.jobs == 2
        assert parallel.horizon_mode == "stream"
        assert parallel.report.summary() == serial.report.summary()
        assert report_tuples(parallel.validation) == report_tuples(serial.validation)
    assert type(parallel.schedule).__name__ == "ExplicitSchedule" and parallel.bound_satisfied


def test_periodic_schedules_start_no_pool(monkeypatch):
    """A periodic StreamedTrace answers summary and legality queries in
    closed form at any ``jobs``: no worker pool is ever started."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a periodic trace started a process pool")

    monkeypatch.setattr(trace_module, "ProcessPoolExecutor", no_pool)
    graph = erdos_renyi(8, 0.35, seed=3, name="gnp-8")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    trace = StreamedTrace(schedule, graph, 200, chunk=8, jobs=4)
    foreign = ConflictGraph.from_edges([(u, v) for u in graph.nodes() for v in graph.nodes() if u < v])
    trace.muls()
    trace.legality_scan(foreign)
    trace.legality_scan(graph, fail_fast=True)
    validate_schedule(schedule, graph, 200, check_periodic=True, trace=trace)
    # the twin does reach the (stubbed) pool
    with pytest.raises(AssertionError, match="process pool"):
        StreamedTrace(cyclic_twin(schedule), graph, 200, chunk=8, jobs=4).muls()
