"""Differential tests for the streaming chunked trace engine.

The contract of :class:`repro.core.trace.StreamedTrace` is *exact* agreement
with the dense :class:`~repro.core.trace.TraceMatrix` engine (and therefore,
transitively, with the frozenset reference) on every metric, every validation
report and every registered scheduler — on both arms of the fold kernel
(the ``fold_arm`` fixture), for every chunk width, including the degenerate
ones: chunk 1, chunks that do not divide the horizon, chunk equal to the
horizon, and chunk larger than the horizon.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.metrics import (
    HappinessTrace,
    build_trace,
    evaluate_schedule,
    happiness_rates,
    max_unhappiness_lengths,
    observed_periods,
    unhappiness_gaps,
)
from repro.core.config import EngineConfig
from repro.core.problem import ConflictGraph
from repro.core.schedule import (
    ExplicitSchedule,
    GeneratorSchedule,
    PeriodicSchedule,
    SlotAssignment,
)
from repro.core.trace import (
    AUTO_STREAM_BYTES,
    DEFAULT_CHUNK,
    StreamedTrace,
    TraceMatrix,
    TraceStream,
    dense_trace_bytes,
    resolve_horizon_mode,
)
from repro.core.validation import check_independent_sets, validate_schedule
from repro.graphs.random_graphs import erdos_renyi

BACKENDS = ["numpy"]


def cfg(backend=None, mode=None, chunk=None):
    """EngineConfig from the sweep's knob spellings (None = default)."""
    opts = {"backend": backend, "horizon_mode": mode, "chunk": chunk}
    return EngineConfig(**{k: v for k, v in opts.items() if v is not None})

HORIZON = 96
#: chunk 1 (degenerate), 7 (does not divide 96), 16 (divides 96),
#: 96 (== horizon) and 200 (> horizon — a single partial chunk).
CHUNKS = (1, 7, 16, HORIZON, 200)


def report_tuples(report):
    return [(v.kind, v.node, v.holiday, v.detail) for v in report.violations]


# ---------------------------------------------------------------------------
# mode resolution and plumbing
# ---------------------------------------------------------------------------

class TestHorizonModeResolution:
    def test_auto_is_dense_below_threshold_and_stream_above(self):
        assert resolve_horizon_mode("auto", 60, 10_000) == "dense"
        assert resolve_horizon_mode("auto", 60, 10**8) == "stream"
        flip = AUTO_STREAM_BYTES // 60
        assert resolve_horizon_mode("auto", 60, flip) == "dense"
        assert resolve_horizon_mode("auto", 60, flip + 1) == "stream"

    def test_explicit_modes_pass_through(self):
        assert resolve_horizon_mode("dense", 60, 10**9) == "dense"
        assert resolve_horizon_mode("stream", 1, 1) == "stream"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="horizon mode"):
            resolve_horizon_mode("chunked", 1, 1)

    def test_dense_trace_bytes(self):
        assert dense_trace_bytes(60, 10**6) == 60 * 10**6

    def test_build_trace_mode_selects_engine(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        schedule = get_scheduler("degree-periodic").build(graph, seed=0)
        for mode in ("dense", "auto"):
            dense = build_trace(schedule, graph, 32, config=cfg(mode=mode))
            assert dense.mode == "dense" and dense.chunk == 32, mode
        streamed = build_trace(schedule, graph, 32, config=cfg(mode="stream", chunk=8))
        assert isinstance(streamed, StreamedTrace) and streamed.chunk == 8

    def test_sets_backend_has_no_stream_mode(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        schedule = get_scheduler("degree-periodic").build(graph, seed=0)
        with pytest.raises(ValueError, match="no streaming"):
            build_trace(schedule, graph, 32, config=cfg(backend="sets", mode="stream"))

    def test_invalid_chunk_rejected(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        schedule = get_scheduler("degree-periodic").build(graph, seed=0)
        with pytest.raises(ValueError, match="chunk"):
            StreamedTrace(schedule, graph, 32, chunk=0)

    def test_jobs_is_not_a_parameter(self):
        """The streamed-scan process pool is gone, and its knob with it."""
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        schedule = get_scheduler("degree-periodic").build(graph, seed=0)
        with pytest.raises(TypeError, match="jobs"):
            StreamedTrace(schedule, graph, 32, chunk=8, jobs=2)


# ---------------------------------------------------------------------------
# TraceStream blocks tile exactly onto the dense matrix
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
class TestTraceStreamBlocks:
    def assert_blocks_match_dense(self, schedule, graph, horizon, chunk):
        dense = TraceMatrix.from_schedule(schedule, graph, horizon)
        stream = TraceStream(schedule, graph, horizon, chunk=chunk)
        seen = blocks = 0
        for start, block in stream:
            for local in range(1, block.horizon + 1):
                assert block.happy_set(local) == dense.happy_set(start + local - 1)
            assert [(start + t - 1, p) for t, p in block.unknown] == [
                (t, p) for t, p in dense.unknown if start <= t < start + block.horizon
            ]
            seen += block.horizon
            blocks += 1
        assert seen == horizon
        assert blocks == -(-horizon // chunk)

    def test_periodic_fast_path_blocks(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
        schedule = PeriodicSchedule(
            graph,
            {0: SlotAssignment(2, 1), 1: SlotAssignment(4, 0), 2: SlotAssignment(2, 1)},
        )
        for chunk in (1, 3, 5, 23, 50):
            self.assert_blocks_match_dense(schedule, graph, 23, chunk)

    def test_cyclic_tiling_blocks(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
        schedule = ExplicitSchedule(graph, [[0, 2], [1], []], cyclic=True)
        for chunk in (1, 2, 7, 17, 40):  # cycle length 3 vs every alignment
            self.assert_blocks_match_dense(schedule, graph, 17, chunk)

    def test_cyclic_blocks_carry_unknown_nodes(self):
        loose = ConflictGraph(edges=[(0, 1)], nodes=[], name="loose")
        schedule = ExplicitSchedule(
            ConflictGraph(edges=[(0, 1)], nodes=[9], name="rich"),
            [[0], [9], [1]],
            cyclic=True,
        )
        self.assert_blocks_match_dense(schedule, loose, 11, 4)

    def test_generic_blocks(self):
        graph = erdos_renyi(9, 0.3, seed=2, name="gnp-9")
        schedule = get_scheduler("phased-greedy").build(graph, seed=1)
        self.assert_blocks_match_dense(schedule, graph, 40, 11)

    def test_raw_sequence_too_short_rejected(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        with pytest.raises(ValueError, match="only 2 holidays"):
            TraceStream([[0], [1]], graph, 5, chunk=2)


# ---------------------------------------------------------------------------
# the differential sweep: all schedulers × backends × chunk widths
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_all_schedulers_reports_match_dense(backend, chunk):
    """Metric reports and validation reports must be identical between the
    dense and streaming representations for every registered scheduler."""
    for seed in (3, 11):
        graph = erdos_renyi(5 + seed, 0.25, seed=seed, name=f"gnp-{seed}")
        for name in available_schedulers():
            schedule = get_scheduler(name).build(graph, seed=seed)
            dense = evaluate_schedule(
                schedule, graph, HORIZON, name=name, config=cfg(backend=backend, mode="dense"))
            stream = evaluate_schedule(
                schedule, graph, HORIZON, name=name, config=cfg(backend=backend, mode="stream", chunk=chunk))
            assert stream.muls == dense.muls, (name, graph.name, chunk)
            assert stream.periods == dense.periods, (name, graph.name, chunk)
            assert stream.rates == dense.rates, (name, graph.name, chunk)
            assert stream.summary() == dense.summary(), (name, graph.name, chunk)

            dense_val = validate_schedule(
                schedule, graph, HORIZON, check_periodic=True, config=cfg(backend=backend, mode="dense"))
            stream_val = validate_schedule(
                schedule, graph, HORIZON, check_periodic=True, config=cfg(backend=backend, mode="stream", chunk=chunk))
            assert stream_val.ok == dense_val.ok, (name, graph.name, chunk)
            assert report_tuples(stream_val) == report_tuples(dense_val), (name, chunk)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_metric_helpers_match_dense(backend):
    graph = erdos_renyi(14, 0.3, seed=5, name="gnp-14")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    for chunk in (1, 13, HORIZON, 500):
        kwargs = dict(config=cfg(backend=backend, mode="stream", chunk=chunk))
        assert max_unhappiness_lengths(schedule, graph, HORIZON, **kwargs) == \
            max_unhappiness_lengths(schedule, graph, HORIZON, config=cfg(backend=backend))
        assert unhappiness_gaps(schedule, graph, HORIZON, **kwargs) == \
            unhappiness_gaps(schedule, graph, HORIZON, config=cfg(backend=backend))
        assert observed_periods(schedule, graph, HORIZON, **kwargs) == \
            observed_periods(schedule, graph, HORIZON, config=cfg(backend=backend))
        assert happiness_rates(schedule, graph, HORIZON, **kwargs) == \
            happiness_rates(schedule, graph, HORIZON, config=cfg(backend=backend))


# ---------------------------------------------------------------------------
# StreamedTrace query parity beyond the metric suite
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
def test_streamed_trace_query_parity():
    graph = erdos_renyi(10, 0.35, seed=7, name="gnp-10")
    schedule = get_scheduler("round-robin-color").build(graph, seed=0)
    dense = TraceMatrix.from_schedule(schedule, graph, 50)
    stream = StreamedTrace(schedule, graph, 50, chunk=7)
    for p in graph.nodes():
        assert stream.appearances(p) == dense.appearances(p)
        assert stream.appearance_diffs(p) == dense.appearance_diffs(p)
        assert stream.distinct_appearance_diffs(p) == dense.distinct_appearance_diffs(p)
        assert stream.gaps(p) == dense.gaps(p)
        assert stream.count(p) == dense.count(p)
        assert stream.mul(p) == dense.mul(p)
    assert stream.all_gaps() == dense.all_gaps()
    for t in (1, 7, 8, 49, 50):
        assert stream.happy_set(t) == dense.happy_set(t)
    with pytest.raises(ValueError):
        stream.happy_set(51)
    for u, v in graph.edges():
        assert stream.edge_collisions(u, v) == dense.edge_collisions(u, v)
    assert stream.conflicting_holidays() == dense.conflicting_holidays()


@pytest.mark.usefixtures("fold_arm")
def test_streamed_edge_collisions_for_non_edges():
    """Pairs that are not edges of the trace's graph go through the
    dedicated per-chunk scan and must agree with the dense engine."""
    graph = ConflictGraph.from_edges([(0, 1)], name="p2-plus")
    sets = [[0], [0, 1], [], [1], [0, 1]]
    dense = TraceMatrix.from_schedule(sets, graph, 5)
    stream = StreamedTrace(sets, graph, 5, chunk=2)
    assert stream.edge_collisions(0, 1) == dense.edge_collisions(0, 1) == [2, 5]


@pytest.mark.usefixtures("fold_arm")
def test_streamed_unknown_nodes_and_mismatched_graphs():
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    stream = StreamedTrace([[0], [99], [1]], graph, 3, chunk=1)
    assert stream.unknown == [(2, 99)]

    base = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = PeriodicSchedule(
        base,
        {0: SlotAssignment(2, 1), 1: SlotAssignment(2, 0), 2: SlotAssignment(2, 1)},
    )
    bigger = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3)], name="p4")
    fast = max_unhappiness_lengths(schedule, bigger, 6, config=cfg(mode="stream", chunk=2))
    assert fast == max_unhappiness_lengths(schedule, bigger, 6, config=cfg(backend="sets"))
    smaller = ConflictGraph.from_edges([(0, 1)], name="p2")
    stream_report = check_independent_sets(
        schedule, smaller, 4, config=cfg(mode="stream", chunk=3))
    reference = check_independent_sets(schedule, smaller, 4, config=cfg(backend="sets"))
    assert [(v.kind, v.holiday) for v in stream_report.violations] == \
        [(v.kind, v.holiday) for v in reference.violations]


# ---------------------------------------------------------------------------
# legality: illegal traces, fail-fast parity and chunk-level early exit
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk", (1, 2, 3, 10))
def test_illegal_sequence_flagged_identically(backend, chunk):
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    bad = [[0, 1], [2], [0, 99], [1, 2]]  # conflicts at 1 and 4, unknown at 3
    stream = check_independent_sets(bad, graph, 4, config=cfg(backend=backend, mode="stream", chunk=chunk))
    dense = check_independent_sets(bad, graph, 4, config=cfg(backend=backend, mode="dense"))
    reference = check_independent_sets(bad, graph, 4, config=cfg(backend="sets"))
    assert [(v.kind, v.holiday) for v in stream.violations] == \
        [(v.kind, v.holiday) for v in dense.violations] == \
        [(v.kind, v.holiday) for v in reference.violations]


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_fail_fast_truncates_identically_on_every_engine(backend):
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    bad = [[2], [0, 99], [0, 1], [1, 2]]  # unknown at 2, conflicts at 3 and 4
    kwargs = dict(fail_fast=True)
    stream = check_independent_sets(bad, graph, 4, **kwargs, config=cfg(backend=backend, mode="stream", chunk=2))
    dense = check_independent_sets(bad, graph, 4, **kwargs, config=cfg(backend=backend, mode="dense"))
    reference = check_independent_sets(bad, graph, 4, **kwargs, config=cfg(backend="sets"))
    # everything stops after holiday 2 (the first offending holiday)
    assert [(v.kind, v.holiday) for v in stream.violations] == \
        [(v.kind, v.holiday) for v in dense.violations] == \
        [(v.kind, v.holiday) for v in reference.violations] == [("unknown-node", 2)]


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("fail_fast", (False, True))
def test_raw_sequence_legality_matches_reference(fail_fast):
    """Collisions and unknown nodes spread over many chunks are flagged
    exactly like the frozenset reference, with and without fail-fast."""
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    bad = [
        [0, 1] if t % 17 == 0 else ([99] if t % 23 == 0 else [0, 2])
        for t in range(1, 81)
    ]
    stream = check_independent_sets(
        bad, graph, 80, fail_fast=fail_fast, config=cfg(mode="stream", chunk=5))
    reference = check_independent_sets(bad, graph, 80, fail_fast=fail_fast, config=cfg(backend="sets"))
    assert [(v.kind, v.node, v.holiday) for v in stream.violations] == \
        [(v.kind, v.node, v.holiday) for v in reference.violations]
    if fail_fast:
        assert [v.holiday for v in stream.violations] == [17]
    else:
        assert [v.holiday for v in stream.violations] == [17, 23, 34, 46, 51, 68, 69]


def test_fail_fast_discards_later_chunks():
    """With fail_fast, violations past the first offending chunk never
    reach the report, though later chunks hold several."""
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    horizon = 128
    bad = [[0] for _ in range(horizon)]
    for t in (9, 10, 21, 40, horizon - 1):
        bad[t - 1] = [0, 1]
    report = check_independent_sets(
        bad, graph, horizon, fail_fast=True, config=cfg(mode="stream", chunk=2))
    # chunk 5 covers holidays 9-10; everything later was discarded
    assert [v.holiday for v in report.violations] == [9]


def test_generator_holiday_made_once_per_scan():
    """The summary pass runs a generator schedule forward once: every
    holiday is generated exactly once."""
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    calls = []

    def step(t):
        calls.append(t)
        assert calls.count(t) == 1, f"holiday {t} generated twice"
        return [t % 2]

    schedule = GeneratorSchedule(graph, step, validate=False)
    trace = StreamedTrace(schedule, graph, 30, chunk=4)
    trace._scan()
    assert calls == list(range(1, 31))
    assert trace.count(0) == 15 and trace.count(1) == 15


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_fail_fast_stops_building_chunks(backend):
    """With fail_fast, chunks after the first violation are never
    materialised: the generator below would raise past holiday 4."""
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    generated = []

    def step(t):
        if t > 4:
            raise AssertionError(f"holiday {t} should never be generated")
        generated.append(t)
        return [0, 1] if t == 2 else [0]

    schedule = GeneratorSchedule(graph, step, validate=False)
    report = check_independent_sets(
        schedule, graph, 1000, fail_fast=True, config=cfg(backend=backend, mode="stream", chunk=3))
    assert [(v.kind, v.holiday) for v in report.violations] == [("not-independent", 2)]
    assert max(generated) <= 3  # only the first chunk was built


def test_second_pass_over_evicted_window_raises():
    """A windowed generator supports one forward pass: the summary pass is
    that pass, and a per-appearance pass over evicted history raises."""
    from repro.algorithms.phased_greedy import PhasedGreedyScheduler

    graph = erdos_renyi(8, 0.35, seed=3, name="gnp-8")
    schedule = PhasedGreedyScheduler(initial_coloring="greedy", window=16).build(graph)
    trace = StreamedTrace(schedule, graph, 400, chunk=8)
    assert trace.muls() == max_unhappiness_lengths(
        PhasedGreedyScheduler(initial_coloring="greedy").build(graph), graph, 400)
    assert schedule.evicted_below > 0
    for second_pass in (
        lambda: trace.appearances(graph.nodes()[0]),
        trace.all_gaps,
        lambda: trace.happy_set(1),
    ):
        with pytest.raises(ValueError, match="single forward pass"):
            second_pass()


def test_one_chunk_trace_builds_its_block_once(monkeypatch):
    """A dense trace is the one-chunk stream: its first pass builds the one
    block of the whole horizon, and every later pass — a foreign-graph
    legality scan, a non-edge's collisions, all gaps, happy sets — reads
    that block.  A trace of several chunks rebuilds its chunks per pass."""
    graph = erdos_renyi(10, 0.3, seed=4, name="gnp-10")
    foreign = erdos_renyi(10, 0.5, seed=5, name="foreign-10")
    u, v = next(
        (u, v) for u in graph.nodes() for v in graph.nodes() if u < v and not graph.has_edge(u, v)
    )
    horizon = 90
    sets = get_scheduler("phased-greedy").build(graph, seed=2).prefix(horizon)
    reference = HappinessTrace.from_schedule(sets, graph, horizon)
    built = []
    block = TraceStream.block

    def counted(self, start, width):
        built.append((start, width))
        return block(self, start, width)

    monkeypatch.setattr(TraceStream, "block", counted)
    dense = build_trace(
        get_scheduler("phased-greedy").build(graph, seed=2), graph, horizon, config=cfg(mode="dense"))
    assert dense.mode == "dense" and built == []
    assert dense.muls() == {p: reference.mul(p) for p in graph.nodes()}
    assert dense.legality_scan(foreign)[1] == {
        t: hits for t, hits in (
            (t, [(a, b) for a, b in foreign.edges() if a in happy and b in happy])
            for t, happy in enumerate(sets, start=1)
        ) if hits
    }
    assert dense.edge_collisions(u, v) == [
        t for t, happy in enumerate(sets, start=1) if u in happy and v in happy
    ]
    assert dense.all_gaps() == {p: reference.gaps(p) for p in graph.nodes()}
    assert [dense.happy_set(t) for t in (1, 45, horizon)] == [sets[0], sets[44], sets[-1]]
    assert built == [(1, horizon)]

    built.clear()
    streamed = StreamedTrace(get_scheduler("phased-greedy").build(graph, seed=2), graph, horizon, chunk=32)
    assert streamed.muls() == dense.muls()
    assert streamed.all_gaps() == dense.all_gaps()
    assert built == [(1, 32), (33, 32), (65, 26)] * 2


# ---------------------------------------------------------------------------
# shared-trace plumbing and the runner
# ---------------------------------------------------------------------------

def test_shared_streamed_trace_is_reused():
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    streamed = StreamedTrace(schedule, graph, 32, chunk=5)
    report = evaluate_schedule(schedule, graph, 32, trace=streamed)
    validation = validate_schedule(schedule, graph, 32, check_periodic=True, trace=streamed)
    assert report.summary() == evaluate_schedule(schedule, graph, 32, config=cfg(backend="sets")).summary()
    assert validation.ok


def test_shared_streamed_trace_horizon_mismatch_rejected():
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    streamed = StreamedTrace(schedule, graph, 32, chunk=5)
    with pytest.raises(ValueError, match="horizon"):
        evaluate_schedule(schedule, graph, 16, trace=streamed)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("backend", BACKENDS)
def test_run_scheduler_stream_matches_dense(backend):
    from repro.analysis.runner import run_scheduler

    graph = erdos_renyi(12, 0.3, seed=9, name="gnp-12")
    for name in ("degree-periodic", "phased-greedy"):
        scheduler = get_scheduler(name)
        dense = run_scheduler(
            scheduler, graph, horizon=80, seed=1, config=cfg(backend=backend, mode="dense"))
        stream = run_scheduler(
            scheduler, graph, horizon=80, seed=1, config=cfg(backend=backend, mode="stream", chunk=9))
        assert dense.horizon_mode == "dense" and stream.horizon_mode == "stream"
        assert stream.report.summary() == dense.report.summary(), name
        assert stream.validation.ok == dense.validation.ok
        assert stream.bound_satisfied == dense.bound_satisfied


class CyclicTwinScheduler:
    """A periodic scheduler whose schedules come out as their cyclic twins:
    one global period as a cyclic explicit schedule."""

    def __init__(self, inner):
        self.inner, self.info, self.name = inner, inner.info, inner.name

    def build(self, graph, seed=0):
        schedule = self.inner.build(graph, seed=seed)
        return ExplicitSchedule(
            graph, schedule.prefix(schedule.global_period()), cyclic=True, validate=False
        )

    def bound_function(self, graph):
        return self.inner.bound_function(graph)


def test_run_scheduler_cyclic_twin_matches_periodic_source():
    from repro.analysis.runner import run_scheduler

    graph = erdos_renyi(10, 0.3, seed=2, name="gnp-10")
    periodic = get_scheduler("degree-periodic")
    config = cfg(mode="stream", chunk=8)
    source = run_scheduler(periodic, graph, horizon=90, seed=1, config=config)
    twin = run_scheduler(CyclicTwinScheduler(periodic), graph, horizon=90, seed=1, config=config)
    assert type(twin.schedule).__name__ == "ExplicitSchedule"
    assert twin.horizon_mode == source.horizon_mode == "stream"
    assert twin.report.summary() == source.report.summary()
    assert report_tuples(twin.validation) == report_tuples(source.validation) == []
    assert twin.bound_satisfied and source.bound_satisfied


def test_run_scheduler_sets_backend_reports_sets_mode():
    from repro.analysis.runner import run_scheduler

    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    outcome = run_scheduler(
        get_scheduler("degree-periodic"), graph, horizon=16, config=cfg(backend="sets"))
    assert outcome.horizon_mode == "sets"


def test_default_chunk_is_sane():
    # the default chunk keeps a 60-node block well under the auto
    # threshold — streaming must never page in a dense-sized block
    assert dense_trace_bytes(60, DEFAULT_CHUNK) < AUTO_STREAM_BYTES // 8
