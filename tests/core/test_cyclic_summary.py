"""The cyclic closed form: :func:`repro.core.trace.cyclic_summary`.

A streamed trace of a cyclic :class:`~repro.core.schedule.ExplicitSchedule`
answers every summary and legality query from its one folded cycle, doubled
out with :meth:`~repro.core.trace.TraceSummary.merge` of shifted copies, and
never builds a chunk.  The serial chunk fold it skips stays its check: every
:class:`~repro.core.trace.TraceSummary` field must equal the fold of the
stream's chunks, at every horizon up to four cycles and at ``C·2ᵏ ± 1``, on
the graph's own edges, a foreign edge set and a non-edge pair, for the
cyclic twin of every registered periodic scheduler and for illegal cycles
with collisions and a node the graph lacks.  Under ``fail_fast`` the cut
summary and the validation report equal the chunk scan's, at chunk widths
that do and do not divide the cycle, and the first violation equals the
frozenset reference's.  The doubling's two steps are checked on their own
(a shifted fold is the fold at a later start; a merged shifted copy is the
fold of two cycles), and so are the boundary cases: a one-holiday cycle,
chunks one holiday wide and wider than the horizon, a foreign-graph scan of
a periodic table against its cyclic twin, a finite explicit schedule,
which has no closed form, and a cycle at least as long as the horizon,
which is read as its prefix.  A dense trace is the one-chunk stream and
takes the same closed form: its summaries build no block either.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.config import EngineConfig
from repro.core.metrics import HappinessTrace, build_trace
from repro.core.problem import ConflictGraph
from repro.core.schedule import ExplicitSchedule, PeriodicSchedule, SlotAssignment
from repro.core.trace import StreamedTrace, TraceMatrix, TraceStream, TraceSummary, TraceView, fold
from repro.core.validation import check_independent_sets, validate_schedule
from repro.graphs.random_graphs import erdos_renyi

PERIODIC = [name for name in available_schedulers() if get_scheduler(name).info.periodic]

GRAPH = erdos_renyi(12, 0.3, seed=6, name="gnp-12")
#: edges on the same nodes the trace was not built for
FOREIGN = erdos_renyi(12, 0.4, seed=106, name="foreign")
NON_EDGE = next(
    (u, v) for u, v in itertools.combinations(GRAPH.nodes(), 2) if not GRAPH.has_edge(u, v)
)
GHOST = "ghost"  # scheduled, but not a node of the graph

#: chunk width of the plain summary comparisons (divides no cycle below)
CHUNK = 13


def state(summary: TraceSummary):
    """A summary in comparable form (distinct diffs normalised)."""
    rows = range(len(summary.count))
    return (
        summary.count.tolist(), summary.first.tolist(), summary.last.tolist(),
        summary.dmax.tolist(), summary.dmin.tolist(),
        [summary.distinct(row) for row in rows],
        {k: list(v) for k, v in sorted(summary.collisions.items())},
        list(summary.unknown),
    )


class ChunkScan(StreamedTrace):
    """A streamed trace without the closed form: every summary is the serial
    fold of its chunks."""

    def _fold_pass(self, edge_rows, fail_fast=False):
        return TraceView._fold_pass(self, edge_rows, fail_fast)


def cyclic_twin(name: str) -> ExplicitSchedule:
    """One global period of a registered periodic scheduler's schedule as a
    cyclic explicit schedule."""
    schedule = get_scheduler(name).build(GRAPH, seed=5)
    return ExplicitSchedule(
        GRAPH, schedule.prefix(schedule.global_period()), cyclic=True, validate=False
    )


def illegal_cycle(seed: int) -> ExplicitSchedule:
    """A cycle of random subsets: colliding edges, and a node the graph
    lacks on some holidays."""
    rng = random.Random(seed)
    length = rng.choice((5, 8, 11))
    cycle = [
        [p for p in GRAPH.nodes() if rng.random() < 0.3] + ([GHOST] if rng.random() < 0.3 else [])
        for _ in range(length)
    ]
    cycle[rng.randrange(length)].append(GHOST)
    return ExplicitSchedule(GRAPH, cycle, cyclic=True, validate=False, name=f"illegal-{seed}")


def horizons(length: int):
    """Every horizon up to four cycles and one more, and ``C·2ᵏ ± 1``."""
    doubled = (length * 2 ** k + d for k in range(1, 6) for d in (-1, 1))
    return sorted({*range(1, 4 * length + 2), *doubled})


def edge_sets(trace: StreamedTrace):
    """The graph's own edge rows, a foreign edge set's and a non-edge pair's."""
    return {
        "own": trace._edge_rows(GRAPH.edges()),
        "foreign": trace._edge_rows(FOREIGN.edges()),
        "non-edge": trace._edge_rows([NON_EDGE]),
    }


def assert_matches_chunk_fold(schedule: ExplicitSchedule) -> None:
    for horizon in horizons(len(schedule)):
        trace = StreamedTrace(schedule, GRAPH, horizon, chunk=CHUNK)
        scan = ChunkScan(schedule, GRAPH, horizon, chunk=CHUNK)
        for label, rows in edge_sets(trace).items():
            assert state(trace._fold_pass(rows)) == state(scan._fold_pass(rows)), (label, horizon)


# ---------------------------------------------------------------------------
# closed form ≡ serial chunk fold
# ---------------------------------------------------------------------------

def test_every_periodic_scheduler_is_covered():
    assert len(PERIODIC) >= 8


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("name", PERIODIC)
def test_cyclic_twins_match_chunk_fold(name):
    assert_matches_chunk_fold(cyclic_twin(name))


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("seed", range(4))
def test_illegal_cycles_match_chunk_fold(seed):
    schedule = illegal_cycle(seed)
    trace = StreamedTrace(schedule, GRAPH, 4 * len(schedule))
    assert trace.summary().collisions and trace.unknown  # the draw really is illegal
    assert_matches_chunk_fold(schedule)


def fail_fast_widths(length: int):
    """Chunk widths that divide the cycle length and ones that do not."""
    divisors = {w for w in range(1, length + 1) if length % w == 0}
    return sorted(divisors | {3, 7, length + 1, 2 * length})


def violation_tuples(report):
    return [(v.kind, v.node, v.holiday) for v in report.violations]


@pytest.mark.parametrize(
    "case", [f"twin:{name}" for name in PERIODIC] + [f"illegal:{seed}" for seed in range(4)]
)
def test_fail_fast_cut_matches_chunk_scan(case):
    """The cut summary and the fail-fast report equal the chunk scan's, and
    the first violation equals the frozenset reference's."""
    kind, key = case.split(":")
    schedule = cyclic_twin(key) if kind == "twin" else illegal_cycle(int(key))
    length = len(schedule)
    cut_horizons = sorted({1, max(1, length - 1), length, length + 1, 3 * length + 2, 9 * length + 5})
    for width in fail_fast_widths(length):
        for horizon in cut_horizons:
            trace = StreamedTrace(schedule, GRAPH, horizon, chunk=width)
            scan = ChunkScan(schedule, GRAPH, horizon, chunk=width)
            for label, rows in edge_sets(trace).items():
                assert state(trace._fold_pass(rows, fail_fast=True)) == \
                    state(scan._fold_pass(rows, fail_fast=True)), (label, width, horizon)
            for graph in (GRAPH, FOREIGN):
                reports = [
                    check_independent_sets(schedule, graph, horizon, trace=t, fail_fast=True)
                    for t in (trace, scan)
                ]
                reference = check_independent_sets(
                    schedule, graph, horizon, fail_fast=True, config=EngineConfig(backend="sets"))
                assert violation_tuples(reports[0]) == violation_tuples(reports[1]) == \
                    violation_tuples(reference), (graph.name, width, horizon)


# ---------------------------------------------------------------------------
# no chunk is built
# ---------------------------------------------------------------------------

def test_cyclic_summary_queries_build_no_chunk(monkeypatch):
    """Every summary and legality query reads the closed form; positions
    queries still stream the cyclic blocks."""

    def no_chunk(self, start, width):
        raise AssertionError("a cyclic trace built a chunk")

    monkeypatch.setattr(TraceStream, "block", no_chunk)
    schedule = cyclic_twin("degree-periodic")
    trace = StreamedTrace(schedule, GRAPH, 200, chunk=8)
    trace.muls()
    trace.legality_scan(GRAPH)
    trace.legality_scan(FOREIGN)
    trace.legality_scan(GRAPH, fail_fast=True)
    trace.edge_collisions(*NON_EDGE)
    validate_schedule(schedule, GRAPH, 200, check_periodic=True, trace=trace)
    with pytest.raises(AssertionError, match="built a chunk"):
        trace.appearances(NON_EDGE[0])


def test_dense_cyclic_summary_queries_build_no_block(monkeypatch):
    """A dense trace of a cyclic schedule reads the same closed form: no
    summary or legality query builds its block, the first positions query
    builds the one block ``(1, horizon)``, and later ones reuse it."""
    schedule = cyclic_twin("degree-periodic")
    horizon = 200
    matrix = TraceMatrix.from_schedule(schedule, GRAPH, horizon)
    built = []
    block = TraceStream.block

    def counted(self, start, width):
        built.append((start, width))
        return block(self, start, width)

    monkeypatch.setattr(TraceStream, "block", counted)
    trace = build_trace(schedule, GRAPH, horizon, config=EngineConfig(horizon_mode="dense"))
    assert trace.mode == "dense" and trace.chunk == horizon
    trace.muls()
    trace.observed_periods()
    trace.happiness_rates()
    trace.distinct_appearance_diffs(NON_EDGE[0])
    trace.conflicting_holidays()
    trace.legality_scan(FOREIGN)
    trace.legality_scan(GRAPH, fail_fast=True)
    trace.edge_collisions(*NON_EDGE)
    validate_schedule(schedule, GRAPH, horizon, check_periodic=True, trace=trace)
    assert built == []
    assert state(trace.summary()) == state(matrix.summary())
    assert trace.appearances(NON_EDGE[0]) == matrix.appearances(NON_EDGE[0])
    assert built == [(1, horizon)]
    assert trace.all_gaps() == matrix.all_gaps()
    assert built == [(1, horizon)]


# ---------------------------------------------------------------------------
# the doubling's two steps: shift and merge
# ---------------------------------------------------------------------------

def cycle_fold(seed: int):
    """One illegal cycle's block, edge rows, unknown pairs and fold."""
    cycle = TraceStream(illegal_cycle(seed), GRAPH, 1)._cycle_base()
    rows = cycle._edge_rows(GRAPH.edges())
    return cycle, rows, fold(cycle._matrix, 1, rows, cycle._unknown)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("offset", [0, 1, 13, 10 ** 12])
def test_shifted_equals_the_fold_at_a_later_start(offset):
    cycle, rows, base = cycle_fold(1)
    assert base.collisions and base.unknown  # every field has something to move
    later = fold(cycle._matrix, 1 + offset, rows, cycle._unknown)
    assert state(base.shifted(offset)) == state(later)


@pytest.mark.usefixtures("fold_arm")
def test_merged_shifted_copy_is_the_fold_of_two_cycles():
    """``merge`` of a shifted copy is the fold of the doubled block, and
    writes through to neither summary it read."""
    cycle, rows, base = cycle_fold(2)
    length = cycle.horizon
    before = state(base)
    copy = base.shifted(length)
    doubled = base.merge(copy)
    twice = cycle._unknown + [(t + length, p) for t, p in cycle._unknown]
    assert state(doubled) == state(fold(np.tile(cycle._matrix, 2), 1, rows, twice))
    doubled.merge(doubled.shifted(2 * length))
    assert state(base) == before
    assert state(copy) == state(fold(cycle._matrix, 1 + length, rows, cycle._unknown))


# ---------------------------------------------------------------------------
# boundary conditions: the shortest cycle, extreme chunk widths, other forms
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("holiday", ["edge-and-ghost", "empty"])
def test_one_holiday_cycle_matches_chunk_fold(holiday):
    """C = 1: every horizon is whole cycles, doubled out from one column."""
    u, v = GRAPH.edges()[0]
    happy = [u, v, GHOST] if holiday == "edge-and-ghost" else []
    schedule = ExplicitSchedule(GRAPH, [happy], cyclic=True, validate=False, name=holiday)
    assert_matches_chunk_fold(schedule)


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("chunk", [1, 200])
def test_extreme_chunk_widths_match_the_dense_matrix(chunk):
    """One-holiday chunks and one chunk wider than the horizon: the periodic
    closed form, the cyclic one and the twin's chunk fold all equal the
    dense matrix's fold."""
    horizon = 40
    schedule = get_scheduler("degree-periodic").build(GRAPH, seed=5)
    twin = cyclic_twin("degree-periodic")
    dense = TraceMatrix.from_schedule(schedule, GRAPH, horizon)
    traces = {
        "periodic": StreamedTrace(schedule, GRAPH, horizon, chunk=chunk),
        "cyclic": StreamedTrace(twin, GRAPH, horizon, chunk=chunk),
        "chunk scan": ChunkScan(twin, GRAPH, horizon, chunk=chunk),
    }
    for form, trace in traces.items():
        for label, rows in edge_sets(trace).items():
            assert state(trace._fold_pass(rows)) == state(dense._fold_pass(rows)), (form, label)


@pytest.mark.parametrize("fail_fast", (False, True))
def test_foreign_graph_legality_scan_agrees_across_forms(fail_fast):
    """A periodic table, its cyclic twin and the twin's chunk scan flag the
    same collisions on an edge the trace graph lacks, cut at the same chunk
    under ``fail_fast``."""
    base = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = PeriodicSchedule(
        base, {0: SlotAssignment(2, 1), 1: SlotAssignment(4, 0), 2: SlotAssignment(2, 1)}
    )
    twin = ExplicitSchedule(base, schedule.prefix(schedule.global_period()), cyclic=True, validate=False)
    cross = ConflictGraph.from_edges([(0, 2)], name="p2-cross")
    scans = [
        trace.legality_scan(cross, fail_fast=fail_fast)
        for trace in (
            StreamedTrace(schedule, base, 64, chunk=7),
            StreamedTrace(twin, base, 64, chunk=7),
            ChunkScan(twin, base, 64, chunk=7),
        )
    ]
    assert scans[0] == scans[1] == scans[2]
    unknown, collisions = scans[0]
    assert unknown == {}
    # 0 and 2 share every odd holiday; fail_fast stops at the first chunk's end
    assert sorted(collisions) == list(range(1, 8 if fail_fast else 64, 2))


def test_finite_explicit_schedule_takes_the_chunk_fold():
    """A non-cyclic explicit schedule has no closed form: it folds its
    chunks to the dense matrix's summary, and a prefix shorter than the
    horizon fails at the scan."""
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    sets = [[t % 3] if t % 5 else [] for t in range(70)]
    schedule = ExplicitSchedule(graph, sets, cyclic=False)
    trace = StreamedTrace(schedule, graph, 70, chunk=6)
    assert trace._source._kind == "sets"
    assert state(trace.summary()) == state(TraceMatrix.from_schedule(schedule, graph, 70).summary())
    short = StreamedTrace(ExplicitSchedule(graph, sets[:10], cyclic=False), graph, 70, chunk=6)
    with pytest.raises(IndexError):
        short.summary()


@pytest.mark.parametrize("mode", ["dense", "stream"])
@pytest.mark.parametrize("shortfall", [1, 0], ids=["horizon C-1", "horizon C"])
def test_cycle_as_long_as_the_horizon_is_read_as_a_prefix(monkeypatch, mode, shortfall):
    """A cycle of at least ``horizon`` holidays takes the prefix path in
    both modes: no trace materialises (or folds) more than ``horizon``
    columns of it, and every query equals the frozenset reference."""
    schedule = illegal_cycle(2)
    horizon = len(schedule) - shortfall

    def no_cycle(self):
        raise AssertionError("a prefix-length trace materialised the whole cycle")

    monkeypatch.setattr(TraceStream, "_cycle_base", no_cycle)
    trace = build_trace(schedule, GRAPH, horizon, config=EngineConfig(horizon_mode=mode, chunk=3))
    assert trace._source._kind == "sets"
    reference = HappinessTrace.from_schedule(schedule, GRAPH, horizon)
    assert trace.muls() == {p: reference.mul(p) for p in GRAPH.nodes()}
    assert trace.observed_periods() == {p: reference.observed_period(p) for p in GRAPH.nodes()}
    assert trace.all_gaps() == {p: reference.gaps(p) for p in GRAPH.nodes()}
    for graph in (GRAPH, FOREIGN):
        for fail_fast in (False, True):
            report = check_independent_sets(
                schedule, graph, horizon, trace=trace, fail_fast=fail_fast)
            expected = check_independent_sets(
                schedule, graph, horizon, fail_fast=fail_fast, config=EngineConfig(backend="sets"))
            assert violation_tuples(report) == violation_tuples(expected), (graph.name, fail_fast)


def test_short_finite_explicit_schedule_fails_at_the_first_query():
    """In either mode a finite explicit schedule shorter than the horizon
    builds its trace and fails at the first query that reads past its end;
    a raw sequence that short fails at construction."""
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    sets = [[t % 3] for t in range(10)]
    for mode in ("dense", "stream"):
        config = EngineConfig(horizon_mode=mode, chunk=6)
        trace = build_trace(ExplicitSchedule(graph, sets, cyclic=False), graph, 70, config=config)
        with pytest.raises(IndexError, match="beyond the recorded horizon"):
            trace.muls()
        with pytest.raises(ValueError, match="only 10 holidays"):
            build_trace(sets, graph, 70, config=config)
