"""The closed-form periodic summary: :func:`repro.core.trace.periodic_summary`.

A streamed trace of a :class:`~repro.core.schedule.PeriodicSchedule`
answers every summary and legality query from its ``(period, phase)`` table
in O(rows + edges) and never builds a chunk.  The matrix engine it skips
stays its check: every :class:`~repro.core.trace.TraceSummary` field,
``legality_scan`` and the validation reports must equal :func:`fold` of the
dense matrix, for every registered periodic scheduler, for illegal tables
with collisions, on foreign edge sets and non-edges, and under ``fail_fast``
(cut at the end of the chunk holding the first collision).

A dense trace is the one-chunk stream, so it reads the same closed form:
its summary and legality queries build no block either, and its one block
of the whole horizon is built by the first positions query and kept.

Past the horizons a dense matrix or the frozenset reference can reach
(10⁸ and 10¹² holidays, in both horizon modes) the cyclic closed form
checks it: the cyclic twin of each schedule — one global period as a cyclic
:class:`~repro.core.schedule.ExplicitSchedule` — is summarised by
:func:`~repro.core.trace.cyclic_summary`, which folds the period and doubles
it out with :meth:`TraceSummary.merge` of shifted copies.  The two
derivations share no logic.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.config import EngineConfig
from repro.core.metrics import build_trace
from repro.core.problem import ConflictGraph
from repro.core.schedule import ExplicitSchedule, PeriodicSchedule, SlotAssignment
from repro.core.trace import (
    StreamedTrace,
    TraceMatrix,
    TraceStream,
    TraceSummary,
    fold,
    periodic_summary,
)
from repro.core.validation import check_independent_sets, validate_schedule
from repro.graphs.families import complete_bipartite, path, star
from repro.graphs.random_graphs import erdos_renyi
from repro.graphs.society import random_society

PERIODIC = [name for name in available_schedulers() if get_scheduler(name).info.periodic]

GRAPHS = {
    "gnp-12": erdos_renyi(12, 0.3, seed=6, name="gnp-12"),
    "star-6": star(6),
    "k-3-4": complete_bipartite(3, 4),
    "society": random_society(10, mean_children=2.0, marriage_fraction=0.8, seed=3).conflict_graph(),
}

CHUNK = 16


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


def report_tuples(report):
    return [(v.kind, v.node, v.holiday, v.detail) for v in report.violations]


def horizons(schedule: PeriodicSchedule):
    """1, one below the smallest period, each chunk boundary ±1, and a
    horizon of many chunks that no period divides."""
    smallest = min(schedule.periods().values())
    boundaries = (CHUNK * k + d for k in (1, 2, 3) for d in (-1, 0, 1))
    return sorted({1, max(1, smallest - 1), *boundaries, 2 ** 12 + 37})


def edge_rows(trace, graph):
    return [(trace.row_index(u), trace.row_index(v)) for u, v in graph.edges()]


def chunked_fold(matrix: np.ndarray, chunk: int, rows, fail_fast: bool) -> TraceSummary:
    """:func:`fold` of the dense matrix ``chunk`` holidays at a time, merged
    in order — what a streamed scan of chunks that wide computes."""
    summary = None
    for lo in range(0, matrix.shape[1], chunk):
        part = fold(matrix[:, lo:lo + chunk], lo + 1, rows)
        summary = part if summary is None else summary.merge(part)
        if fail_fast and part.collisions:
            break
    return summary


def by_holiday(summary: TraceSummary, edges):
    """A summary's collisions in ``legality_scan`` form."""
    collisions = {}
    for k, edge in enumerate(edges):
        for t in summary.collisions.get(k, ()):
            collisions.setdefault(t, []).append(edge)
    return {}, collisions


def random_table(graph: ConflictGraph, rng: random.Random) -> PeriodicSchedule:
    """A periodic table that ignores the conflicts, so edges collide."""
    table = {p: SlotAssignment(rng.randint(1, 9), rng.randrange(9)) for p in graph.nodes()}
    return PeriodicSchedule(graph, table, check_conflicts=False, name="random")


# ---------------------------------------------------------------------------
# closed form ≡ fold of the dense matrix
# ---------------------------------------------------------------------------

def test_every_periodic_scheduler_is_covered():
    assert len(PERIODIC) >= 8


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("name", PERIODIC)
def test_registered_schedulers_match_dense_fold(name, graph_name):
    graph = GRAPHS[graph_name]
    schedule = get_scheduler(name).build(graph, seed=5)
    for horizon in horizons(schedule):
        dense = TraceMatrix.from_schedule(schedule, graph, horizon)
        streamed = StreamedTrace(schedule, graph, horizon, chunk=CHUNK)
        assert state(streamed.summary()) == state(dense.summary()), horizon
        assert streamed.muls() == dense.muls(), horizon
        assert streamed.legality_scan(graph) == dense.legality_scan(graph), horizon
        assert streamed.legality_scan(graph, fail_fast=True) == dense.legality_scan(graph), horizon
        bound = get_scheduler(name).bound_function(graph)
        reports = [
            validate_schedule(schedule, graph, horizon, bound=bound, check_periodic=True, trace=trace)
            for trace in (streamed, dense)
        ]
        assert report_tuples(reports[0]) == report_tuples(reports[1]), horizon


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("seed", range(4))
def test_random_tables_with_collisions_match_dense_fold(seed):
    """Illegal tables: collision lists, fail-fast cuts, foreign edge sets and
    non-edges all equal the matrix engine's answers."""
    rng = random.Random(seed)
    graph = GRAPHS["gnp-12"]
    foreign = erdos_renyi(12, 0.4, seed=100 + seed, name="foreign")
    non_edges = [
        (u, v) for u, v in itertools.combinations(graph.nodes(), 2)
        if not graph.has_edge(u, v)
    ][::4]
    collided = 0
    for _ in range(4):
        schedule = random_table(graph, rng)
        for horizon in (1, 8, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3, 2 ** 12 + 37):
            dense = TraceMatrix.from_schedule(schedule, graph, horizon)
            streamed = StreamedTrace(schedule, graph, horizon, chunk=CHUNK)
            collided += bool(streamed.summary().collisions)
            assert state(streamed.summary()) == state(dense.summary())
            for g in (graph, foreign):
                rows = edge_rows(dense, g)
                assert streamed.legality_scan(g) == dense.legality_scan(g)
                cut = chunked_fold(dense._matrix, CHUNK, rows, fail_fast=True)
                assert state(streamed._fold_pass(rows, fail_fast=True)) == state(cut)
                assert streamed.legality_scan(g, fail_fast=True) == by_holiday(cut, g.edges())
            for fail_fast in (False, True):
                reports = [
                    check_independent_sets(schedule, graph, horizon, trace=trace, fail_fast=fail_fast)
                    for trace in (streamed, dense)
                ]
                assert report_tuples(reports[0]) == report_tuples(reports[1])
            for u, v in non_edges:
                assert streamed.edge_collisions(u, v) == dense.edge_collisions(u, v)
    assert collided  # the draw really collides


@pytest.mark.usefixtures("fold_arm")
@pytest.mark.parametrize("first", (7, 8, 9), ids=("before", "on", "after"))
def test_fail_fast_cuts_at_the_chunk_holding_the_first_collision(first):
    """Chunks of 8: the first collision falls before, on and after the
    boundary at holiday 8, and a second edge collides one holiday later."""
    graph = path(4)
    table = {
        0: SlotAssignment(16, first), 1: SlotAssignment(16, first),
        2: SlotAssignment(16, first + 1), 3: SlotAssignment(16, first + 1),
    }
    schedule = PeriodicSchedule(graph, table, check_conflicts=False)
    streamed = StreamedTrace(schedule, graph, 64, chunk=8)
    dense = TraceMatrix.from_schedule(schedule, graph, 64)
    rows = edge_rows(dense, graph)
    cut = chunked_fold(dense._matrix, 8, rows, fail_fast=True)
    assert state(streamed._fold_pass(rows, fail_fast=True)) == state(cut)
    expected = {
        7: {7: [(0, 1)], 8: [(2, 3)]},
        8: {8: [(0, 1)]},
        9: {9: [(0, 1)], 10: [(2, 3)]},
    }[first]
    assert streamed.legality_scan(graph, fail_fast=True) == ({}, expected)
    assert streamed.legality_scan(graph)[1][first + 16] == [(0, 1)]  # no cut without fail_fast
    report = check_independent_sets(schedule, graph, 64, trace=streamed, fail_fast=True)
    reference = check_independent_sets(
        schedule, graph, 64, fail_fast=True, config=EngineConfig(backend="sets"))
    assert [(v.kind, v.holiday) for v in report.violations] == \
        [(v.kind, v.holiday) for v in reference.violations] == [("not-independent", first)]


def count_blocks(monkeypatch):
    """Record ``(start, width)`` of every block a :class:`TraceStream` builds."""
    built = []
    block = TraceStream.block

    def counted(self, start, width):
        built.append((start, width))
        return block(self, start, width)

    monkeypatch.setattr(TraceStream, "block", counted)
    return built


def ask_summary_queries(trace, schedule, graph, horizon, non_edge):
    """Every summary and legality query, on the trace's own edges, a foreign
    edge set, under ``fail_fast`` and for a non-edge pair."""
    foreign = erdos_renyi(12, 0.4, seed=1, name="foreign")
    trace.muls()
    trace.observed_periods()
    trace.happiness_rates()
    trace.distinct_appearance_diffs(non_edge[0])
    trace.conflicting_holidays()
    trace.legality_scan(foreign)
    trace.legality_scan(graph, fail_fast=True)
    trace.edge_collisions(*non_edge)
    validate_schedule(schedule, graph, horizon, check_periodic=True, trace=trace)


def first_non_edge(graph):
    return next(
        (u, v) for u, v in itertools.combinations(graph.nodes(), 2) if not graph.has_edge(u, v)
    )


def test_summary_queries_build_no_block(monkeypatch):
    """Every summary and legality query reads the closed form; positions
    queries still stream the periodic blocks."""
    graph = GRAPHS["gnp-12"]
    schedule = random_table(graph, random.Random(7))
    horizon = 10 * CHUNK + 5
    dense = TraceMatrix.from_schedule(schedule, graph, horizon)
    built = count_blocks(monkeypatch)
    streamed = StreamedTrace(schedule, graph, horizon, chunk=CHUNK)
    u, v = first_non_edge(graph)
    ask_summary_queries(streamed, schedule, graph, horizon, (u, v))
    assert built == []
    assert streamed.appearances(u) == dense.appearances(u)
    assert [start for start, _ in built] == list(range(1, horizon + 1, CHUNK))


def test_dense_summary_queries_build_no_block(monkeypatch):
    """A dense trace is the one-chunk stream: its summary and legality
    queries read the closed form too, the first positions query builds the
    one block of the whole horizon, and later ones reuse it."""
    graph = GRAPHS["gnp-12"]
    schedule = random_table(graph, random.Random(7))
    horizon = 10 * CHUNK + 5
    matrix = TraceMatrix.from_schedule(schedule, graph, horizon)
    built = count_blocks(monkeypatch)
    dense = build_trace(schedule, graph, horizon, config=EngineConfig(horizon_mode="dense"))
    assert dense.mode == "dense"
    u, v = first_non_edge(graph)
    ask_summary_queries(dense, schedule, graph, horizon, (u, v))
    assert built == []
    assert state(dense.summary()) == state(matrix.summary())
    assert dense.appearances(u) == matrix.appearances(u)
    assert built == [(1, horizon)]
    assert dense.all_gaps() == matrix.all_gaps()
    assert built == [(1, horizon)]


# ---------------------------------------------------------------------------
# the oracle past the reference horizon: 10⁸ and 10¹² holidays
# ---------------------------------------------------------------------------

def cyclic_twin(schedule: PeriodicSchedule) -> ExplicitSchedule:
    """One global period of ``schedule`` as a cyclic explicit schedule: the
    same trace, summarised by :func:`~repro.core.trace.cyclic_summary`."""
    return ExplicitSchedule(
        schedule.graph, schedule.prefix(schedule.global_period()), cyclic=True, validate=False
    )


def wide_period_schedule() -> PeriodicSchedule:
    """A legal table whose global period, lcm(2, 255, 256) = 65280, sits
    just under 2¹⁶."""
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3+1")
    graph.add_node(3)
    table = {
        0: SlotAssignment(2, 0), 1: SlotAssignment(2, 1),
        2: SlotAssignment(256, 6), 3: SlotAssignment(255, 7),
    }
    return PeriodicSchedule(graph, table, name="wide")


#: every registered periodic scheduler (on the graph that keeps its global
#: period small), plus a table whose global period is just under 2¹⁶
ORACLE_CASES = {
    **{
        name: (lambda name=name: get_scheduler(name).build(GRAPHS["gnp-12"], seed=0))
        for name in PERIODIC
    },
    "wide-period": wide_period_schedule,
}


@pytest.mark.parametrize("mode", ("stream", "dense"))
@pytest.mark.parametrize("horizon", (10 ** 8, 10 ** 12), ids=("1e8", "1e12"))
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_cyclic_twin_matches_closed_form_far_past_the_reference(case, horizon, mode):
    """In either horizon mode: a dense trace this long is one chunk of 10¹²
    holidays, whose summary must never build that chunk."""
    schedule = ORACLE_CASES[case]()
    graph = schedule.graph
    assert schedule.global_period() <= 2 ** 16
    twin = build_trace(cyclic_twin(schedule), graph, horizon, config=EngineConfig(horizon_mode=mode))
    assert twin.mode == mode
    closed = periodic_summary(schedule, graph.nodes(), horizon, edge_rows(twin, graph))
    assert state(twin.summary()) == state(closed)
    assert twin.legality_scan(graph) == ({}, {})
    assert validate_schedule(twin.schedule, graph, horizon, check_periodic=True, trace=twin).ok
