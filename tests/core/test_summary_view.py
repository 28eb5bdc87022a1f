"""Summary-only views: :meth:`repro.core.trace.TraceView.summary_view`.

A summary view is a plain :class:`~repro.core.trace.TraceView` holding a
trace's scanned summary and mul array and nothing else — the form the
service's trace cache keeps.  These tests pin its contract: every summary
query answers exactly as the full trace does (every registered scheduler,
dense and streamed, plus an illegal raw sequence with collisions and an
unknown node); every query that needs the trace's blocks raises one
:class:`ValueError` naming the summary-only view; dropping the full trace
frees its matrix, stream and schedule; and :meth:`~TraceView.nbytes`
is what the view retains, which does not grow with the horizon.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.problem import ConflictGraph
from repro.core.trace import StreamedTrace, TraceMatrix, TraceView
from repro.graphs.random_graphs import erdos_renyi

GRAPH = erdos_renyi(12, 0.3, seed=9, name="gnp-12")
HORIZON = 97
CHUNK = 16  # seven chunks, the last one partial


def build(source, graph, mode, horizon=HORIZON, chunk=CHUNK):
    if mode == "dense":
        return TraceMatrix.from_schedule(source, graph, horizon)
    return StreamedTrace(source, graph, horizon, chunk=chunk)


def summary_answers(view):
    """Every summary query the service's endpoints (and the validator) ask."""
    graph, nodes = view.graph, view.graph.nodes()
    return {
        "count": {p: view.count(p) for p in nodes},
        "mul": {p: view.mul(p) for p in nodes},
        "muls": list(view.muls().items()),
        "observed_period": {p: view.observed_period(p) for p in nodes},
        "observed_periods": list(view.observed_periods().items()),
        "happiness_rate": {p: view.happiness_rate(p) for p in nodes},
        "happiness_rates": list(view.happiness_rates().items()),
        "distinct_appearance_diffs": {p: view.distinct_appearance_diffs(p) for p in nodes},
        "unknown": list(view.unknown),
        "legality_scan": view.legality_scan(graph),
        "conflicting_holidays": view.conflicting_holidays(),
        "edge_collisions": {
            pair: view.edge_collisions(*pair)
            for u, v in graph.edges() for pair in ((u, v), (v, u))
        },
    }


@pytest.mark.parametrize("mode", ["dense", "stream"])
@pytest.mark.parametrize("algorithm", available_schedulers())
def test_every_scheduler_answers_like_the_full_trace(algorithm, mode):
    schedule = get_scheduler(algorithm).build(GRAPH, seed=2)
    full = build(schedule, GRAPH, mode)
    view = build(schedule, GRAPH, mode).summary_view()
    assert type(view) is TraceView
    assert (view.graph, view.horizon, view.mode) == (GRAPH, HORIZON, full.mode)
    assert summary_answers(view) == summary_answers(full)


# -- an illegal raw sequence: collisions and an unknown node --------------------

GHOST = "ghost"  # scheduled, but not a node of the graph
SMALL = ConflictGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)], nodes=[5], name="small-6")
#: edges on the same nodes the trace was not built for
FOREIGN = ConflictGraph(edges=[(0, 2), (4, 5)], nodes=[1, 3], name="foreign-6")


def illegal_sets():
    rng = random.Random(2016)
    sets = []
    for t in range(1, HORIZON + 1):
        happy = {p for p in (0, 1, 2, 3, 4) if rng.random() < 0.4}
        if t in (9, 60):
            happy.add(GHOST)
        sets.append(frozenset(happy))
    return sets


SETS = illegal_sets()


@pytest.mark.parametrize("mode", ["dense", "stream"])
def test_illegal_sequence_answers_like_the_full_trace(mode):
    full = build(SETS, SMALL, mode)
    view = build(SETS, SMALL, mode).summary_view()
    answers = summary_answers(view)
    assert answers == summary_answers(full)
    # the draw is illegal in every way the summary records
    assert answers["unknown"] == [(9, GHOST), (60, GHOST)]
    assert answers["conflicting_holidays"]
    assert any(len(diffs) > 1 for diffs in answers["distinct_appearance_diffs"].values())


NEEDS_BLOCKS = {
    "appearances": lambda v: v.appearances(0),
    "appearance_diffs": lambda v: v.appearance_diffs(0),
    "gaps": lambda v: v.gaps(0),
    "all_gaps": lambda v: v.all_gaps(),
    "happy_set": lambda v: v.happy_set(1),
    "legality_scan_foreign": lambda v: v.legality_scan(FOREIGN),
    "legality_scan_fail_fast": lambda v: v.legality_scan(SMALL, fail_fast=True),
    "edge_collisions_non_edge": lambda v: v.edge_collisions(0, 2),
}


@pytest.mark.parametrize("query", sorted(NEEDS_BLOCKS))
@pytest.mark.parametrize("mode", ["dense", "stream"])
def test_queries_needing_blocks_raise_one_clear_error(mode, query):
    view = build(SETS, SMALL, mode).summary_view()
    with pytest.raises(ValueError, match="summary-only view"):
        NEEDS_BLOCKS[query](view)


# -- what a summary view keeps alive --------------------------------------------

@pytest.mark.parametrize("mode", ["dense", "stream"])
@pytest.mark.parametrize("algorithm", ["degree-periodic", "phased-greedy"])
def test_view_keeps_no_matrix_stream_or_schedule_alive(algorithm, mode):
    schedule = get_scheduler(algorithm).build(GRAPH, seed=2)
    full = build(schedule, GRAPH, mode)
    data = full._matrix if mode == "dense" else full._source
    gone = [weakref.ref(obj) for obj in (schedule, full, data)]
    view = full.summary_view()
    del schedule, full, data
    gc.collect()
    assert [ref() for ref in gone] == [None, None, None]
    assert view.muls()  # the view still answers


@pytest.mark.parametrize("algorithm", ["degree-periodic", "color-periodic-omega"])
def test_periodic_stream_view_bytes_do_not_grow_with_the_horizon(algorithm):
    """A streamed periodic summary is closed form: O(n + m) bytes whatever
    the horizon (legal schedules have no collisions to keep)."""
    schedule = get_scheduler(algorithm).build(GRAPH, seed=2)
    sizes = {
        StreamedTrace(schedule, GRAPH, horizon, chunk=CHUNK).summary_view().nbytes()
        for horizon in (HORIZON, 10 ** 6, 10 ** 12)
    }
    assert len(sizes) == 1


@pytest.mark.parametrize("mode", ["dense", "stream"])
@pytest.mark.parametrize("algorithm", ["degree-periodic", "phased-greedy", "first-come-first-grab"])
def test_nbytes_is_what_the_view_retains(algorithm, mode):
    """``nbytes`` against tracemalloc: the bytes still allocated once the
    full traces are gone, per view.  The aperiodic dense views keep a flat
    fold's ``diffs`` — views of one block-wide temporary, which must be
    counted once, not once per row."""
    graph = erdos_renyi(40, 0.2, seed=3, name="gnp-40")
    schedule = get_scheduler(algorithm).build(graph, seed=1)

    def summary_view():
        return build(schedule, graph, mode, horizon=400, chunk=128).summary_view()

    summary_view()  # warm every cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # enough views that numpy's small-buffer cache (tracked while it
        # holds freed buffers) is noise
        views = [summary_view() for _ in range(20)]
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / len(views)
    finally:
        tracemalloc.stop()
    assert 0.9 * retained <= views[0].nbytes() <= 1.1 * retained
