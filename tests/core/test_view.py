"""One query view for every trace kind.

:class:`repro.core.trace.TraceView` answers every query — the summary ones
from the folded :class:`~repro.core.trace.TraceSummary`, the
per-appearance ones from one positions pass over the trace's blocks — for a
:class:`~repro.core.trace.TraceMatrix` block, a
:class:`~repro.core.trace.StreamedTrace` (chunk by chunk, and in closed form
for a cyclic schedule), a dense ``build_trace`` trace (the one-chunk
stream, of the raw sequence and of the cyclic schedule) and the members of
a :class:`~repro.core.trace.TraceBatch` (dense and streamed).  Each case asks
one query of one trace kind over a deliberately illegal happy-set sequence —
colliding edges, an unknown node, a never-happy node, periodic, single and
irregular rows — and compares the answer with one computed directly from the
frozensets.  The raw kinds observe one fixed draw; the cyclic kind observes
a cyclic schedule repeating a short illegal cycle, checked against the
frozensets of that same schedule.  Over the same two sources, the ``sets``
reference trace :func:`~repro.core.metrics.build_trace` returns must answer
the queries the metric and validation entry points ask like the numpy
engine, dense and streamed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.metrics import HappinessTrace, build_trace
from repro.core.problem import ConflictGraph
from repro.core.schedule import ExplicitSchedule
from repro.core.trace import StreamedTrace, TraceBatch, TraceMatrix

HORIZON = 41  # prime: no chunk width below divides it
CHUNK = 7
GHOST = "ghost"  # scheduled, but not a node of the graph

GRAPH = ConflictGraph(
    edges=[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5)], nodes=[6], name="view-7"
)
#: edges on the same nodes the trace was not built for
FOREIGN = ConflictGraph(edges=[(0, 2), (5, 6), (3, 4)], nodes=[1], name="foreign-7")


def happy_sets():
    """The illegal sequence the raw kinds observe (one fixed draw)."""
    rng = random.Random(2016)
    sets = []
    for t in range(1, HORIZON + 1):
        happy = {p for p in (1, 2, 3, 4) if rng.random() < 0.4}
        if t % 3 == 2:
            happy.add(0)  # periodic row, period 3
        if t == 20:
            happy.add(5)  # a single appearance
        if t in (9, 33):
            happy.add(GHOST)
        sets.append(frozenset(happy))
    return sets


def cyclic_schedule():
    """A cyclic schedule of an illegal 6-holiday cycle: six whole cycles and
    a remainder of five fit in the horizon."""
    rng = random.Random(2017)
    cycle = [{p for p in (1, 2, 3, 4) if rng.random() < 0.4} for _ in range(6)]
    cycle[1].add(0)  # periodic row, period 3
    cycle[4].add(0)
    cycle[3].add(GHOST)
    return ExplicitSchedule(GRAPH, cycle, cyclic=True, validate=False, name="view-cycle")


class Observed:
    """A happy-set sequence over the horizon and its frozenset reference."""

    def __init__(self, sets):
        self.sets = list(sets)
        self.reference = HappinessTrace.from_schedule(self.sets, GRAPH, HORIZON)


SETS = happy_sets()
RAW = Observed(SETS)
CYCLIC = cyclic_schedule()
CYCLED = Observed(CYCLIC.prefix(HORIZON))


def other_sets(seed):
    """A batch neighbour: its rows sit next to the observed member's."""
    rng = random.Random(seed)
    return [frozenset(p for p in GRAPH.nodes() if rng.random() < 0.3) for _ in range(HORIZON)]


def dense(source):
    """A dense ``build_trace`` of ``source``: the one-chunk stream."""
    trace = build_trace(source, GRAPH, HORIZON, config=EngineConfig(horizon_mode="dense"))
    assert trace.mode == "dense" and trace.chunk == HORIZON
    return trace


#: kind -> (trace factory, the sequence it observes)
KINDS = {
    "dense": (lambda: TraceMatrix.from_schedule(SETS, GRAPH, HORIZON), RAW),
    "dense-schedule": (lambda: dense(SETS), RAW),
    "dense-cyclic": (lambda: dense(CYCLIC), CYCLED),
    "stream": (lambda: StreamedTrace(SETS, GRAPH, HORIZON, chunk=CHUNK), RAW),
    "stream-cyclic": (lambda: StreamedTrace(CYCLIC, GRAPH, HORIZON, chunk=CHUNK), CYCLED),
    "batch": (
        lambda: TraceBatch([other_sets(1), SETS, other_sets(2)], GRAPH, HORIZON).member(1), RAW
    ),
    "batch-stream": (
        lambda: TraceBatch(
            [other_sets(1), SETS], GRAPH, HORIZON, horizon_mode="stream", chunk=CHUNK
        ).member(1),
        RAW,
    ),
}


def collisions_by_holiday(seen, graph):
    """``{holiday: [edges of graph whose endpoints are both happy]}``."""
    out = {}
    for t, happy in enumerate(seen.sets, start=1):
        hits = [(u, v) for u, v in graph.edges() if u in happy and v in happy]
        if hits:
            out[t] = hits
    return out


def unknown_by_holiday(seen):
    return {t: [GHOST] for t, happy in enumerate(seen.sets, start=1) if GHOST in happy}


def ask_count(view, seen):
    return {p: view.count(p) for p in GRAPH.nodes()}, \
        {p: len(seen.reference.appearances[p]) for p in GRAPH.nodes()}


def ask_mul(view, seen):
    return {p: view.mul(p) for p in GRAPH.nodes()}, {p: seen.reference.mul(p) for p in GRAPH.nodes()}


def ask_muls(view, seen):
    return list(view.muls().items()), [(p, seen.reference.mul(p)) for p in GRAPH.nodes()]


def ask_observed_period(view, seen):
    return {p: view.observed_period(p) for p in GRAPH.nodes()}, \
        {p: seen.reference.observed_period(p) for p in GRAPH.nodes()}


def ask_observed_periods(view, seen):
    return list(view.observed_periods().items()), \
        [(p, seen.reference.observed_period(p)) for p in GRAPH.nodes()]


def ask_happiness_rate(view, seen):
    return {p: view.happiness_rate(p) for p in GRAPH.nodes()}, \
        {p: seen.reference.happiness_rate(p) for p in GRAPH.nodes()}


def ask_happiness_rates(view, seen):
    return list(view.happiness_rates().items()), \
        [(p, seen.reference.happiness_rate(p)) for p in GRAPH.nodes()]


def ask_distinct_appearance_diffs(view, seen):
    return {p: view.distinct_appearance_diffs(p) for p in GRAPH.nodes()}, \
        {p: sorted(set(seen.reference.inter_appearance_gaps(p))) for p in GRAPH.nodes()}


def ask_unknown(view, seen):
    return view.unknown, [(t, GHOST) for t in sorted(unknown_by_holiday(seen))]


def ask_edge_collisions(view, seen):
    pairs = list(GRAPH.edges()) + [(v, u) for u, v in GRAPH.edges()] + list(FOREIGN.edges())
    return {pair: view.edge_collisions(*pair) for pair in pairs}, {
        (u, v): [t for t, happy in enumerate(seen.sets, start=1) if u in happy and v in happy]
        for u, v in pairs
    }


def ask_conflicting_holidays(view, seen):
    return view.conflicting_holidays(), collisions_by_holiday(seen, GRAPH)


def ask_legality_scan(view, seen):
    return view.legality_scan(GRAPH), \
        (unknown_by_holiday(seen), collisions_by_holiday(seen, GRAPH))


def ask_legality_scan_foreign(view, seen):
    return view.legality_scan(FOREIGN), \
        (unknown_by_holiday(seen), collisions_by_holiday(seen, FOREIGN))


def ask_appearances(view, seen):
    return {p: view.appearances(p) for p in GRAPH.nodes()}, seen.reference.appearances


def ask_appearance_diffs(view, seen):
    return {p: view.appearance_diffs(p) for p in GRAPH.nodes()}, \
        {p: seen.reference.inter_appearance_gaps(p) for p in GRAPH.nodes()}


def ask_gaps(view, seen):
    return {p: view.gaps(p) for p in GRAPH.nodes()}, \
        {p: seen.reference.gaps(p) for p in GRAPH.nodes()}


def ask_all_gaps(view, seen):
    return list(view.all_gaps().items()), [(p, seen.reference.gaps(p)) for p in GRAPH.nodes()]


def ask_happy_set(view, seen):
    nodes = set(GRAPH.nodes())
    return [view.happy_set(t) for t in range(1, HORIZON + 1)], [s & nodes for s in seen.sets]


QUERIES = {
    name[len("ask_"):]: fn for name, fn in sorted(globals().items()) if name.startswith("ask_")
}


def test_sequence_exercises_every_query():
    """The fixed draw has what each query needs to be non-trivial."""
    reference = RAW.reference
    assert reference.observed_period(0) == 3
    assert reference.appearances[5] == [20] and reference.appearances[6] == []
    assert any(reference.observed_period(p) is None and len(reference.appearances[p]) > 2
               for p in GRAPH.nodes())
    assert collisions_by_holiday(RAW, GRAPH) and collisions_by_holiday(RAW, FOREIGN)
    assert unknown_by_holiday(RAW)


def test_cycle_exercises_the_closed_form():
    """The cyclic schedule repeats collisions, its unknown node and an
    irregular row in every copy, and leaves a remainder."""
    reference = CYCLED.reference
    assert HORIZON // len(CYCLIC) == 6 and HORIZON % len(CYCLIC) == 5
    assert reference.observed_period(0) == 3 and reference.appearances[6] == []
    assert any(reference.observed_period(p) is None and len(reference.appearances[p]) > 2
               for p in GRAPH.nodes())
    assert collisions_by_holiday(CYCLED, GRAPH) and collisions_by_holiday(CYCLED, FOREIGN)
    assert sorted(unknown_by_holiday(CYCLED)) == list(range(4, HORIZON + 1, 6))


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("kind", list(KINDS))
def test_view_answers_query_like_the_sets_reference(kind, query):
    make, seen = KINDS[kind]
    view = make()
    assert view.graph is GRAPH and view.horizon == HORIZON
    answer, expected = QUERIES[query](view, seen)
    assert answer == expected


def violations(scan, first_only=False):
    """``{holiday: (unknown nodes, collides)}`` of a legality scan — what
    the validator reports — cut to the first violating holiday when
    ``first_only``."""
    unknown, collisions = scan
    holidays = sorted(set(unknown) | set(collisions))[: 1 if first_only else None]
    return {t: (unknown.get(t, []), t in collisions) for t in holidays}


@pytest.mark.parametrize("mode", ["dense", "stream"])
@pytest.mark.parametrize("source", [SETS, CYCLIC], ids=["raw", "cyclic"])
def test_sets_reference_answers_like_the_trace_engine(source, mode):
    view = build_trace(source, GRAPH, HORIZON, config=EngineConfig(horizon_mode=mode, chunk=CHUNK))
    reference = build_trace(source, GRAPH, HORIZON, config=EngineConfig(backend="sets"))
    assert isinstance(reference, HappinessTrace) and reference.mode == "sets"
    for query in ("muls", "all_gaps", "observed_periods", "happiness_rates"):
        assert list(getattr(reference, query)().items()) == list(getattr(view, query)().items())
    assert [reference.distinct_appearance_diffs(p) for p in GRAPH.nodes()] == \
        [view.distinct_appearance_diffs(p) for p in GRAPH.nodes()]
    for graph in (GRAPH, FOREIGN):
        # under fail_fast the reference stops at the first violating holiday,
        # a streamed trace at the end of the chunk holding it
        for fail_fast in (False, True):
            assert violations(reference.legality_scan(graph, fail_fast)) == \
                violations(view.legality_scan(graph, fail_fast), first_only=fail_fast)
