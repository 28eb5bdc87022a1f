"""One query view for every trace kind.

:class:`repro.core.trace.TraceView` answers every query — the summary ones
from the folded :class:`~repro.core.trace.TraceSummary`, the
per-appearance ones from one positions pass over the trace's blocks — for a
dense :class:`~repro.core.trace.TraceMatrix`, a
:class:`~repro.core.trace.StreamedTrace` (serial and on worker processes)
and the members of a :class:`~repro.core.trace.TraceBatch` (dense and
streamed).  Each case asks one query of one trace kind over a deliberately
illegal raw happy-set sequence — colliding edges, an unknown node, a
never-happy node, periodic, single and irregular rows — and compares the
answer with one computed directly from the frozensets.
"""

from __future__ import annotations

import random

import pytest

from repro.core.metrics import HappinessTrace
from repro.core.problem import ConflictGraph
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
    """The illegal sequence every case observes (one fixed draw)."""
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


SETS = happy_sets()
REFERENCE = HappinessTrace.from_schedule(SETS, GRAPH, HORIZON)


def other_sets(seed):
    """A batch neighbour: its rows sit next to the observed member's."""
    rng = random.Random(seed)
    return [frozenset(p for p in GRAPH.nodes() if rng.random() < 0.3) for _ in range(HORIZON)]


KINDS = {
    "dense": lambda: TraceMatrix.from_schedule(SETS, GRAPH, HORIZON),
    "stream": lambda: StreamedTrace(SETS, GRAPH, HORIZON, chunk=CHUNK),
    "stream-jobs2": lambda: StreamedTrace(SETS, GRAPH, HORIZON, chunk=CHUNK, jobs=2),
    "batch": lambda: TraceBatch([other_sets(1), SETS, other_sets(2)], GRAPH, HORIZON).member(1),
    "batch-stream": lambda: TraceBatch(
        [other_sets(1), SETS], GRAPH, HORIZON, horizon_mode="stream", chunk=CHUNK
    ).member(1),
}


def collisions_by_holiday(graph):
    """``{holiday: [edges of graph whose endpoints are both happy]}``."""
    out = {}
    for t, happy in enumerate(SETS, start=1):
        hits = [(u, v) for u, v in graph.edges() if u in happy and v in happy]
        if hits:
            out[t] = hits
    return out


def unknown_by_holiday():
    return {t: [GHOST] for t, happy in enumerate(SETS, start=1) if GHOST in happy}


def ask_count(view):
    return {p: view.count(p) for p in GRAPH.nodes()}, \
        {p: len(REFERENCE.appearances[p]) for p in GRAPH.nodes()}


def ask_mul(view):
    return {p: view.mul(p) for p in GRAPH.nodes()}, {p: REFERENCE.mul(p) for p in GRAPH.nodes()}


def ask_muls(view):
    return list(view.muls().items()), [(p, REFERENCE.mul(p)) for p in GRAPH.nodes()]


def ask_observed_period(view):
    return {p: view.observed_period(p) for p in GRAPH.nodes()}, \
        {p: REFERENCE.observed_period(p) for p in GRAPH.nodes()}


def ask_observed_periods(view):
    return list(view.observed_periods().items()), \
        [(p, REFERENCE.observed_period(p)) for p in GRAPH.nodes()]


def ask_happiness_rate(view):
    return {p: view.happiness_rate(p) for p in GRAPH.nodes()}, \
        {p: REFERENCE.happiness_rate(p) for p in GRAPH.nodes()}


def ask_happiness_rates(view):
    return list(view.happiness_rates().items()), \
        [(p, REFERENCE.happiness_rate(p)) for p in GRAPH.nodes()]


def ask_distinct_appearance_diffs(view):
    return {p: view.distinct_appearance_diffs(p) for p in GRAPH.nodes()}, \
        {p: sorted(set(REFERENCE.inter_appearance_gaps(p))) for p in GRAPH.nodes()}


def ask_unknown(view):
    return view.unknown, [(t, GHOST) for t in sorted(unknown_by_holiday())]


def ask_edge_collisions(view):
    pairs = list(GRAPH.edges()) + [(v, u) for u, v in GRAPH.edges()] + list(FOREIGN.edges())
    return {pair: view.edge_collisions(*pair) for pair in pairs}, {
        (u, v): [t for t, happy in enumerate(SETS, start=1) if u in happy and v in happy]
        for u, v in pairs
    }


def ask_conflicting_holidays(view):
    return view.conflicting_holidays(), collisions_by_holiday(GRAPH)


def ask_legality_scan(view):
    return view.legality_scan(GRAPH), (unknown_by_holiday(), collisions_by_holiday(GRAPH))


def ask_legality_scan_foreign(view):
    return view.legality_scan(FOREIGN), (unknown_by_holiday(), collisions_by_holiday(FOREIGN))


def ask_appearances(view):
    return {p: view.appearances(p) for p in GRAPH.nodes()}, REFERENCE.appearances


def ask_appearance_diffs(view):
    return {p: view.appearance_diffs(p) for p in GRAPH.nodes()}, \
        {p: REFERENCE.inter_appearance_gaps(p) for p in GRAPH.nodes()}


def ask_gaps(view):
    return {p: view.gaps(p) for p in GRAPH.nodes()}, {p: REFERENCE.gaps(p) for p in GRAPH.nodes()}


def ask_all_gaps(view):
    return list(view.all_gaps().items()), [(p, REFERENCE.gaps(p)) for p in GRAPH.nodes()]


def ask_happy_set(view):
    nodes = set(GRAPH.nodes())
    return [view.happy_set(t) for t in range(1, HORIZON + 1)], [s & nodes for s in SETS]


QUERIES = {
    name[len("ask_"):]: fn for name, fn in sorted(globals().items()) if name.startswith("ask_")
}


def test_sequence_exercises_every_query():
    """The fixed draw has what each query needs to be non-trivial."""
    assert REFERENCE.observed_period(0) == 3
    assert REFERENCE.appearances[5] == [20] and REFERENCE.appearances[6] == []
    assert any(REFERENCE.observed_period(p) is None and len(REFERENCE.appearances[p]) > 2
               for p in GRAPH.nodes())
    assert collisions_by_holiday(GRAPH) and collisions_by_holiday(FOREIGN)
    assert unknown_by_holiday()


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("kind", list(KINDS))
def test_view_answers_query_like_the_sets_reference(kind, query):
    view = KINDS[kind]()
    assert view.graph is GRAPH and view.horizon == HORIZON
    answer, expected = QUERIES[query](view)
    assert answer == expected
