"""Trace engine: node × holiday occupancy matrices and their one summary.

Every metric and validation question in this package reduces to queries over
the *occupancy trace* of a schedule prefix — "was node ``p`` happy at holiday
``t``?" for ``p`` in the graph and ``t`` in ``1..horizon``.  The historical
implementation (:class:`repro.core.metrics.HappinessTrace`) answers these by
materialising one ``frozenset`` per holiday and walking them node by node;
it stays the semantic reference (``backend="sets"`` throughout
:mod:`repro.core.metrics`), and every engine here is differentially tested
against it.

The engine stores the trace as numpy boolean blocks — one row per node, one
column per holiday — and reduces them to one :class:`TraceSummary`: per row
the appearance count, the first and last appearance, the largest and
smallest inter-appearance difference (plus the distinct differences of the
rows whose gaps vary), per graph edge the holidays at which both ends are
happy, and the scheduled nodes the graph does not know.  Every summary
query — ``mul``, observed period, happiness rate, distinct differences,
edge collisions, legality — reads that summary.

One kernel builds it: :func:`fold` summarises a ``rows × width`` block whose
column ``j`` is holiday ``start + j``, and :meth:`TraceSummary.merge`
combines the summaries of two adjacent holiday ranges associatively.

Every trace of a schedule is a :class:`StreamedTrace` over a
:class:`TraceStream`, which decides once, at construction, what kind of
schedule it reads:

* a :class:`~repro.core.schedule.PeriodicSchedule` whose ``(period, phase)``
  table covers exactly the graph's nodes is summarised by
  :func:`periodic_summary`, which derives each row's count, first and last
  appearance from the table and each edge's collisions from one CRT residue
  class — O(rows + edges) at any horizon, no block built;
* a cyclic :class:`~repro.core.schedule.ExplicitSchedule` shorter than the
  horizon is summarised by :func:`cyclic_summary`, which folds its one
  cycle and doubles it out with merges of shifted copies —
  O(log(horizon / cycle)) merges, no block built;
* everything else (raw sequences, finite explicit schedules, a cycle at
  least as long as the horizon, generator runs) is folded block by block.

Both closed forms answer for any edge set, and with ``fail_fast`` stop
where the block scan would, at the end of the chunk holding the first
violation.  The horizon mode only sets the chunk width (:func:`make_trace`):
a ``stream`` trace folds fixed-width chunks at ``O(n × chunk)`` resident
bytes whatever the horizon, and a ``dense`` trace is the one-chunk stream,
whose single ``n × horizon`` block is built on first need and then kept.
So a periodic or cyclic summary builds no matrix in either mode; the
per-appearance queries (``appearances``, ``gaps``, ``all_gaps``,
``happy_set``) read blocks, built from the table, from one cycle, or from
one chunk of happy sets at a time.

:class:`TraceView` answers every query: the summary queries from the
trace's summary, and the per-appearance queries from one positions pass
over its blocks.  A block is a :class:`TraceMatrix`, itself a view folded
as one block; :meth:`TraceMatrix.from_schedule` returns the one block of a
one-chunk stream.  A :class:`TraceBatch` holds one trace per schedule.

Memory trade-off — dense vs. stream: a dense block costs ``n × horizon``
bytes (numpy stores one byte per bool), so a 60-node workload at horizon
10⁶ is ~60 MB; below that scale a block that every consumer reads is best
built once and kept, so dense remains the default.  Dense stops scaling
around horizon 10⁷–10⁸ for the schedules that need their block (the same
workload at 10⁸ would need ~6 GB), which is what the **streaming mode**
removes.  ``horizon_mode="auto"`` (:func:`resolve_horizon_mode`) picks dense
below :data:`AUTO_STREAM_BYTES` and stream above it, so small-horizon
numbers never move while 10⁸-holiday horizons stay bounded.  A
:class:`~repro.core.schedule.GeneratorSchedule`
constructed with a ``window=`` evicts holidays far behind its generation
frontier, so aperiodic generator-backed schedulers also stream at bounded
memory — at the price of supporting a single forward pass: the summary pass
is that pass, and a second pass over evicted history (``appearances``,
``all_gaps``, ``happy_set``) raises :class:`ValueError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import ExplicitSchedule, PeriodicSchedule, Schedule

__all__ = [
    "TraceSummary",
    "TraceView",
    "TraceMatrix",
    "TraceStream",
    "StreamedTrace",
    "TraceBatch",
    "make_trace",
    "fold",
    "periodic_summary",
    "cyclic_summary",
    "BACKENDS",
    "HORIZON_MODES",
    "DEFAULT_CHUNK",
    "AUTO_STREAM_BYTES",
    "dense_trace_bytes",
    "materialize_prefix",
    "resolve_backend",
    "resolve_horizon_mode",
]

#: Backends accepted by :func:`resolve_backend`; both name the numpy
#: engine.  ``"sets"`` is *not* a trace backend — it names the frozenset
#: reference path and is handled by :mod:`repro.core.metrics` / ``validation``.
BACKENDS = ("auto", "numpy")

#: Horizon representations accepted by :func:`resolve_horizon_mode`:
#: ``dense`` is one chunk of the whole horizon (its n × horizon block kept
#: once built), ``stream`` evaluates fixed-width chunks with carried state,
#: ``auto`` picks by estimated size.
HORIZON_MODES = ("auto", "dense", "stream")

#: Default streaming chunk width (holidays per block).  At 60 nodes one
#: chunk is ~15 MB — large enough to amortise per-chunk Python overhead,
#: small enough that a handful of live blocks stay cache-friendly.
DEFAULT_CHUNK = 1 << 18

#: ``auto`` switches from dense to stream when the dense matrix would exceed
#: this many bytes (256 MiB).  Every horizon the HorizonPolicy can pick on
#: its own stays far below it, so default runs never change representation.
AUTO_STREAM_BYTES = 1 << 28

#: :func:`fold` scans blocks at most this many holidays wide flat — one
#: ``flatnonzero`` over the whole block, rows recovered by ``divmod`` and
#: reduced by ``reduceat`` — and wider blocks row by row.  The flat scan
#: saves the per-row Python overhead that dominates narrow blocks (policy
#: horizons, batches of many members), but it spends several int64
#: temporaries per appearance, which on wide blocks (streaming chunks) costs
#: more time than the per-row loop and far more memory.  On 64 periodic
#: rows (2-vCPU x86-64, numpy 2.4) the flat scan takes half the per-row
#: time at 2048 holidays wide and 1.7× it at 4096.
FLAT_FOLD_WIDTH = 1 << 11

#: On narrow blocks :func:`fold` ANDs edge rows in groups of at most this
#: many cells, so the collision pass stays vectorised without holding an
#: ``edges × width`` temporary (groups that fit in cache also run fastest);
#: wide blocks AND one edge's rows at a time.
EDGE_GROUP_CELLS = 1 << 16

#: min-diff of a row with fewer than two appearances; guarded by count
#: checks, so it never leaks into a query result.
_NO_DIFF = 1 << 62

ScheduleOrSets = Union[Schedule, Sequence[Iterable[Node]]]


def dense_trace_bytes(num_nodes: int, horizon: int) -> int:
    """Estimated resident size of a dense trace (one byte per cell)."""
    return num_nodes * horizon


def resolve_horizon_mode(mode: str, num_nodes: int, horizon: int) -> str:
    """Normalise a horizon mode, resolving ``"auto"`` by estimated memory.

    ``"dense"`` and ``"stream"`` pass through unchanged; ``"auto"`` picks
    ``"stream"`` exactly when the dense matrix (:func:`dense_trace_bytes`)
    would exceed :data:`AUTO_STREAM_BYTES`, so every horizon a default
    policy can choose stays dense.  This is the one place the ``mode``
    string is validated, shared by the metric, validation and runner entry
    points.
    """
    if mode not in HORIZON_MODES:
        raise ValueError(f"unknown horizon mode {mode!r}; expected one of {HORIZON_MODES}")
    if mode == "auto":
        if dense_trace_bytes(num_nodes, horizon) > AUTO_STREAM_BYTES:
            return "stream"
        return "dense"
    return mode


def resolve_backend(backend: str) -> str:
    """Normalise a backend name: ``"auto"`` and ``"numpy"`` both resolve to
    ``"numpy"``, the one trace engine."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown trace backend {backend!r}; expected one of {BACKENDS} (or 'sets' "
            f"at the metrics/validation layer)"
        )
    return "numpy"


def materialize_prefix(schedule: ScheduleOrSets, horizon: int) -> Sequence[FrozenSet[Node]]:
    """The first ``horizon`` happy sets of a schedule or raw sequence, as
    frozensets — the single materialization used by both the trace builder
    and :func:`repro.core.metrics.materialize`."""
    if isinstance(schedule, Schedule):
        return schedule.prefix(horizon)
    sets = [frozenset(s) for s in schedule[:horizon]]
    if len(sets) < horizon:
        raise ValueError(
            f"explicit sequence has only {len(sets)} holidays, requested horizon {horizon}"
        )
    return sets


# -- the summary and its kernel ---------------------------------------------------


@dataclass(eq=False)
class TraceSummary:
    """Everything the summary queries need from a range of holidays.

    Per row (int64 arrays): ``count`` appearances, the global holidays of the
    ``first`` and ``last`` one (0 when the row is empty), and the largest and
    smallest inter-appearance difference ``dmax``/``dmin`` (0 and a sentinel
    when the row has fewer than two appearances).  ``diffs`` maps each row
    whose differences vary (``dmax != dmin``) to an array holding its
    distinct differences — possibly repeated; :meth:`distinct` normalises.
    ``collisions`` maps edge ``k`` (position in the folded edge list) to its
    collision holidays and omits edges without any; ``unknown`` holds the
    ``(holiday, node)`` pairs the builder could not place.
    """

    count: np.ndarray
    first: np.ndarray
    last: np.ndarray
    dmax: np.ndarray
    dmin: np.ndarray
    diffs: Dict[int, np.ndarray]
    collisions: Dict[int, List[int]]
    unknown: List[Tuple[int, Node]]

    def distinct(self, row: int) -> List[int]:
        """Sorted distinct inter-appearance differences of ``row``."""
        if row in self.diffs:
            return np.unique(self.diffs[row]).tolist()
        return [int(self.dmax[row])] if self.count[row] >= 2 else []

    def _diff_values(self, row: int) -> np.ndarray:
        if row in self.diffs:
            return self.diffs[row]
        return self.dmax[row:row + 1] if self.count[row] >= 2 else self.dmax[:0]

    def merge(self, later: "TraceSummary") -> "TraceSummary":
        """The summary of our holiday range followed directly by ``later``'s.

        Equivalent to folding both ranges as one block: the only information
        spanning the boundary is the gap between a row's last appearance
        here and its first in ``later``, which becomes one more observed
        difference.  Associative, so ranges may be folded in any grouping
        and merged in order.
        """
        a, b = self, later
        has_a, has_b = a.count > 0, b.count > 0
        both = has_a & has_b
        gap = np.where(both, b.first - a.last, 0)
        dmax = np.maximum(np.maximum(a.dmax, b.dmax), gap)
        dmin = np.minimum(np.minimum(a.dmin, b.dmin), np.where(both, gap, _NO_DIFF))
        count = a.count + b.count
        diffs: Dict[int, np.ndarray] = {}
        for row in np.flatnonzero((count > 1) & (dmax != dmin)).tolist():
            parts = [a._diff_values(row), b._diff_values(row)]
            if both[row]:
                parts.append(gap[row:row + 1])
            diffs[row] = np.unique(np.concatenate(parts))
        collisions = {k: list(v) for k, v in a.collisions.items()}
        for k, hits in b.collisions.items():
            collisions.setdefault(k, []).extend(hits)
        return TraceSummary(
            count,
            np.where(has_a, a.first, b.first),
            np.where(has_b, b.last, a.last),
            dmax,
            dmin,
            diffs,
            collisions,
            a.unknown + b.unknown,
        )

    def shifted(self, offset: int) -> "TraceSummary":
        """This summary's holiday range moved ``offset`` holidays later."""
        seen = self.count > 0
        return TraceSummary(
            self.count,
            np.where(seen, self.first + offset, 0),
            np.where(seen, self.last + offset, 0),
            self.dmax,
            self.dmin,
            dict(self.diffs),
            {k: [t + offset for t in hits] for k, hits in self.collisions.items()},
            [(t + offset, p) for t, p in self.unknown],
        )


def _empty_summary(rows: int) -> TraceSummary:
    zeros = np.zeros(rows, dtype=np.int64)
    return TraceSummary(
        zeros, zeros.copy(), zeros.copy(), zeros.copy(),
        np.full(rows, _NO_DIFF, dtype=np.int64), {}, {}, [],
    )


def fold(
    block: np.ndarray,
    start: int,
    edge_rows: Sequence[Tuple[int, int]] = (),
    unknown: Sequence[Tuple[int, Node]] = (),
) -> TraceSummary:
    """Summarise a ``rows × width`` boolean block whose column ``j`` is
    holiday ``start + j``.

    ``edge_rows`` lists the row pairs whose collision holidays to collect
    (edge ``k`` of the summary is pair ``k``); ``unknown`` holds the
    ``(holiday, node)`` pairs the block's builder could not place, with
    holiday 1 meaning ``start``.  The arm follows the block's shape (see
    :data:`FLAT_FOLD_WIDTH`); both produce the same summary.
    """
    rows, width = block.shape
    out = _empty_summary(rows)
    count, first, last, dmax, dmin = out.count, out.first, out.last, out.dmax, out.dmin
    if width <= FLAT_FOLD_WIDTH:
        # every appearance of every row, grouped by row in column order
        rows_idx, cols = np.divmod(np.flatnonzero(block), width)
        count[:] = np.bincount(rows_idx, minlength=rows)
        bounds = np.concatenate(([0], np.cumsum(count)))
        nonempty = np.flatnonzero(count)
        if nonempty.size:
            starts, ends = bounds[nonempty], bounds[nonempty + 1]
            first[nonempty] = cols[starts] + start
            last[nonempty] = cols[ends - 1] + start
            diff = np.diff(cols)
            # the difference leaving each row's segment crosses into the
            # next row: neutralise it for both reductions
            hi = np.append(diff, 0)
            lo = np.append(diff, _NO_DIFF)
            hi[ends[:-1] - 1] = 0
            lo[ends[:-1] - 1] = _NO_DIFF
            dmax[nonempty] = np.maximum.reduceat(hi, starts)
            dmin[nonempty] = np.minimum.reduceat(lo, starts)
            varied = np.flatnonzero((count > 1) & (dmax != dmin))
            for row, a, b in zip(
                varied.tolist(), bounds[varied].tolist(), bounds[varied + 1].tolist()
            ):
                out.diffs[row] = diff[a:b - 1]
    else:
        for row in range(rows):
            idx = np.flatnonzero(block[row])
            if idx.size == 0:
                continue
            count[row] = idx.size
            first[row] = idx[0] + start
            last[row] = idx[-1] + start
            if idx.size > 1:
                diff = np.diff(idx)
                dmax[row] = hi = diff.max()
                dmin[row] = lo = diff.min()
                if hi != lo:
                    out.diffs[row] = np.unique(diff)
    if width > FLAT_FOLD_WIDTH:
        for k, (i, j) in enumerate(edge_rows):
            both = block[i] & block[j]
            if both.any():
                out.collisions[k] = (np.flatnonzero(both) + start).tolist()
    elif len(edge_rows):
        # narrow rows: AND whole groups of edge pairs at once
        pairs = np.asarray(edge_rows, dtype=np.intp).reshape(-1, 2)
        step = max(1, EDGE_GROUP_CELLS // width)
        for base in range(0, len(pairs), step):
            group = pairs[base:base + step]
            both = block[group[:, 0]] & block[group[:, 1]]
            if both.any():
                hit_edges, hit_cols = np.divmod(np.flatnonzero(both), width)
                for k, t in zip((hit_edges + base).tolist(), (hit_cols + start).tolist()):
                    out.collisions.setdefault(k, []).append(t)
    out.unknown = [(start + t - 1, p) for t, p in unknown]
    return out


def periodic_summary(
    schedule: PeriodicSchedule,
    order: Sequence[Node],
    horizon: int,
    edge_rows: Sequence[Tuple[int, int]] = (),
    fail_fast_chunk: Optional[int] = None,
) -> TraceSummary:
    """The :func:`fold` of ``schedule``'s trace over holidays ``1..horizon``
    in closed form: O(rows + edges), no block is built.

    Row ``i`` is node ``order[i]`` (every node must have an assignment),
    happy exactly at the holidays ``≡ phase (mod period)``: its count, first
    and last appearance follow from ``(period, phase, horizon)`` and its one
    inter-appearance difference is the period.  Edge ``k`` collides on one
    residue class modulo the lcm of its two periods, from the earliest
    holiday :meth:`PeriodicSchedule._congruence_collision` finds.  With
    ``fail_fast_chunk`` the summary stops where a fail-fast scan of chunks
    that wide stops: at the end of the chunk holding the earliest collision.
    """
    slots = [schedule.assignments[p] for p in order]
    period = np.array([slot.period for slot in slots], dtype=np.int64)
    phase = np.array([slot.phase for slot in slots], dtype=np.int64)
    starts: Dict[int, int] = {}
    if len(edge_rows):
        pairs = np.asarray(edge_rows, dtype=np.intp).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        # the pair's congruences are solvable iff the phases agree modulo
        # the gcd of the periods; only those edges need the CRT
        solvable = (phase[i] - phase[j]) % np.gcd(period[i], period[j]) == 0
        for k in np.flatnonzero(solvable).tolist():
            a, b = edge_rows[k]
            t0 = PeriodicSchedule._congruence_collision(slots[a], slots[b])
            if t0 <= horizon:
                starts[k] = t0
    if fail_fast_chunk is not None and starts:
        earliest = min(starts.values())
        horizon = min(horizon, -(-earliest // fail_fast_chunk) * fail_fast_chunk)
    first = (phase - 1) % period + 1
    count = np.where(first <= horizon, (horizon - first) // period + 1, 0)
    seen, repeats = count > 0, count > 1
    out = TraceSummary(
        count,
        np.where(seen, first, 0),
        np.where(seen, first + (count - 1) * period, 0),
        np.where(repeats, period, 0),
        np.where(repeats, period, _NO_DIFF),
        {}, {}, [],
    )
    for k, t0 in starts.items():
        if t0 <= horizon:
            a, b = edge_rows[k]
            out.collisions[k] = list(range(t0, horizon + 1, math.lcm(slots[a].period, slots[b].period)))
    return out


def cyclic_summary(
    cycle: "TraceMatrix",
    horizon: int,
    edge_rows: Sequence[Tuple[int, int]] = (),
    fail_fast_chunk: Optional[int] = None,
) -> TraceSummary:
    """The :func:`fold` of a cyclic schedule's trace over holidays
    ``1..horizon``, from one cycle: O(log(horizon / C)) merges, no chunk is
    built.

    ``cycle`` is the one-cycle block of ``C`` holidays, with its unknown
    pairs, that the schedule repeats forever.  Its fold is doubled out with
    :meth:`TraceSummary.merge` of :meth:`~TraceSummary.shifted` copies to the
    ``horizon // C`` whole cycles, and the fold of its first ``horizon mod
    C`` columns is merged on after them.  With ``fail_fast_chunk`` the
    summary stops where a fail-fast scan of chunks that wide stops: at the
    end of the chunk holding the cycle's earliest collision or unknown node.
    """
    matrix, length = cycle._matrix, cycle.horizon
    power = fold(matrix, 1, edge_rows, cycle._unknown)
    if fail_fast_chunk is not None:
        firsts = [t for t, _ in power.unknown] + [times[0] for times in power.collisions.values()]
        if firsts:
            horizon = min(horizon, -(-min(firsts) // fail_fast_chunk) * fail_fast_chunk)
    copies, remainder = divmod(horizon, length)
    total: Optional[TraceSummary] = None
    covered, span = 0, length
    while copies:
        if copies & 1:
            total = power if total is None else total.merge(power.shifted(covered))
            covered += span
        copies >>= 1
        if copies:
            power = power.merge(power.shifted(span))
            span *= 2
    if remainder:
        unknown = [(t, p) for t, p in cycle._unknown if t <= remainder]
        tail = fold(matrix[:, :remainder], covered + 1, edge_rows, unknown)
        total = tail if total is None else total.merge(tail)
    return total


def _fold_blocks(
    blocks: Iterable[Tuple[int, "TraceMatrix"]],
    edge_rows: Sequence[Tuple[int, int]],
    fail_fast: bool = False,
) -> TraceSummary:
    """Fold ``(start, block)`` pairs in order into one summary; with
    ``fail_fast``, stop after the first block with a collision or an unknown
    node (``blocks`` is consumed lazily, so later blocks are never built)."""
    summary: Optional[TraceSummary] = None
    for start, block in blocks:
        part = fold(block._matrix, start, edge_rows, block._unknown)
        summary = part if summary is None else summary.merge(part)
        if fail_fast and (part.collisions or part.unknown):
            break
    return summary


def _gaps(times: Sequence[int], horizon: int) -> List[int]:
    """Unhappiness interval lengths around ascending appearance holidays."""
    if not times:
        return [horizon]
    gaps = [times[0] - 1]
    gaps.extend(b - a - 1 for a, b in zip(times, times[1:]))
    gaps.append(horizon - times[-1])
    return gaps


# -- the one query view -------------------------------------------------------------


class TraceView:
    """The query API shared by every trace (:class:`StreamedTrace`, dense or
    streamed) and every block (:class:`TraceMatrix`).

    Summary queries read the trace's :class:`TraceSummary`, built by the
    first of them (``_scan``) and cached; per-appearance queries run one
    positions pass over the trace's blocks.  Subclasses supply the blocks
    (``_blocks``) and may replace how the summary is built.  Rows follow the
    graph's deterministic node order; holidays are 1-indexed.
    """

    #: representation tag: ``"dense"`` or ``"stream"``.
    mode = "dense"

    def __init__(self, graph: ConflictGraph, horizon: int) -> None:
        self.graph = graph
        self.horizon = horizon
        self._order: List[Node] = graph.nodes()
        self._index: Dict[Node, int] = {p: i for i, p in enumerate(self._order)}
        self._summary: Optional[TraceSummary] = None
        self._muls = None
        self._edge_ids: Optional[Dict[Tuple[Node, Node], int]] = None

    # -- what subclasses provide ---------------------------------------------------
    def _blocks(self, first: int = 1) -> Iterator[Tuple[int, "TraceMatrix"]]:
        """``(start, block)`` pairs covering holidays ``first..horizon`` in
        order, beginning with the block that contains ``first``.  A plain
        :class:`TraceView` (a :meth:`summary_view`) has none."""
        raise ValueError(
            "this trace is a summary-only view (TraceView.summary_view) and keeps no "
            "blocks: appearances, gaps, happy sets, legality scans against another "
            "graph or with fail_fast, and collisions of non-edge pairs need the full trace"
        )

    def _fold_pass(self, edge_rows: Sequence[Tuple[int, int]], fail_fast: bool = False) -> TraceSummary:
        return _fold_blocks(self._blocks(), edge_rows, fail_fast)

    def _scan(self) -> None:
        """Build the summary once (idempotent)."""
        if self._summary is None:
            self._summary = self._fold_pass(self._edge_rows(self.graph.edges()))

    def summary(self) -> TraceSummary:
        """The trace's :class:`TraceSummary` over the graph's own edges."""
        self._scan()
        return self._summary

    def _edge_rows(self, edges: Iterable[Tuple[Node, Node]]) -> List[Tuple[int, int]]:
        return [(self._index[u], self._index[v]) for u, v in edges]

    def summary_view(self) -> "TraceView":
        """This trace reduced to what its summary queries read: a plain
        :class:`TraceView` holding the scanned :class:`TraceSummary` and the
        mul array, and no matrix, stream or schedule.  Its size is O(n + m)
        plus the collisions and the varied rows' gaps; only a block folded
        flat (at most :data:`FLAT_FOLD_WIDTH` holidays wide) keeps one gap
        per appearance, since its ``diffs`` are views of one temporary.

        The view answers ``count``, ``mul``/``muls``, observed periods,
        happiness rates, distinct differences, ``unknown``, graph-edge
        ``edge_collisions`` and ``legality_scan`` against the trace's own
        edges exactly as this trace does.  Queries that need the blocks
        (positions queries, a foreign-graph or ``fail_fast`` legality scan,
        a non-edge pair's collisions) raise :class:`ValueError` naming the
        summary-only view.
        """
        view = TraceView(self.graph, self.horizon)
        view.mode = self.mode
        view._summary, view._muls = self.summary(), self._mul_array()
        return view

    def nbytes(self) -> int:
        """Bytes held by this view's summary state: each distinct numpy
        buffer of the summary and the mul array once (a flat fold's
        ``diffs`` are views of one temporary), plus ``sys.getsizeof`` of the
        view, the summary and their Python containers.  The graph and a full
        trace's blocks are not counted, so for a :meth:`summary_view` this
        is everything the view keeps alive.
        """
        python: List[object] = [self, self.__dict__, self._order, self._index]
        arrays: List[np.ndarray] = []
        if self._edge_ids is not None:
            python.append(self._edge_ids)
        if self._muls is not None:
            arrays.append(self._muls)
        s = self._summary
        if s is not None:
            python += [s, s.__dict__, s.diffs, s.collisions, s.unknown]
            for hits in s.collisions.values():
                python.append(hits)
                python.extend(hits)
            for pair in s.unknown:
                python += [pair, pair[0]]
            arrays += [s.count, s.first, s.last, s.dmax, s.dmin, *s.diffs.values()]
        # a view's getsizeof is its header; the array owning the buffer adds
        # the data, so walking each base chain counts every buffer once
        buffers: Dict[int, np.ndarray] = {}
        for array in arrays:
            while isinstance(array, np.ndarray):
                buffers[id(array)] = array
                array = array.base
        return sum(map(sys.getsizeof, python)) + sum(map(sys.getsizeof, buffers.values()))

    # -- per-node summary queries --------------------------------------------------
    def row_index(self, node: Node) -> int:
        """Row of ``node`` in the trace's blocks (KeyError for unknown nodes)."""
        return self._index[node]

    def count(self, node: Node) -> int:
        """Number of holidays within the horizon at which ``node`` is happy."""
        return int(self.summary().count[self._index[node]])

    def _mul_array(self) -> np.ndarray:
        if self._muls is None:
            s = self.summary()
            muls = np.maximum(s.first - 1, self.horizon - s.last)
            muls = np.maximum(muls, np.where(s.count > 1, s.dmax - 1, 0))
            muls[s.count == 0] = self.horizon
            self._muls = muls
        return self._muls

    def mul(self, node: Node) -> int:
        """Maximum unhappiness length of ``node`` within the horizon."""
        return int(self._mul_array()[self._index[node]])

    def observed_period(self, node: Node) -> Optional[int]:
        """The constant inter-appearance difference, or None (matches the
        reference: fewer than two appearances is "insufficient evidence")."""
        s, i = self.summary(), self._index[node]
        if s.count[i] < 2 or s.dmax[i] != s.dmin[i]:
            return None
        return int(s.dmax[i])

    def happiness_rate(self, node: Node) -> float:
        """Fraction of observed holidays at which ``node`` was happy."""
        return self.count(node) / self.horizon

    def distinct_appearance_diffs(self, node: Node) -> List[int]:
        """Sorted distinct inter-appearance differences of ``node`` — the
        summary the periodicity certifier needs, which never requires the
        full O(appearances) diff list."""
        return self.summary().distinct(self._index[node])

    # -- bulk summary queries (graph-node order) -----------------------------------
    def muls(self) -> Dict[Node, int]:
        """``{node: mul(node)}`` for every node, in graph order."""
        return dict(zip(self._order, self._mul_array().tolist()))

    def observed_periods(self) -> Dict[Node, Optional[int]]:
        """``{node: observed period or None}`` for every node."""
        s = self.summary()
        periodic = ((s.count >= 2) & (s.dmax == s.dmin)).tolist()
        return {
            p: period if ok else None
            for p, period, ok in zip(self._order, s.dmax.tolist(), periodic)
        }

    def happiness_rates(self) -> Dict[Node, float]:
        """``{node: happiness rate}`` for every node."""
        counts = self.summary().count.tolist()
        return {p: c / self.horizon for p, c in zip(self._order, counts)}

    # -- edge and legality queries ---------------------------------------------------
    @property
    def unknown(self) -> List[Tuple[int, Node]]:
        """``(holiday, node)`` pairs scheduled by the source but absent from
        the graph — impossible for :class:`Schedule` sources that validate,
        possible for raw sequences; consumed by the validator."""
        return self.summary().unknown

    def edge_collisions(self, u: Node, v: Node) -> List[int]:
        """Holidays at which ``u`` and ``v`` are simultaneously happy.

        Graph edges come from the summary; any other pair gets a dedicated
        pass over the trace's blocks.
        """
        if self._edge_ids is None:
            self._edge_ids = {edge: k for k, edge in enumerate(self.graph.edges())}
        k = self._edge_ids.get((u, v), self._edge_ids.get((v, u)))
        if k is not None:
            return list(self.summary().collisions.get(k, ()))
        pair = self._fold_pass([(self._index[u], self._index[v])])
        return pair.collisions.get(0, [])

    def conflicting_holidays(self) -> Dict[int, List[Tuple[Node, Node]]]:
        """``{holiday: [(u, v), ...]}`` over all graph edges with collisions."""
        return self.legality_scan(self.graph)[1]

    def legality_scan(
        self, graph: ConflictGraph, fail_fast: bool = False
    ) -> Tuple[Dict[int, List[Node]], Dict[int, List[Tuple[Node, Node]]]]:
        """Legality evidence against ``graph``'s edges:
        ``(unknown_by_holiday, collisions_by_holiday)``.

        The trace's own edges read the cached summary.  Other edge sets —
        or ``fail_fast``, under which a streamed trace stops after the
        first chunk containing any violation and never builds the rest —
        take a dedicated pass over the blocks.
        """
        edges = graph.edges()
        if not fail_fast and edges == self.graph.edges():
            summary = self.summary()
        else:
            summary = self._fold_pass(self._edge_rows(edges), fail_fast)
        unknown_by_holiday: Dict[int, List[Node]] = {}
        for t, p in summary.unknown:
            unknown_by_holiday.setdefault(t, []).append(p)
        collisions: Dict[int, List[Tuple[Node, Node]]] = {}
        for k in sorted(summary.collisions):
            for t in summary.collisions[k]:
                collisions.setdefault(t, []).append(edges[k])
        return unknown_by_holiday, collisions

    # -- per-appearance queries: one positions pass ----------------------------------
    def _positions(self, rows: Sequence[int]) -> List[List[int]]:
        """Ascending appearance holidays of each of ``rows``."""
        out: List[List[int]] = [[] for _ in rows]
        for start, block in self._blocks():
            matrix = block._matrix
            for slot, row in enumerate(rows):
                out[slot].extend((np.flatnonzero(matrix[row]) + start).tolist())
        return out

    def appearances(self, node: Node) -> List[int]:
        """Sorted 1-indexed holidays at which ``node`` is happy."""
        return self._positions([self._index[node]])[0]

    def appearance_diffs(self, node: Node) -> List[int]:
        """Differences between consecutive appearances (empty if < 2)."""
        times = self.appearances(node)
        return [b - a for a, b in zip(times, times[1:])]

    def gaps(self, node: Node) -> List[int]:
        """Unhappiness interval lengths, identical in semantics to
        :meth:`repro.core.metrics.HappinessTrace.gaps`: the run before the
        first appearance, runs between consecutive appearances, and the run
        after the last appearance; ``[horizon]`` for a never-happy node."""
        return _gaps(self.appearances(node), self.horizon)

    def all_gaps(self) -> Dict[Node, List[int]]:
        """``{node: gap list}`` for every node, in one positions pass."""
        positions = self._positions(range(len(self._order)))
        return {p: _gaps(times, self.horizon) for p, times in zip(self._order, positions)}

    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        """The recorded happy set at ``holiday`` (known nodes only); builds
        only the block containing it."""
        if not (1 <= holiday <= self.horizon):
            raise ValueError(f"holiday {holiday} outside recorded horizon 1..{self.horizon}")
        start, block = next(self._blocks(holiday))
        column = np.flatnonzero(block._matrix[:, holiday - start])
        return frozenset(self._order[i] for i in column.tolist())


class TraceMatrix(TraceView):
    """A node × holiday boolean occupancy block over a finite window.

    The block type of the engine: :class:`TraceStream` builds every block as
    a ``TraceMatrix`` whose *local* column ``j`` covers *global* holiday
    ``start + j``, and whose unknown pairs carry local holidays too.  A
    block is a view of its own window (holiday 1 is its first column),
    folded as one block by the first summary query; instances are immutable
    once built.  :meth:`from_schedule` observes a schedule into one block.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        horizon: int,
        matrix: np.ndarray,
        unknown: Optional[List[Tuple[int, Node]]] = None,
    ) -> None:
        super().__init__(graph, horizon)
        self._matrix = matrix
        #: the builder's unplaced ``(holiday, node)`` pairs (block-local holidays)
        self._unknown: List[Tuple[int, Node]] = unknown or []

    def _blocks(self, first: int = 1) -> Iterator[Tuple[int, "TraceMatrix"]]:
        return iter(((1, self),))

    # -- construction --------------------------------------------------------------
    @classmethod
    def from_schedule(
        cls,
        schedule: ScheduleOrSets,
        graph: ConflictGraph,
        horizon: int,
        backend: str = "auto",
    ) -> "TraceMatrix":
        """Observe ``horizon`` holidays of ``schedule`` into a new matrix:
        the one block of a one-chunk :class:`TraceStream`."""
        return TraceStream(schedule, graph, horizon, chunk=horizon, backend=backend).block(1, horizon)

    @classmethod
    def _from_periodic(
        cls, schedule: PeriodicSchedule, graph: ConflictGraph, horizon: int, start: int = 1
    ) -> "TraceMatrix":
        """Vectorized build from a ``{node: (period, phase)}`` table: one
        ``arange % τ`` per distinct period, shared by every row with that
        period; no happy set is constructed.

        ``start`` shifts the observation window: column ``j`` covers holiday
        ``start + j``, which is how :class:`TraceStream` tiles the table
        straight into each block without materialising any prefix.
        """
        order = graph.nodes()
        by_period: Dict[int, Tuple[List[int], List[int]]] = {}
        for i, p in enumerate(order):
            slot = schedule.assignments[p]
            rows, phases = by_period.setdefault(slot.period, ([], []))
            rows.append(i)
            phases.append(slot.phase)
        matrix = np.zeros((len(order), horizon), dtype=np.bool_)
        holidays = np.arange(start, start + horizon, dtype=np.int64)
        for period, (rows, phases) in by_period.items():
            phase = np.asarray(phases, dtype=np.int64)[:, np.newaxis]
            matrix[np.asarray(rows, dtype=np.intp)] = holidays % period == phase
        return cls(graph, horizon, matrix)

    @classmethod
    def _from_sets(
        cls, sets: Sequence[FrozenSet[Node]], graph: ConflictGraph, horizon: int
    ) -> "TraceMatrix":
        """Batched column fill from a materialised prefix of happy sets."""
        order = graph.nodes()
        index = {p: i for i, p in enumerate(order)}
        unknown: List[Tuple[int, Node]] = []
        # Schedules usually repeat happy sets heavily (periodic phases,
        # greedy cycles), and frozensets cache their hash — so dedup the
        # columns, fill one column per *distinct* set and assemble the
        # matrix with one vectorized gather.  A small sample decides
        # whether dedup pays: randomized schedules with (almost) all
        # columns distinct go through a direct scatter instead.
        sample = sets[:256]
        if len(sample) >= 64 and len(set(sample)) > 0.9 * len(sample):
            matrix = np.zeros((len(order), horizon), dtype=np.bool_)
            _scatter_columns(
                matrix, enumerate(sets), index,
                on_unknown=lambda j, p: unknown.append((j + 1, p)),
            )
            return cls(graph, horizon, matrix, unknown=unknown)

        ids: Dict[FrozenSet[Node], int] = {}
        uniques: List[FrozenSet[Node]] = []
        col_ids: List[int] = []
        for happy in sets:
            fs = happy if isinstance(happy, frozenset) else frozenset(happy)
            sid = ids.get(fs)
            if sid is None:
                sid = len(uniques)
                ids[fs] = sid
                uniques.append(fs)
            col_ids.append(sid)
        distinct = np.zeros((len(order), max(len(uniques), 1)), dtype=np.bool_)
        unknown_members: List[List[Node]] = [[] for _ in uniques]
        _scatter_columns(
            distinct, enumerate(uniques), index,
            on_unknown=lambda sid, p: unknown_members[sid].append(p),
        )
        if any(unknown_members):
            for j, sid in enumerate(col_ids):
                for p in unknown_members[sid]:
                    unknown.append((j + 1, p))
        matrix = distinct[:, np.asarray(col_ids, dtype=np.intp)]
        return cls(graph, horizon, matrix, unknown=unknown)


class TraceStream:
    """Chunked view of a schedule's occupancy trace: ``(start, TraceMatrix)``
    blocks of at most ``chunk`` holidays, covering ``1..horizon`` in order.

    Each yielded block is an ordinary :class:`TraceMatrix` whose *local*
    column ``j`` covers *global* holiday ``start + j``; its unknown pairs
    carry local holidays too.  The stream is re-iterable — every pass
    rebuilds blocks from the schedule — and only one block is ever
    resident, so memory is ``O(n × chunk)`` regardless of horizon.

    The kind of schedule is decided here, once, and nowhere else:

    * ``"periodic"`` — a :class:`~repro.core.schedule.PeriodicSchedule`
      whose table covers exactly the graph's nodes: every block comes
      straight from the ``(period, phase)`` table shifted to its window, and
      :class:`StreamedTrace` summarises it with :func:`periodic_summary`.  (A
      table evaluated against a different graph is read as happy sets,
      which tracks unknown nodes.)
    * ``"cyclic"`` — a cyclic :class:`~repro.core.schedule.ExplicitSchedule`
      of ``0 < C < horizon`` holidays: one cycle is materialised once, every
      block is a rotated tiling of it, and :class:`StreamedTrace` summarises
      it with :func:`cyclic_summary`.
    * ``"sets"`` — everything else, a cycle of at least ``horizon`` holidays
      included (read as its prefix, so no block is wider than the horizon):
      one block of happy sets is materialised at a time (a
      :class:`~repro.core.schedule.GeneratorSchedule` memoises what it
      generated unless it was built with a ``window=``).
    """

    def __init__(
        self,
        schedule: ScheduleOrSets,
        graph: ConflictGraph,
        horizon: int,
        chunk: Optional[int] = None,
        backend: str = "auto",
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon!r}")
        self.chunk = DEFAULT_CHUNK if chunk is None else int(chunk)
        if self.chunk < 1:
            raise ValueError(f"chunk width must be >= 1, got {chunk!r}")
        self.schedule = schedule
        self.graph = graph
        self.horizon = horizon
        resolve_backend(backend)
        self._cycle: Optional[TraceMatrix] = None
        if isinstance(schedule, PeriodicSchedule) and set(schedule.assignments) == set(graph.nodes()):
            self._kind = "periodic"
        elif isinstance(schedule, ExplicitSchedule) and schedule.is_periodic() and 0 < len(schedule) < horizon:
            self._kind = "cyclic"
        else:
            self._kind = "sets"
            if not isinstance(schedule, Schedule) and len(schedule) < horizon:
                raise ValueError(
                    f"explicit sequence has only {len(schedule)} holidays, "
                    f"requested horizon {horizon}"
                )

    def __iter__(self) -> Iterator[Tuple[int, TraceMatrix]]:
        return self.blocks()

    def blocks(self, first: int = 1) -> Iterator[Tuple[int, TraceMatrix]]:
        """The blocks from the one containing holiday ``first`` to the end."""
        start = first - (first - 1) % self.chunk
        while start <= self.horizon:
            width = min(self.chunk, self.horizon - start + 1)
            yield start, self.block(start, width)
            start += width

    def block(self, start: int, width: int) -> TraceMatrix:
        """Build the single block covering holidays ``start..start+width-1``."""
        if self._kind == "periodic":
            return TraceMatrix._from_periodic(self.schedule, self.graph, width, start=start)
        if self._kind == "cyclic":
            return self._cyclic_block(start, width)
        return TraceMatrix._from_sets(self._window_sets(start, width), self.graph, width)

    def _window_sets(self, start: int, width: int) -> Sequence[FrozenSet[Node]]:
        if isinstance(self.schedule, Schedule):
            return self.schedule.prefix(width, start=start)
        return [frozenset(s) for s in self.schedule[start - 1 : start - 1 + width]]

    def _cycle_base(self) -> TraceMatrix:
        """The one materialised cycle every cyclic block is tiled from."""
        if self._cycle is None:
            length = len(self.schedule)
            cycle = [self.schedule.happy_set(t) for t in range(1, length + 1)]
            self._cycle = TraceMatrix._from_sets(cycle, self.graph, length)
        return self._cycle

    def _cyclic_block(self, start: int, width: int) -> TraceMatrix:
        base = self._cycle_base()
        length = base.horizon
        offset = (start - 1) % length
        unknown: List[Tuple[int, Node]] = []
        for t0, p in base._unknown:
            # occurrences of cycle holiday t0 within [start, start + width - 1]
            t = t0 + max(0, -(-(start - t0) // length)) * length
            while t <= start + width - 1:
                unknown.append((t - start + 1, p))
                t += length
        unknown.sort(key=lambda pair: pair[0])
        cols = (offset + np.arange(width, dtype=np.intp)) % length
        block = np.ascontiguousarray(base._matrix[:, cols])
        return TraceMatrix(self.graph, width, block, unknown=unknown)


class StreamedTrace(TraceView):
    """The trace of a schedule: the :class:`TraceView` query API over the
    blocks of a :class:`TraceStream`, at ``O(n × chunk)`` resident memory.

    The first summary query triggers **one pass** over the stream, folding
    block by block into a :class:`TraceSummary` that then answers every
    summary query, so the metric suite and the validator share a single
    pass.  A periodic or cyclic source skips the pass:
    :func:`periodic_summary` and :func:`cyclic_summary` give the same
    summary in closed form, for the graph's own edges and for every other
    edge set (foreign-graph ``legality_scan``, non-edge
    ``edge_collisions``), and under ``fail_fast`` cut it at the end of the
    chunk holding the first violation, as the block scan would.  Queries
    that *return* per-appearance data (``appearances``, ``gaps``,
    ``all_gaps``, ``happy_set``) take a positions pass over the blocks for
    every kind of schedule and are O(appearances) in their output —
    inherent to the question, not to the engine.

    A trace of one chunk (``chunk >= horizon``, as every dense trace is)
    keeps its block once a pass has built it, and every later pass reads
    that block; a trace of several chunks rebuilds its chunks on each pass.
    """

    mode = "stream"

    def __init__(
        self,
        schedule: ScheduleOrSets,
        graph: ConflictGraph,
        horizon: int,
        backend: str = "auto",
        chunk: Optional[int] = None,
    ) -> None:
        super().__init__(graph, horizon)
        resolve_backend(backend)
        self.chunk = DEFAULT_CHUNK if chunk is None else int(chunk)
        self.schedule = schedule
        # one re-iterable stream shared by every pass, so the cyclic fast
        # path materialises its cycle once, not once per query; also
        # validates horizon/chunk eagerly
        self._source = TraceStream(schedule, graph, horizon, chunk=self.chunk)
        #: the block of a one-chunk trace, kept once built
        self._block: Optional[TraceMatrix] = None

    def _blocks(self, first: int = 1) -> Iterator[Tuple[int, TraceMatrix]]:
        if self.chunk < self.horizon:
            return self._source.blocks(first)
        if self._block is None:
            self._block = self._source.block(1, self.horizon)
        return iter(((1, self._block),))

    def _fold_pass(self, edge_rows: Sequence[Tuple[int, int]], fail_fast: bool = False) -> TraceSummary:
        """The summary of the whole trace: in closed form for a periodic or
        cyclic source, otherwise the serial fold of every block."""
        cut = self.chunk if fail_fast else None
        if self._source._kind == "periodic":
            return periodic_summary(self.schedule, self._order, self.horizon, edge_rows, cut)
        if self._source._kind == "cyclic":
            return cyclic_summary(self._source._cycle_base(), self.horizon, edge_rows, cut)
        return super()._fold_pass(edge_rows, fail_fast)


class _DenseTrace(StreamedTrace):
    """A ``dense`` trace: the one-chunk stream, stamped with its mode."""

    mode = "dense"


def make_trace(
    schedule: ScheduleOrSets,
    graph: ConflictGraph,
    horizon: int,
    mode: str,
    chunk: Optional[int] = None,
) -> StreamedTrace:
    """The trace of ``schedule`` in the resolved horizon ``mode``: chunks of
    ``chunk`` holidays for ``"stream"``, one chunk of the whole horizon for
    ``"dense"``.  :func:`repro.core.metrics.build_trace` and
    :class:`TraceBatch` build every trace here."""
    if mode == "dense":
        return _DenseTrace(schedule, graph, horizon, chunk=horizon)
    return StreamedTrace(schedule, graph, horizon, chunk=chunk)


class TraceBatch:
    """``S`` schedules over one graph and horizon, scanned together.

    Member ``s`` is the trace :func:`make_trace` builds for schedule ``s``
    in the batch's resolved horizon mode — the trace a per-cell run of the
    same shape builds — and :meth:`scan` runs every member's summary pass,
    so a caller can time the shared trace cost apart from the queries.
    Members satisfy the shared-trace contract of
    :func:`repro.core.metrics.build_trace` (matching graph and horizon).
    Differential tests (``tests/core/test_batch.py``) assert every member
    query equals its per-cell counterpart.

    No module of the package builds a batch: the experiment engine runs
    every cell through its own trace.  The class stays while perfbench's
    span installer wraps it, and goes with the span change of ROADMAP
    item 1.
    """

    def __init__(
        self,
        schedules: Sequence[ScheduleOrSets],
        graph: ConflictGraph,
        horizon: int,
        backend: str = "auto",
        horizon_mode: str = "auto",
        chunk: Optional[int] = None,
    ) -> None:
        self.schedules: List[ScheduleOrSets] = list(schedules)
        if not self.schedules:
            raise ValueError("TraceBatch needs at least one schedule")
        self.graph = graph
        self.horizon = horizon
        resolve_backend(backend)
        self.chunk = DEFAULT_CHUNK if chunk is None else int(chunk)
        if self.chunk < 1:
            raise ValueError(f"chunk width must be >= 1, got {chunk!r}")
        #: the representation every member reports as its ``mode`` —
        #: resolved exactly like a per-cell trace of the same shape.
        self.member_mode = resolve_horizon_mode(horizon_mode, graph.num_nodes(), horizon)
        self._members = [
            make_trace(schedule, graph, horizon, self.member_mode, self.chunk)
            for schedule in self.schedules
        ]

    def __len__(self) -> int:
        return len(self._members)

    def member(self, s: int) -> StreamedTrace:
        """The trace of member ``s``."""
        if not (0 <= s < len(self._members)):
            raise IndexError(f"member {s} outside batch of {len(self._members)}")
        return self._members[s]

    def scan(self) -> None:
        """Run every member's summary pass once (idempotent).

        Triggered lazily by the first query of each member; callers that
        want the shared cost timed separately invoke it eagerly.
        """
        for trace in self._members:
            trace._scan()


def _scatter_columns(matrix, columns, index, on_unknown) -> None:
    """Fill ``matrix[row_of(p), col] = True`` for every ``(col, happy_set)``.

    Memberships are translated to row indices with a C-speed ``map`` over
    the index lookup; the rare column containing a node missing from the
    index rolls back its partial extend and is redone element-wise, routing
    missing nodes to ``on_unknown(col_key, node)``.  Marks are applied with
    one vectorized scatter instead of one scalar store per appearance.
    """
    lookup = index.__getitem__
    rows: List[int] = []
    cols: List[int] = []
    for key, happy in columns:
        mark = len(rows)
        try:
            rows.extend(map(lookup, happy))
        except KeyError:
            del rows[mark:]  # drop the partial extend, redo element-wise
            for p in happy:
                i = index.get(p)
                if i is None:
                    on_unknown(key, p)
                else:
                    rows.append(i)
        cols.extend(repeat(key, len(rows) - mark))
    if rows:
        matrix[np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)] = True
