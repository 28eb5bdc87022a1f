"""E14 — the streaming chunked trace engine: 10⁸-holiday horizons at bounded memory.

A dense node × holiday matrix has a ceiling: a 60-node workload at horizon
10⁸ would need ~6 GB.  The streaming mode (``horizon_mode="stream"``)
removes it: :class:`~repro.core.trace.StreamedTrace` summarises a periodic
schedule in closed form from its ``(period, phase)`` table
(:func:`repro.core.trace.periodic_summary`) and a cyclic one from its one
folded cycle (:func:`repro.core.trace.cyclic_summary`), no chunk at all, and
folds any other schedule's fixed-width
:class:`~repro.core.trace.TraceStream` chunks with gap and edge-collision
state carried across chunk boundaries, so the full metric suite and the
validator run in ``O(n × chunk)`` resident memory regardless of horizon.

This benchmark demonstrates exactly that claim and turns it into assertions:

1. **Equivalence** — at a dense-feasible horizon, ``dense`` and ``stream``
   produce identical reports and validation outcomes.
2. **Bounded memory** — the full run evaluates + validates the standard
   60-node society workload at horizon 10⁸ (``--quick``: 2·10⁶), asserting
   the peak traced allocation stays within a small multiple of one chunk —
   versus the ~6 GB a dense matrix would need.
3. **Cyclic closed form** — the schedule's *cyclic twin* (one global period
   as a cyclic :class:`~repro.core.schedule.ExplicitSchedule`) is summarised
   by folding its cycle and doubling it out (``cyclic_stream_stage``); its
   report must be *identical* to the periodic closed form's — two
   derivations that share no logic, checked against each other at the full
   horizon.
4. **Windowed generator** — an *aperiodic*, generator-backed scheduler
   (Phased Greedy with a sliding-window memo cache) streams a horizon far
   beyond its window, asserting the peak is bounded by the *eviction
   window*, not the horizon — closing the historical caveat that streaming
   bounded the trace but not the generator's cache.  The schedule is a
   lasso (E15): once its colour state repeats it replays its cycle instead
   of recolouring, and the stage records the transient ``T`` and cycle
   ``C`` it found.

Every stage is timed untraced, as the best of :data:`REPEATS` runs; its
``peak_traced_bytes`` comes from one more run under ``tracemalloc``, whose
bookkeeping slows every allocation and so is never timed.  Results land in
``BENCH_stream.json`` (see ``docs/bench_schema.md``).

Run as a script::

    python benchmarks/bench_e14_streaming.py [--quick] [--horizon H]
        [--chunk W] [--algorithm NAME]
        [--generator-horizon H] [--window W]

Notes: the default scheduler is perfectly periodic (``degree-periodic``), so
no schedule prefix is ever materialised — that is the fast path the 10⁸
claim rests on; its cyclic twin materialises one global period.  The
generator stage runs Phased Greedy, whose holidays still pass one by one
through the generator and the chunk fold, so its horizon is set in the
hundreds of thousands rather than 10⁸.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

from benchmarks.common import BENCH_SEED, bench_record, print_table, write_bench_json
from repro.algorithms.base import Scheduler
from repro.algorithms.phased_greedy import PhasedGreedyScheduler
from repro.algorithms.registry import get_scheduler
from repro.analysis.runner import run_scheduler
from repro.core.config import EngineConfig
from repro.core.schedule import ExplicitSchedule
from repro.core.trace import DEFAULT_CHUNK, dense_trace_bytes
from repro.graphs.suites import get_workload

FULL_HORIZON = 100_000_000
QUICK_HORIZON = 2_000_000
#: horizon of the dense-vs-stream equivalence stage (dense-feasible).
EQUIVALENCE_HORIZON = 200_000

#: the windowed-generator stage: an aperiodic Phased Greedy schedule
#: streamed far past its sliding window (full / --quick horizons).  Sized
#: in the 10⁵ range, not 10⁸: past its lasso a holiday costs no
#: recolouring, but each still passes through the generator's memo and the
#: chunk fold, so the stage demonstrates window-bounded memory, not
#: throughput.
GENERATOR_HORIZON = 400_000
QUICK_GENERATOR_HORIZON = 80_000
#: sliding-window width for the generator memo cache (holidays retained);
#: --quick shrinks it with the horizon so the horizon still dwarfs it.
GENERATOR_WINDOW = 1 << 14
QUICK_GENERATOR_WINDOW = 1 << 13

MIB = 1 << 20
#: untraced runs per stage; the recorded wall time is the best of them
REPEATS = 3
#: the engine every stage streams through, stamped as each record's
#: ``backend`` (``sets``, the frozenset reference, has no streaming mode)
BACKEND = "numpy"


class CyclicTwin:
    """A periodic scheduler whose schedules are run as their cyclic twins —
    one global period as a cyclic :class:`ExplicitSchedule`: the same
    trace, summarised from its one cycle."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner, self.info, self.name = inner, inner.info, inner.name

    def build(self, graph, seed: int = 0) -> ExplicitSchedule:
        schedule = self.inner.build(graph, seed=seed)
        return ExplicitSchedule(
            graph, schedule.prefix(schedule.global_period()), cyclic=True, validate=False
        )

    def bound_function(self, graph):
        return self.inner.bound_function(graph)


def society_workload():
    """The standard 60-node benchmark society (same seed as E1–E5)."""
    return get_workload("society", seed=BENCH_SEED, graph_name="society-60")


def memory_budget(num_nodes: int, chunk: int) -> int:
    """The peak-allocation bound the streaming run must stay under.

    One resident chunk costs ``dense_trace_bytes(n, chunk)``; the builder,
    the per-chunk index arrays and the accumulators are worth a few more
    chunk-multiples; the graph, schedule and interpreter noise a fixed
    floor.  The budget is deliberately generous — the point is that it is a
    function of the *chunk*, not of the horizon.
    """
    return 10 * dense_trace_bytes(num_nodes, chunk) + 48 * MIB


def equivalence_check(graph, algorithm: str, chunk: int):
    """Assert dense and stream runs agree report-for-report."""
    horizon = EQUIVALENCE_HORIZON
    dense = run_scheduler(
        get_scheduler(algorithm), graph, horizon=horizon, seed=1,
        config=EngineConfig(backend=BACKEND, horizon_mode="dense"),
    )
    stream = run_scheduler(
        get_scheduler(algorithm), graph, horizon=horizon, seed=1,
        config=EngineConfig(backend=BACKEND, horizon_mode="stream", chunk=chunk),
    )
    assert dense.horizon_mode == "dense" and stream.horizon_mode == "stream"
    if stream.report.summary() != dense.report.summary():
        raise AssertionError(
            f"stream diverges from dense at horizon {horizon}: "
            f"{stream.report.summary()} != {dense.report.summary()}"
        )
    assert stream.report.muls == dense.report.muls
    assert stream.report.periods == dense.report.periods
    assert stream.validation.ok == dense.validation.ok
    assert stream.bound_satisfied == dense.bound_satisfied
    return horizon


def measured(run):
    """Time ``run()`` untraced, best of :data:`REPEATS`, then run it once
    more under ``tracemalloc`` for its peak.

    Returns ``(seconds, peak_bytes, outcome)`` with the outcome of the
    fastest untraced run.
    """
    best, outcome = None, None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
        if best is None or seconds < best:
            best, outcome = seconds, result
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return best, peak, outcome


def streaming_run(graph, algorithm: str, horizon: int, chunk: int, cyclic: bool = False):
    """One streamed run: evaluate + validate at ``horizon`` (:func:`measured`).

    Returns ``(record, outcome)``.  Raises when the run is not actually
    streamed, is illegal, misses its bound, or exceeds the chunk-derived
    memory budget.  ``cyclic`` runs the scheduler's cyclic twin
    (:class:`CyclicTwin`; record metric ``cyclic_stream_stage``).
    """
    scheduler = CyclicTwin(get_scheduler(algorithm)) if cyclic else get_scheduler(algorithm)
    budget = memory_budget(graph.num_nodes(), chunk)
    dense_bytes = dense_trace_bytes(graph.num_nodes(), horizon)
    config = EngineConfig(backend=BACKEND, horizon_mode="stream", chunk=chunk)
    seconds, peak, outcome = measured(
        lambda: run_scheduler(scheduler, graph, horizon=horizon, seed=1, config=config)
    )

    assert outcome.horizon_mode == "stream"
    assert outcome.validation.ok, "streamed validation found violations"
    assert outcome.bound_satisfied, "streamed run misses the scheduler's bound"
    if peak > budget:
        raise AssertionError(
            f"peak traced memory {peak / MIB:.1f} MiB exceeds the chunk budget "
            f"{budget / MIB:.1f} MiB (chunk={chunk}, n={graph.num_nodes()})"
        )
    if horizon >= 10_000_000 and peak * 4 > dense_bytes:
        raise AssertionError(
            f"streaming saved less than 4x over dense ({peak} vs {dense_bytes} bytes)"
        )
    record = bench_record(
        "cyclic_stream_stage" if cyclic else "stream_measure_stage",
        horizon,
        seconds,
        BACKEND,
        workload=graph.name,
        scheduler=algorithm,
        form="cyclic" if cyclic else "periodic",
        horizon_mode="stream",
        chunk=chunk,
        num_chunks=-(-horizon // chunk),
        max_mul=int(outcome.report.max_mul),
        legal=1.0,
        bound_satisfied=1.0,
        build_seconds=outcome.build_seconds,
        measure_seconds=outcome.measure_seconds,
        peak_traced_bytes=int(peak),
        budget_bytes=int(budget),
        dense_estimate_bytes=int(dense_bytes),
        dense_to_peak_ratio=round(dense_bytes / peak, 2) if peak else None,
    )
    return record, outcome


def assert_same_report(outcome, reference, label: str, reference_label: str) -> None:
    """Raise unless two streamed runs produced the same report and verdict."""
    if outcome.report.summary() != reference.report.summary():
        raise AssertionError(
            f"{label} diverges from {reference_label}: "
            f"{outcome.report.summary()} != {reference.report.summary()}"
        )
    assert outcome.report.muls == reference.report.muls
    assert outcome.validation.ok == reference.validation.ok


def generator_memory_budget(window: int, chunk: int, num_nodes: int) -> int:
    """The peak-allocation bound of the windowed-generator stage.

    A function of the *window* and the *chunk* only — never the horizon:
    the sliding memo cache retains at most ``2·window`` happy sets (a
    generous 2 KiB each covers the frozensets plus list slots), one chunk
    of sets plus one chunk matrix are live while a block is built, and the
    usual interpreter floor.  An unwindowed Phased Greedy cache would grow
    linearly with the horizon instead.
    """
    return 2 * window * 2048 + 10 * dense_trace_bytes(num_nodes, chunk) + 48 * MIB


def generator_streaming_run(graph, horizon: int, window: int, chunk: int):
    """The windowed-generator stage: aperiodic Phased Greedy at ``horizon``.

    The scheduler's :class:`~repro.core.schedule.GeneratorSchedule` keeps a
    sliding window of ``window`` holidays, so the whole evaluate + validate
    pipeline (which shares one streaming summary pass) runs at memory
    bounded by ``window``/``chunk`` — asserted against
    :func:`generator_memory_budget` (:func:`measured`).  The record carries
    the lasso the schedule found (``transient``/``cycle``, None if none).
    """
    assert window >= chunk, "the window must cover at least one chunk"
    assert horizon >= 8 * window, "horizon must dwarf the window for the claim to mean anything"
    scheduler = PhasedGreedyScheduler(initial_coloring="greedy", window=window)
    budget = generator_memory_budget(window, chunk, graph.num_nodes())
    config = EngineConfig(backend=BACKEND, horizon_mode="stream", chunk=chunk)
    seconds, peak, outcome = measured(
        lambda: run_scheduler(scheduler, graph, horizon=horizon, seed=1, config=config)
    )

    assert outcome.horizon_mode == "stream"
    assert outcome.validation.ok, "windowed generator validation found violations"
    assert outcome.bound_satisfied, "windowed generator misses the deg+1 bound"
    schedule = outcome.schedule
    assert schedule.evicted_below >= horizon - 2 * window, "the window never evicted"
    if peak > budget:
        raise AssertionError(
            f"windowed-generator peak {peak / MIB:.1f} MiB exceeds the window budget "
            f"{budget / MIB:.1f} MiB (window={window}, chunk={chunk}) — the memo "
            "cache is scaling with the horizon again"
        )
    # (T, C) of the last run's lasso, None if it found none: a cycle longer
    # than the window can go unseen
    lasso = scheduler.last_lasso or (None, None)
    record = bench_record(
        "generator_stream_stage",
        horizon,
        seconds,
        BACKEND,
        workload=graph.name,
        scheduler="phased-greedy",
        horizon_mode="stream",
        chunk=chunk,
        window=window,
        transient=lasso[0],
        cycle=lasso[1],
        peak_traced_bytes=int(peak),
        budget_bytes=int(budget),
        max_mul=int(outcome.report.max_mul),
        legal=1.0,
        bound_satisfied=1.0,
        build_seconds=outcome.build_seconds,
        measure_seconds=outcome.measure_seconds,
    )
    return record, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"horizon {QUICK_HORIZON:,} instead of {FULL_HORIZON:,} (CI)")
    parser.add_argument("--horizon", type=int, default=None,
                        help="override the streamed horizon")
    parser.add_argument("--chunk", type=int, default=DEFAULT_CHUNK,
                        help=f"streaming chunk width (default {DEFAULT_CHUNK})")
    parser.add_argument("--algorithm", default="degree-periodic",
                        help="registered scheduler (default: degree-periodic, perfectly periodic)")
    parser.add_argument("--generator-horizon", type=int, default=None,
                        help="override the windowed-generator stage horizon")
    parser.add_argument("--window", type=int, default=None,
                        help=f"generator sliding-window width (default {GENERATOR_WINDOW}, "
                             f"--quick {QUICK_GENERATOR_WINDOW})")
    args = parser.parse_args(argv)

    horizon = args.horizon or (QUICK_HORIZON if args.quick else FULL_HORIZON)
    graph = society_workload()

    eq_horizon = equivalence_check(graph, args.algorithm, args.chunk)
    print(f"dense == stream at horizon {eq_horizon:,}: reports identical")

    serial, serial_outcome = streaming_run(graph, args.algorithm, horizon, args.chunk)
    cyclic, cyclic_outcome = streaming_run(graph, args.algorithm, horizon, args.chunk, cyclic=True)
    assert_same_report(cyclic_outcome, serial_outcome, "the cyclic twin", "the closed form")
    records = [serial, cyclic]
    print("cyclic twin == closed form: reports identical")

    gen_horizon = args.generator_horizon or (
        QUICK_GENERATOR_HORIZON if args.quick else GENERATOR_HORIZON
    )
    window = args.window or (QUICK_GENERATOR_WINDOW if args.quick else GENERATOR_WINDOW)
    # the chunk scan is not the bottleneck here (the generator is); a chunk
    # a quarter of the window keeps window >= chunk with headroom
    gen_chunk = max(1024, window // 4)
    gen_record, _ = generator_streaming_run(graph, gen_horizon, window, gen_chunk)
    records.append(gen_record)

    print_table(
        f"E14 streaming trace (backend {BACKEND}, {graph.name})",
        ["stage", "scheduler", "horizon", "chunk", "window",
         "seconds", "peak MiB", "budget MiB"],
        [[
            r["metric"].replace("_stage", ""),
            r["scheduler"],
            f"{r['horizon']:,}",
            r["chunk"],
            r.get("window", "-"),
            round(r["seconds"], 4),
            round(r["peak_traced_bytes"] / MIB, 1),
            round(r["budget_bytes"] / MIB, 1),
        ] for r in records],
    )

    path = write_bench_json(
        "stream",
        records,
        meta={
            "quick": args.quick,
            "repeats": REPEATS,
            "equivalence_horizon": eq_horizon,
            "workload_nodes": graph.num_nodes(),
            "workload_edges": graph.num_edges(),
        },
    )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# pytest entry point (explicit file runs; sized like --quick)
# ---------------------------------------------------------------------------

def test_e14_stream_bounded_memory():
    graph = society_workload()
    chunk = 1 << 16
    equivalence_check(graph, "degree-periodic", chunk)
    record, _ = streaming_run(graph, "degree-periodic", 500_000, chunk)
    assert record["peak_traced_bytes"] <= record["budget_bytes"]


def test_e14_cyclic_twin_matches_closed_form():
    graph = society_workload()
    chunk = 1 << 15
    _, closed_form = streaming_run(graph, "degree-periodic", 300_000, chunk)
    cyclic, cyclic_outcome = streaming_run(graph, "degree-periodic", 300_000, chunk, cyclic=True)
    assert_same_report(cyclic_outcome, closed_form, "the cyclic twin", "the closed form")
    assert cyclic["metric"] == "cyclic_stream_stage" and cyclic["form"] == "cyclic"
    assert cyclic["peak_traced_bytes"] <= cyclic["budget_bytes"]


def test_e14_generator_window_bounds_memory():
    graph = society_workload()
    record, _ = generator_streaming_run(graph, 40_000, window=4096, chunk=2048)
    assert record["peak_traced_bytes"] <= record["budget_bytes"]
    assert record["window"] == 4096


if __name__ == "__main__":
    sys.exit(main())
