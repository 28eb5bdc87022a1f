"""E5 — cross-algorithm comparison: who wins, and by how much.

Runs every scheduler family (the paper's three constructions plus the
baselines) over the shared workload set and reports the locality figure of
merit ``mul(p)/(deg(p)+1)`` (worst and mean), the fairness index, and
legality.  The qualitative shape expected from the paper:

* ``sequential`` is legal but maximally non-local (normalised gap ≈ n/deg);
* ``round-robin-color`` is bounded by the number of colors — fine on
  bipartite-ish graphs, poor for low-degree nodes on dense graphs;
* ``phased-greedy`` has the best locality (≤ 1 after normalisation) but is
  aperiodic and needs per-holiday communication;
* ``degree-periodic`` is within a factor 2 of phased-greedy and perfectly
  periodic — the paper's headline trade-off;
* ``color-periodic-omega`` sits between the two depending on the chromatic
  number of the workload;
* ``first-come-first-grab`` matches the fair share in expectation but has
  heavy-tailed worst-case gaps.

Also runnable as a script (``python benchmarks/bench_e5_comparison.py
[--quick] [--horizon H] [--jobs N]``): runs the comparison
through the declarative experiment engine (``--jobs`` fans cells out over
worker processes; with ``--jobs > 1`` a serial reference run is also timed,
its summaries asserted identical, and the wall-clock speedup recorded),
then times ``evaluate_schedule`` on the bit-parallel trace engine against
the ``backend="sets"`` reference over the same workload × scheduler grid,
asserts both engines produce identical report summaries, and writes
machine-readable ``BENCH_e5_comparison.json`` + ``BENCH_trace.json``
perf reports (see :func:`benchmarks.common.write_bench_json`).

Finally the *cache* stage runs a campaign of many small cells (quick
workloads × the periodic scheduler families × several seeds) cold, into a
fresh :class:`~repro.io.store.ResultStore`, and then warm: the warm run
resolves every cell from the store by content key and executes nothing.
The warm sink is asserted records-identical to the cold one modulo the
timing metrics and the ``cached: true`` provenance stamp, and the
wall-clock ratio is recorded as ``cache_speedup`` with the hit/miss counts.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.common import (
    bench_record,
    engine_bench_records,
    experiment_workloads,
    print_table,
    write_bench_json,
)
from repro.analysis.engine import ExperimentEngine, ExperimentSpec, TIMING_METRICS
from repro.analysis.runner import compare_schedulers
from repro.algorithms.registry import get_scheduler
from repro.core.metrics import evaluate_schedule
from repro.core.config import EngineConfig
from repro.io.results import record_to_json_line

WORKLOADS = experiment_workloads()
#: the engine the script-mode stages time against the ``sets`` reference,
#: stamped as each record's ``backend``
BACKEND = "numpy"
SCHEDULERS = [
    "sequential",
    "round-robin-color",
    "first-come-first-grab",
    "phased-greedy",
    "color-periodic-omega",
    "color-periodic-omega-dsatur",
    "degree-periodic",
]

#: The cache-stage grid: periodic families over many seeds.
CACHE_SCHEDULERS = (
    "sequential",
    "round-robin-color",
    "degree-periodic",
    "color-periodic-omega",
)
CACHE_SEEDS = tuple(range(8))
#: The cache stage's own horizon: the campaign regime of many small cells.
CACHE_HORIZON = 512
#: The warm wall is reported as best-of-N, so a single scheduler hiccup on a
#: noisy shared machine cannot flip the recorded ratio.
CACHE_REPEATS = 5


def run_comparison():
    return compare_schedulers(WORKLOADS, SCHEDULERS, experiment="E5", seed=1, certify_bound=True)


def test_e5_scheduler_comparison(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    headers = ["workload"] + SCHEDULERS
    for metric in ("max_norm_gap", "mean_norm_gap", "fairness", "max_mul"):
        pivot = results.pivot(metric)
        rows = [[w] + [round(pivot[w].get(s, float("nan")), 3) for s in SCHEDULERS] for w in sorted(pivot)]
        print_table(f"E5: {metric} per workload × scheduler", headers, rows)

    # every deterministic scheduler is legal and meets its advertised bound
    for record in results:
        assert record.metrics["legal"] == 1.0, (record.workload, record.algorithm)
        if "bound_satisfied" in record.metrics:
            assert record.metrics["bound_satisfied"] == 1.0, (record.workload, record.algorithm)

    # qualitative "who wins" claims
    norm = results.pivot("mean_norm_gap")
    wins = results.best_algorithm_per_workload("mean_norm_gap")
    for workload in WORKLOADS:
        row = norm[workload]
        # the §3 scheduler never does worse than the global sequential strawman
        assert row["phased-greedy"] <= row["sequential"] + 1e-9
        # phased greedy is within its fair-share landmark mul/(deg+1) <= 1
        assert row["phased-greedy"] <= 1.0 + 1e-9
        # the periodic degree-bound schedule pays at most the factor-2 periodicity
        # penalty over the fair share (period 2^ceil(log(d+1)) <= 2d)
        assert row["degree-periodic"] <= 2.0 + 1e-9

    print_table(
        "E5: most degree-local scheduler per workload",
        ["workload", "winner (mean normalised gap)"],
        [[w, wins[w]] for w in sorted(wins)],
    )
    benchmark.extra_info.update({w: wins[w] for w in wins})


# ---------------------------------------------------------------------------
# script mode: trace-engine speedup report (BENCH_trace.json)
# ---------------------------------------------------------------------------

def benchmark_grid(quick: bool = False):
    """The (workloads, schedulers) grid shared by script-mode reports.

    Reuses the module-level ``WORKLOADS`` rather than regenerating the
    graphs on every call.
    """
    workloads = dict(WORKLOADS)
    schedulers = list(SCHEDULERS)
    if quick:
        workloads = {k: workloads[k] for k in ("clique-12", "grid-8x8", "gnp-sparse")}
        schedulers = ["sequential", "phased-greedy", "degree-periodic"]
    return workloads, schedulers


def trace_speedup_report(horizon: int, quick: bool = False, grid=None):
    """Time ``evaluate_schedule`` per (workload, scheduler) on the trace
    engine vs the frozenset reference, asserting identical summaries.

    Returns ``(records, worst_speedup, geo_mean_speedup)`` where each record
    is one :func:`benchmarks.common.bench_record` row.
    """
    workloads, schedulers = grid if grid is not None else benchmark_grid(quick)

    records = []
    speedups = []
    for workload_name, graph in workloads.items():
        for scheduler_name in schedulers:
            schedule = get_scheduler(scheduler_name).build(graph, seed=1)
            # Warm any online generator so both engines read the same
            # memoised prefix and the timing isolates metric evaluation.
            schedule.prefix(horizon)

            start = time.perf_counter()
            fast = evaluate_schedule(schedule, graph, horizon, config=EngineConfig(backend=BACKEND))
            fast_seconds = time.perf_counter() - start

            start = time.perf_counter()
            reference = evaluate_schedule(schedule, graph, horizon, config=EngineConfig(backend="sets"))
            sets_seconds = time.perf_counter() - start

            if fast.summary() != reference.summary():
                raise AssertionError(
                    f"backend {BACKEND!r} diverges from 'sets' on "
                    f"{workload_name} × {scheduler_name}: "
                    f"{fast.summary()} != {reference.summary()}"
                )
            speedup = sets_seconds / fast_seconds if fast_seconds > 0 else float("inf")
            speedups.append(speedup)
            records.append(
                bench_record(
                    "evaluate_schedule", horizon, fast_seconds, BACKEND,
                    workload=workload_name, scheduler=scheduler_name,
                    sets_seconds=sets_seconds, speedup=round(speedup, 2),
                )
            )
    worst = min(speedups)
    geo_mean = 1.0
    for s in speedups:
        geo_mean *= s
    geo_mean **= 1.0 / len(speedups)
    return records, worst, geo_mean


def summary_pivots(results):
    """The report summaries used to compare two runs for equality.

    Everything except the timing metrics, pivoted workload × scheduler.
    """
    metrics = ("max_mul", "mean_mul", "max_norm_gap", "mean_norm_gap", "fairness", "legal")
    return {m: results.pivot(m) for m in metrics}


def stripped_records(results):
    """Canonical JSON per record with the provenance fields removed.

    Stricter than :func:`summary_pivots` (which keeps one value per
    workload × scheduler): the cache stage runs several seeds per pair,
    so equality must hold record by record.  Strips the timing metrics and
    the ``cached: true`` stamp — the two things allowed to differ between
    equivalent runs (a cold and a cache-warm one included).
    """
    from repro.analysis.records import ExperimentRecord
    from repro.io.store import CACHED_PARAM

    out = []
    for r in results:
        metrics = {k: v for k, v in r.metrics.items() if k not in TIMING_METRICS}
        params = {k: v for k, v in r.params.items() if k != CACHED_PARAM}
        out.append(record_to_json_line(
            ExperimentRecord(r.experiment, r.workload, r.algorithm, metrics, params)
        ))
    return out


def run_cached_comparison(workloads, horizon, store):
    """One cache-stage run against ``store``; returns ``(results, wall, stats)``.

    The first run over an empty store is the cold measurement, every later
    one resolves entirely from the cache.
    """
    spec = ExperimentSpec(
        name="E5-cache",
        workloads=tuple(workloads),
        algorithms=CACHE_SCHEDULERS,
        horizon=horizon,
        seeds=CACHE_SEEDS,
        config=EngineConfig(backend=BACKEND),
    )
    engine = ExperimentEngine(jobs=1, store=store, campaign="E5-cache-stage")
    start = time.perf_counter()
    results = engine.run(spec, workloads=workloads)
    return results, time.perf_counter() - start, engine.stats


def run_engine_comparison(workloads, schedulers, horizon, jobs):
    """One engine-driven comparison run; returns ``(results, wall_seconds)``."""
    start = time.perf_counter()
    results = compare_schedulers(
        workloads,
        schedulers,
        experiment="E5",
        horizon=horizon,
        seed=1,
        jobs=jobs,
        config=EngineConfig(backend=BACKEND),
    )
    return results, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small smoke grid for CI")
    parser.add_argument("--horizon", type=int, default=None, help="evaluation horizon (default: 2048 quick, 10000 full)")
    parser.add_argument("--jobs", type=int, default=1, help="engine worker processes for the comparison stage")
    args = parser.parse_args(argv)
    horizon = args.horizon or (2048 if args.quick else 10_000)

    grid = benchmark_grid(args.quick)
    records, worst, geo_mean = trace_speedup_report(horizon, grid=grid)
    print_table(
        f"E5 trace-engine speedup vs backend='sets' (horizon {horizon}, backend {BACKEND})",
        ["workload", "scheduler", "trace s", "sets s", "speedup"],
        [
            [r["workload"], r["scheduler"], round(r["seconds"], 4), round(r["sets_seconds"], 4), r["speedup"]]
            for r in records
        ],
    )
    print(f"worst speedup {worst:.2f}x, geometric mean {geo_mean:.2f}x over {len(records)} runs")

    workloads, schedulers = grid
    comparison_horizon = horizon if args.quick else None
    results, wall = run_engine_comparison(workloads, schedulers, comparison_horizon, args.jobs)
    meta = {"quick": args.quick, "jobs": args.jobs, "wall_seconds": round(wall, 4)}
    if args.jobs > 1:
        serial_results, serial_wall = run_engine_comparison(
            workloads, schedulers, comparison_horizon, jobs=1
        )
        if summary_pivots(results) != summary_pivots(serial_results):
            raise AssertionError(
                f"--jobs {args.jobs} report summaries diverge from --jobs 1"
            )
        parallel_speedup = serial_wall / wall if wall > 0 else float("inf")
        meta.update(
            {
                "serial_wall_seconds": round(serial_wall, 4),
                "parallel_speedup": round(parallel_speedup, 2),
            }
        )
        print(
            f"engine comparison: jobs={args.jobs} {wall:.2f}s vs jobs=1 {serial_wall:.2f}s "
            f"({parallel_speedup:.2f}x), summaries identical; note parallel_speedup "
            f"needs real cores"
        )
    else:
        print(f"engine comparison: jobs=1 {wall:.2f}s")

    # cache stage: a campaign cold into a fresh store, then warm.  The cold
    # run is measured once (the comparison stage above already warmed the
    # Python caches); the warm wall is best-of-N pure store lookups.
    cache_workloads, _ = benchmark_grid(quick=True)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "bench_cache.sqlite"
        from repro.io.store import ResultStore

        with ResultStore(store_path) as store:
            cold_results, cold_wall, cold_stats = run_cached_comparison(
                cache_workloads, CACHE_HORIZON, store
            )
            warm_wall = float("inf")
            warm_results = warm_stats = None
            for _ in range(CACHE_REPEATS):
                warm_results, wall_w, warm_stats = run_cached_comparison(
                    cache_workloads, CACHE_HORIZON, store
                )
                warm_wall = min(warm_wall, wall_w)
    if stripped_records(warm_results) != stripped_records(cold_results):
        raise AssertionError("cache-warm records diverge from cold records")
    if warm_stats["executed"] != 0 or warm_stats["cached"] != len(cold_results):
        raise AssertionError(f"warm run was not fully cached: {warm_stats}")
    cache_speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")
    meta.update(
        {
            "cache_horizon": CACHE_HORIZON,
            "cache_cold_wall_seconds": round(cold_wall, 4),
            "cache_warm_wall_seconds": round(warm_wall, 4),
            "cache_speedup": round(cache_speedup, 2),
        }
    )
    print(
        f"cache stage: {len(cold_results)} cells at horizon {CACHE_HORIZON}, "
        f"cold {cold_wall:.2f}s ({cold_stats['executed']} executed) vs warm "
        f"{warm_wall:.3f}s ({warm_stats['cached']} cache hits, 0 executed) — "
        f"{cache_speedup:.1f}x; warm sink records-identical to cold modulo "
        f"timing and the cached stamp"
    )

    e5_records = engine_bench_records(results)
    e5_records.append(
        bench_record(
            "cache_comparison", CACHE_HORIZON, warm_wall, BACKEND,
            cells=len(cold_results),
            cold_seconds=round(cold_wall, 4),
            cache_hits=warm_stats["cached"],
            cache_misses=warm_stats["executed"],
            cache_speedup=round(cache_speedup, 2),
        )
    )
    path_e5 = write_bench_json("e5_comparison", e5_records, meta=meta)
    path_trace = write_bench_json(
        "trace",
        records,
        meta={"quick": args.quick, "worst_speedup": round(worst, 2), "geo_mean_speedup": round(geo_mean, 2)},
    )
    print(f"wrote {path_e5} and {path_trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
