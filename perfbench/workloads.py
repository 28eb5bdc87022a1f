"""The in-process workloads, ``campaign`` and ``stream``, as a child process.

    PYTHONPATH=src python perfbench/workloads.py WORKLOAD --seed N --seconds S \
        --trace 0|1 --workdir DIR

``run.py`` starts these children so that set-up time and peak RSS belong
to the workload alone.  A child sets up (imports, graphs and schedules,
store warm-up), prints ``READY``, then replays the workload's seeded
operation sequence for ``--seconds`` seconds, checks every output against
the goldens and prints one JSON line of raw measurements.  With
``--trace 1`` the layer spans of ``spans.py`` are installed after set-up,
so they cover exactly the timed operations.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from repro.algorithms.registry import get_scheduler
from repro.analysis.engine import ExperimentEngine, ExperimentSpec
from repro.api import Session
from repro.core.config import EngineConfig
from repro.graphs.suites import get_workload
from repro.io.results import record_to_dict
from repro.io.store import ResultStore

import harness


class Campaign:
    """Store-backed campaigns of many small cells (``repro experiment``)."""

    unit = "cells"
    units_per_op = len(harness.CAMPAIGN_ALGORITHMS) * 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.plan = harness.CampaignPlan(seed)
        self.golden = harness.load_golden("campaign")["records"]
        self.store = ResultStore(workdir / "campaign.sqlite")
        for graph in self.plan.graphs:
            self._run(graph, (0,))

    def _run(self, graph, seeds):
        engine = ExperimentEngine(jobs=1, store=self.store)
        results = engine.run(ExperimentSpec(
            name=harness.CAMPAIGN_EXPERIMENT, workloads=(graph,),
            algorithms=harness.CAMPAIGN_ALGORITHMS, seeds=seeds,
        ))
        return engine.stats, results

    def op(self, i: int):
        return self._run(*self.plan.op(i))

    def check(self, i: int, output) -> bool:
        stats, results = output
        graph, seeds = self.plan.op(i)
        # seed s + 1 is new until the graph's seeds wrap around the pool
        first_lap = i // len(self.plan.graphs) < harness.CAMPAIGN_SEED_POOL
        executed = len(harness.CAMPAIGN_ALGORITHMS) if first_lap else 0
        if stats["total"] != self.units_per_op or stats["executed"] != executed:
            return False
        seen = set()
        for record in results:
            row = record_to_dict(record)
            seed = row["params"]["seed"]
            packed = self.golden[harness.pair_key(row["workload"], row["algorithm"])]
            expected = harness.packed_lookup(packed, seed)
            if row["workload"] != graph or harness.record_digest(row) != expected:
                return False
            seen.add((row["algorithm"], seed))
        return seen == {(a, s) for a in harness.CAMPAIGN_ALGORITHMS for s in seeds}

    def close(self) -> None:
        self.store.close()


class Stream:
    """Long-horizon streamed reports of prebuilt periodic schedules."""

    unit = "holidays"
    units_per_op = harness.STREAM_HORIZON

    def __init__(self, seed: int, workdir: Path) -> None:
        self.config = EngineConfig(horizon_mode="stream")
        self.plan = harness.StreamPlan(seed)
        self.golden = harness.load_golden("stream")["reports"]
        graphs = {g: get_workload(g) for g in harness.STREAM_GRAPHS}
        self.schedules = {
            (g, a): (graphs[g], get_scheduler(a).build(graphs[g], seed=0))
            for g in harness.STREAM_GRAPHS for a in harness.STREAM_ALGORITHMS
        }

    def op(self, i: int):
        graph, schedule = self.schedules[self.plan.op(i)]
        return Session(graph, self.config).report(schedule, horizon=harness.STREAM_HORIZON)

    def check(self, i: int, report) -> bool:
        return stream_verdict(report) == self.golden[harness.pair_key(*self.plan.op(i))]

    def close(self) -> None:
        pass


def stream_verdict(report) -> dict:
    """What the ``stream`` goldens pin: the report summary and the
    validation verdict."""
    return {
        "horizon": report.horizon,
        "summary": report.summary(),
        "ok": report.ok,
        "checked_holidays": report.validation.checked_holidays,
        "violations": len(report.validation.violations),
    }


WORKLOADS = {"campaign": Campaign, "stream": Stream}


def _checked(workload, i: int, output) -> bool:
    try:
        return workload.check(i, output)
    except (KeyError, TypeError, ValueError):  # malformed output or no golden
        return False


def measure(workload, seconds: float, recorder=None) -> dict:
    """Replay the workload's operations for ``seconds`` and return raw
    measurements; every output is checked after its operation is timed."""
    latencies = []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            output = workload.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failed += 1
            print(f"operation {i} raised {exc!r}", file=sys.stderr)
            i += 1
            continue
        latencies.append(time.perf_counter() - start)
        if not _checked(workload, i, output):
            failed += 1
            print(f"operation {i} differs from its golden", file=sys.stderr)
        i += 1
    return {
        "latencies": latencies,
        "attempted": i,
        "failed": failed,
        "units": i * workload.units_per_op,
        "unit": workload.unit,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": recorder.summary() if recorder is not None else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print("READY", flush=True)
    try:
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
        print(json.dumps(measure(workload, args.seconds, recorder)), flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
