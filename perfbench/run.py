"""perfbench — the repository's end-to-end benchmark, split by layer.

    python3 perfbench/run.py --workload {campaign,stream,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  Each workload runs in a process of
its own, so set-up time and peak RSS belong to it alone:

* ``campaign`` — store-backed experiment campaigns (``workloads.py``);
* ``stream``   — streamed reports at horizon 2²⁰ (``workloads.py``);
* ``serve``    — a keep-alive closed loop against ``repro-holiday serve``
  (``serve_load.py``).

``--trace 0`` measures the end-to-end metrics.  The run is split over
``CHILDREN`` processes; each sets the program up once (``setup_s`` is the
median of their set-ups) and replays the workload's seeded operation
sequence for ``--seconds / CHILDREN``.
``--trace 1`` gives the per-layer metrics instead: half the time untraced,
half with the spans of ``spans.py`` installed, and the difference between
the two halves is reported as the tracing overhead.

Every output is checked against the goldens in ``goldens/``; a mismatch,
exception, non-200 reply or timeout counts as a failed operation.  The last
line of standard output is the JSON result; the lines before it are a
readable report and the run's provenance.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

import harness
import serve_load
import spans

WORKLOADS = ("campaign", "stream", "serve")
#: processes per measured run, each set up once and measuring
#: ``seconds / CHILDREN``: the run reports medians over them, so one slow
#: process on a noisy machine moves a run's figures less.
CHILDREN = 4
#: scratch space inside the checkout (stores, server logs); removed after.
WORK_ROOT = harness.ROOT / ".bench_build" / "perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "analysis.engine.self_ms": "ms",
    "analysis.engine.cells_per_batch": "count",
    "algorithms.build_ms": "ms",
    "algorithms.build_calls": "count/op",
    "core.schedule.generate_ms": "ms",
    "core.schedule.holidays_generated": "count/op",
    "core.trace.build_ms": "ms",
    "core.trace.computed_mib": "MiB/op",
    "core.metrics.evaluate_ms": "ms",
    "core.validation.validate_ms": "ms",
    "api.session_self_ms": "ms",
    "io.store.lookup_ms": "ms",
    "io.store.put_ms": "ms",
    "io.store.hit_ratio": "ratio",
    "io.store.cells_probed": "count/op",
    "serve.handler_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.trace_cache.hit_ratio": "ratio",
    "serve.trace_cache.lookups": "count/op",
    "serve.trace_cache.evictions": "count/op",
    "serve.store.hit_ratio": "ratio",
    "perfbench.trace_overhead_pct": "%",
}


class CheckoutError(RuntimeError):
    """The benchmark is not running from the root of a source checkout."""


def check_checkout() -> None:
    if not (harness.SRC / "repro" / "cli.py").is_file():
        raise CheckoutError(f"no program source under {harness.SRC}; run from a source checkout")
    for name in ("campaign", "stream", "serve"):
        if not (harness.GOLDEN_DIR / f"{name}.json").is_file():
            raise CheckoutError(f"golden file goldens/{name}.json is missing")


# -- in-process workloads ----------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: bool,
              workdir: Path) -> Tuple[float, Dict]:
    """One ``workloads.py`` child; returns (set-up seconds, its measurements)."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(harness.BENCH_DIR / "workloads.py"), workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", str(workdir)]
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=harness.ROOT, env=env, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - began
        out, err = proc.communicate(timeout=seconds + 120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{workload} child failed (exit {proc.returncode}):\n{err[-3000:]}")
    if err:
        sys.stderr.write(err)
    return setup_s, json.loads(out.strip().splitlines()[-1])


def measure_in_process(workload: str, seed: int, seconds: float, work: Path) -> List[Dict]:
    parts = []
    for k in range(CHILDREN):
        setup_s, raw = run_child(workload, seed, seconds / CHILDREN, False, work / f"run{k}")
        raw["setup_s"] = setup_s
        raw["throughput"] = raw["units"] / sum(raw["latencies"])
        raw["peak_rss_mib"] = raw["peak_rss_kib"] / 1024.0
        parts.append(raw)
    return parts


def layers_in_process(workload: str, seed: int, seconds: float, work: Path) -> Dict:
    _, plain = run_child(workload, seed, seconds / 2, False, work / "untraced")
    _, traced = run_child(workload, seed, seconds / 2, True, work / "traced")
    return {"plain": plain, "traced": traced, "counters": {}}


# -- serve -------------------------------------------------------------------

def measure_serve(seed: int, seconds: float, work: Path) -> List[Dict]:
    golden = harness.load_golden("serve")
    parts = []
    for k in range(CHILDREN):
        raw = serve_load.measured_phase(work / f"run{k}", seed, seconds / CHILDREN, golden)
        raw["throughput"] = raw["answered"] / raw["elapsed"]
        parts.append(raw)
    return parts


def layers_serve(seed: int, seconds: float, work: Path) -> Dict:
    golden = harness.load_golden("serve")
    plain = serve_load.measured_phase(work / "untraced", seed, seconds / 2, golden)
    traced = serve_load.measured_phase(work / "traced", seed, seconds / 2, golden,
                                       spans_out=work / "spans.json")
    return {"plain": plain, "traced": traced, "counters": plain["counters"]}


# -- reporting ---------------------------------------------------------------

def end_to_end_metrics(parts: List[Dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Medians over the run's processes; the tail over all their samples
    (a p90 needs the pooled sample count)."""
    tail = harness.latency_summary([x for part in parts for x in part["latencies"]])
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "ops_per_s": statistics.median(p["throughput"] for p in parts),
        "p50_ms": statistics.median(1e3 * statistics.median(p["latencies"]) for p in parts),
        "tail_ms": tail["tail_ms"],
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in parts),
    }
    return values, tail


def per_layer_metrics(phases: Dict) -> Dict[str, float]:
    plain, traced = phases["plain"], phases["traced"]
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update(spans.layer_metrics(traced["spans"], traced["attempted"]))
    values.update(phases["counters"])
    overhead = statistics.fmean(traced["latencies"]) / statistics.fmean(plain["latencies"])
    values["perfbench.trace_overhead_pct"] = 100.0 * (overhead - 1.0)
    return values


def report(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict]:
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.4f} {units[name]}")
    return {name: harness.metric(value, units[name]) for name, value in values.items()}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: end-to-end benchmark split by layer")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        check_checkout()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            phases = (layers_serve(args.seed, args.seconds, work) if args.workload == "serve"
                      else layers_in_process(args.workload, args.seed, args.seconds, work))
            runs = [phases["plain"], phases["traced"]]
        else:
            runs = (measure_serve(args.seed, args.seconds, work) if args.workload == "serve"
                    else measure_in_process(args.workload, args.seed, args.seconds, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = harness.provenance(args.workload, args.seed, bool(args.trace))
    if args.trace:
        values, units = per_layer_metrics(phases), PER_LAYER_UNITS
        info["samples"] = {"untraced": runs[0]["attempted"], "traced": runs[1]["attempted"],
                           "spans": runs[1]["spans"]["spans"], "steps": runs[1]["spans"]["steps"]}
    else:
        try:
            values, tail = end_to_end_metrics(runs)
        except harness.RefusedRun as exc:
            print(f"perfbench: run refused: {exc}", file=sys.stderr)
            return 3
        units = END_TO_END_UNITS
        info["samples"] = {"operations": tail["samples"], "beyond_tail": tail["beyond_tail"],
                           "processes": len(runs)}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']}")
    metrics = report(values, units)
    print(f"  fail_share {failed / attempted if attempted else 0.0:.4f} "
          f"({failed} failed of {attempted} attempted)")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(harness.result_line(failed == 0, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
