"""Shared workloads and reporting helpers for the benchmark suite.

Every ``bench_e*.py`` module regenerates one experiment from EXPERIMENTS.md.
The helpers here keep the workloads identical across experiments (same
seeds, same graph sizes) so the numbers in EXPERIMENTS.md are reproducible
with a plain ``pytest benchmarks/ --benchmark-only``.

Run with ``-s`` to see the paper-style tables each experiment prints.

Besides the human-readable tables, experiments can emit machine-readable
perf reports through :func:`bench_record` / :func:`write_bench_json`: one
``BENCH_<name>.json`` file per experiment, each record carrying at least
``{metric, horizon, seconds, backend}`` so future sessions can track the
performance trajectory across PRs.  Files land in ``$REPRO_BENCH_DIR``
(default: the current working directory).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.analysis.engine import HorizonPolicy
from repro.analysis.records import ResultSet
from repro.analysis.tables import render_table
from repro.core.problem import ConflictGraph
from repro.graphs.suites import get_workload

BENCH_SEED = 20160711  # SPAA'16 started on 2016-07-11

class BenchEntry(NamedTuple):
    """One E-suite listing: what the experiment shows, over which horizon,
    in which horizon representation.  ``horizon`` is a human-readable label
    (the policy decides exact values per workload); ``mode`` is the horizon
    representation the script runs under (``dense`` / ``stream`` /
    ``dense+stream`` for the equivalence stages)."""

    description: str
    horizon: str
    mode: str


#: The E-suite: every experiment module under ``benchmarks/``, with a
#: one-line description plus the horizon and horizon mode it runs at, so
#: the listing is self-describing.  This is the canonical registry — the
#: CLI's ``experiment --list`` renders it (when run from a source
#: checkout), and a new ``bench_e*.py`` is not discoverable until it is
#: registered here.  Each module runs as ``python benchmarks/<name>.py``
#: (many accept ``--quick`` for a CI-sized grid).
BENCH_SUITE: Mapping[str, BenchEntry] = {
    "bench_e1_phased_greedy": BenchEntry(
        "Theorem 3.1: Phased Greedy achieves mul(p) <= deg(p)+1", "policy <= 8192", "dense"),
    "bench_e2_lower_bound": BenchEntry(
        "Theorem 4.1: the sum 1/f(c) <= 1 feasibility frontier", "analytic (no trace)", "-"),
    "bench_e3_elias_schedule": BenchEntry(
        "Theorem 4.2: the Elias-omega color-bound schedule", "policy <= 8192", "dense"),
    "bench_e4_degree_periodic": BenchEntry(
        "Theorem 5.3: the degree-bound perfectly periodic schedule", "policy <= 8192", "dense"),
    "bench_e5_comparison": BenchEntry(
        "cross-algorithm comparison + trace-engine speedup (BENCH_trace.json)",
        "10^4 (sweep to 10^6)", "dense"),
    "bench_e6_distributed_cost": BenchEntry(
        "distributed construction costs (rounds, messages, bits)", "construction only", "-"),
    "bench_e7_dynamic": BenchEntry(
        "Section 6 dynamic setting: marriages/divorces into a live schedule",
        "per-event windows", "dense"),
    "bench_e8_satisfaction": BenchEntry(
        "Appendix A: happiness vs satisfaction as one-shot problems", "one-shot", "-"),
    "bench_e9_radio": BenchEntry(
        "radio application: collision-free TDMA with per-node periods", "policy <= 8192", "dense"),
    "bench_e10_fcfg": BenchEntry(
        "first-come-first-grab baseline vs the fair-share landmark", "policy <= 8192", "dense"),
    "bench_e11_periodicity_gap": BenchEntry(
        "the Section 6 open problem: how much periodicity costs", "policy <= 8192", "dense"),
    "bench_e12_shapley": BenchEntry(
        "Appendix A.2: the hardness of being fair (Shapley values)", "one-shot", "-"),
    "bench_e13_coloring_ablation": BenchEntry(
        "initial-coloring ablation for the Section 4 scheduler", "policy <= 8192", "dense"),
    "bench_e14_streaming": BenchEntry(
        "streaming chunked trace: horizon 10^8 at bounded memory, closed-form + "
        "cyclic + windowed generator stages (BENCH_stream.json)",
        "10^8 (quick 2*10^6)", "dense+stream"),
    "bench_e15_lasso": BenchEntry(
        "Phased Greedy is a lasso: transient T, cycle C and holidays generated "
        "at the policy horizon (BENCH_lasso.json)",
        "until the repeat (cap 10^5, quick 2*10^4)", "-"),
}

#: display name -> workload-registry name, for the standard benchmark set.
#: The registry factories (:mod:`repro.graphs.suites`) are the single
#: definition of these graphs; the display names keep the historical sized
#: labels the EXPERIMENTS.md tables use.
BENCH_WORKLOAD_NAMES: Mapping[str, str] = {
    "clique-12": "clique",
    "star-20": "star",
    "bipartite-10x14": "bipartite",
    "cycle-40": "cycle",
    "grid-8x8": "grid",
    "tree-60": "tree",
    "gnp-sparse": "gnp-sparse",
    "gnp-dense": "gnp-dense",
    "powerlaw-60": "powerlaw",
    "society-60": "society",
}


#: graph-name overrides preserving the exact historical ``graph.name``
#: values (they feed seed-derivation labels, e.g. fcfg's per-graph stream,
#: so renaming a graph would silently change seeded schedules).
_BENCH_GRAPH_NAMES: Mapping[str, str] = {
    "gnp-sparse": "gnp-sparse",
    "gnp-dense": "gnp-dense",
    "society": "society-60",
}


def experiment_workloads(scale: int = 1) -> Dict[str, ConflictGraph]:
    """The standard workload set used by E1, E3, E4 and E5.

    Built from the workload registry with the fixed benchmark seed, so the
    graphs are identical across experiments and across PRs.
    """
    out: Dict[str, ConflictGraph] = {}
    for display, registry_name in BENCH_WORKLOAD_NAMES.items():
        params: Dict[str, object] = {"seed": BENCH_SEED, "scale": scale}
        if registry_name in _BENCH_GRAPH_NAMES:
            params["graph_name"] = _BENCH_GRAPH_NAMES[registry_name]
        out[display] = get_workload(registry_name, **params)
    return out


def horizon_for_bound(worst_bound: float, minimum: int = 64, multiplier: int = 3, cap: int = 8192) -> int:
    """A horizon long enough to witness a per-node bound several times over.

    Delegates to :class:`repro.analysis.engine.HorizonPolicy` — the one
    horizon rule shared with ``analysis.runner.choose_horizon``.
    """
    return HorizonPolicy(multiplier=multiplier, minimum=minimum, cap=cap).for_bound(worst_bound)


def print_table(title: str, headers: Sequence[str], rows: List[Sequence[object]]) -> None:
    """Print one paper-style table (visible under ``pytest -s``)."""
    print()
    print(render_table(headers, rows, title=title))
    print()


def engine_bench_records(
    results: ResultSet, value_metric: str = "mean_norm_gap"
) -> List[Dict[str, object]]:
    """Turn engine :class:`~repro.analysis.records.ExperimentRecord`\\ s into
    the flat ``BENCH_*.json`` rows this module writes.

    Each row times the measurement stage (trace build + metric suite +
    validation) of one cell and carries the chosen quality metric so the
    perf trajectory and the paper numbers travel together.
    """
    rows: List[Dict[str, object]] = []
    for r in results:
        rows.append(
            bench_record(
                "measure_stage",
                int(r.params["horizon"]),
                float(r.metrics["measure_seconds"]),
                str(r.params.get("backend", "auto")),
                workload=r.workload,
                scheduler=r.algorithm,
                value=r.metrics.get(value_metric),
                build_seconds=r.metrics.get("build_seconds"),
            )
        )
    return rows


#: the workload triple every engine script mode uses under ``--quick``.
QUICK_WORKLOADS = ("clique", "grid", "gnp-sparse")


def run_engine_script(
    argv,
    *,
    name: str,
    algorithms: Sequence[str],
    bench_name: str,
    check_record: Callable[[object], None],
    row_fn: Callable[[object], List[object]],
    table_title: str,
    table_headers: Sequence[str],
    value_metric: str = "mean_norm_gap",
) -> int:
    """The shared script-mode harness for engine-driven benchmarks (E1, E4).

    Parses ``--quick``/``--jobs``, runs one :class:`ExperimentSpec` over the
    standard workload set, applies ``check_record`` to every record (raise
    to fail), prints a table built by ``row_fn`` and writes
    ``BENCH_<bench_name>.json`` from the engine records.
    """
    from repro.analysis.engine import ExperimentEngine, ExperimentSpec

    parser = argparse.ArgumentParser(description=table_title)
    parser.add_argument("--quick", action="store_true", help="three-workload smoke grid for CI")
    parser.add_argument("--jobs", type=int, default=1, help="engine worker processes")
    args = parser.parse_args(argv)

    names = list(QUICK_WORKLOADS) if args.quick else list(BENCH_WORKLOAD_NAMES.values())
    spec = ExperimentSpec(
        name=name,
        workloads=tuple(names),
        algorithms=tuple(algorithms),
        workload_params={"seed": BENCH_SEED},
    )
    engine = ExperimentEngine(jobs=args.jobs)
    results = engine.run(spec)

    rows = []
    for record in results:
        check_record(record)
        rows.append(row_fn(record))
    print_table(table_title, list(table_headers), rows)
    path = write_bench_json(
        bench_name,
        engine_bench_records(results, value_metric=value_metric),
        meta={"quick": args.quick, "jobs": args.jobs,
              "wall_seconds": round(float(engine.stats["wall_seconds"]), 4)},
    )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# machine-readable perf reports (BENCH_*.json)
# ---------------------------------------------------------------------------

def bench_record(
    metric: str,
    horizon: int,
    seconds: float,
    backend: str,
    **extra: object,
) -> Dict[str, object]:
    """One perf observation: what was measured, over which horizon, on which
    trace engine, and how long it took.  Extra keyword pairs (workload,
    scheduler, speedup, ...) are stored verbatim."""
    record: Dict[str, object] = {
        "metric": metric,
        "horizon": int(horizon),
        "seconds": float(seconds),
        "backend": backend,
    }
    record.update(extra)
    return record


def bench_output_dir() -> Path:
    """Directory for ``BENCH_*.json`` files (``$REPRO_BENCH_DIR`` or cwd)."""
    return Path(os.environ.get("REPRO_BENCH_DIR", "."))


def write_bench_json(
    name: str,
    records: Sequence[Mapping[str, object]],
    meta: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    The payload is ``{"experiment", "created", "python", "records": [...]}``
    plus any ``meta`` pairs — flat JSON, append-friendly for CI artifact
    upload and later cross-PR comparison.
    """
    payload: Dict[str, object] = {
        "experiment": name,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "records": [dict(r) for r in records],
    }
    if meta:
        payload.update(meta)
    out = bench_output_dir() / f"BENCH_{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out
