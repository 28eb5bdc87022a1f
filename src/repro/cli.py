"""Command-line interface for the holiday-gathering scheduler.

Installed as ``repro-holiday`` (see ``setup.py``); also runnable as
``python -m repro.cli``.  Subcommands:

``generate``
    Create a workload conflict graph (clique, star, G(n,p), power-law or a
    random marriage society) and write it to an edge-list or JSON file.

``schedule``
    Build a schedule for a graph file with any registered algorithm, print a
    holiday calendar and per-family statistics, optionally export the
    calendar as CSV and (for perfectly periodic algorithms) the schedule
    itself as JSON.  ``--horizon-mode stream`` evaluates arbitrarily long
    horizons (10⁸ and beyond) in fixed-width chunks at bounded memory.

``compare``
    Run several algorithms over the same graph and print the comparison
    table used in benchmark E5.

``bounds``
    Print the per-family theoretical bounds (Theorems 3.1, 4.2, 5.3) next to
    each family's degree.

``satisfaction``
    Appendix A analysis of a society JSON file: maximum satisfaction via
    matching, the linear-time algorithm, and the alternating schedule gap.

``experiment``
    Run a declarative experiment — named workloads × registered algorithms
    × parameter grid × seeds — through the parallel, resumable engine
    (:mod:`repro.analysis.engine`), streaming records to a JSONL file.
    The spec comes from a JSON file (``--spec``) or from flags; ``--jobs``
    fans cells out over worker processes, ``--resume`` skips cells already
    present in the output, ``-v`` shows per-cell progress.  ``--store``
    attaches a persistent :class:`~repro.io.store.ResultStore`: cells any
    previous campaign already computed replay from the store (stamped
    ``cached: true``) instead of executing, ``--no-cache`` forces
    re-execution while still recording results, and ``--campaign`` tags
    the run in the store.

``results``
    Operate on a persistent result store: ``results import`` loads a JSONL
    sink into a store, ``results export`` writes (optionally filtered)
    store records back out as JSONL, ``results campaigns`` lists recorded
    campaigns.  JSONL stays the wire format; the store adds indexed
    cross-campaign lookup.

``lint``
    Invariant-aware static analysis (:mod:`repro.devtools`): the project's
    determinism, picklability and hashing contracts enforced at the AST
    level.  Same tool as the ``repro-lint`` console script; all arguments
    pass through (``lint src/``, ``lint --list-rules``).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.analysis.engine import ExperimentEngine, ExperimentSpec
from repro.analysis.runner import compare_schedulers, run_scheduler
from repro.analysis.tables import render_table
from repro.coloring.greedy import greedy_coloring
from repro.core.bounds import bound_table
from repro.core.config import EngineConfig, config_with
from repro.core.problem import ConflictGraph
from repro.core.schedule import PeriodicSchedule
from repro.graphs.families import clique, star
from repro.graphs.random_graphs import barabasi_albert, erdos_renyi
from repro.graphs.society import random_society
from repro.graphs.suites import available_workloads
from repro.io.graphs import load_edge_list, read_graph_json, save_edge_list, write_graph_json
from repro.io.schedules import save_periodic_schedule, write_calendar_csv
from repro.io.societies import load_society, save_society
from repro.satisfaction.satisfaction import (
    alternating_satisfaction_schedule,
    max_satisfaction_by_matching,
    satisfaction_gaps,
    single_child_first_satisfaction,
)
from repro.utils.logging import configure as configure_logging

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_graph(path: str) -> ConflictGraph:
    file = Path(path)
    if not file.exists():
        raise SystemExit(f"error: graph file {path!r} does not exist")
    if file.suffix.lower() == ".json":
        return read_graph_json(file)
    return load_edge_list(file)


def _write_graph(graph: ConflictGraph, path: str) -> None:
    if Path(path).suffix.lower() == ".json":
        write_graph_json(graph, path)
    else:
        save_edge_list(graph, path)


def _backend_arg(value: str) -> str:
    """``--backend`` values, rejected at parse time with the config's error."""
    try:
        EngineConfig(backend=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _positive_int(value: str) -> int:
    """Counts and widths (``--horizon``, ``--chunk``), rejected at parse
    time unless they are >= 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Register the shared trace-engine flags on a subcommand.

    One registration shared by ``schedule``/``compare``/``experiment``/
    ``serve`` (it used to be copied per subcommand): ``--backend``,
    ``--horizon-mode`` and ``--chunk``.
    Every flag defaults to ``None`` = "not given", so
    :func:`engine_overrides` can layer only the flags the user typed over a
    spec's config.
    """
    parser.add_argument(
        "--backend",
        default=None,
        type=_backend_arg,
        metavar="{auto,numpy,sets}",
        help=(
            "evaluation engine: the numpy trace engine (auto/numpy) or the "
            "frozenset reference (sets)"
        ),
    )
    parser.add_argument(
        "--horizon-mode",
        default=None,
        choices=["auto", "dense", "stream"],
        help=(
            "horizon representation: one dense n × horizon matrix, streamed "
            "fixed-width chunks at O(n × chunk) memory, or auto (dense until "
            "the matrix would exceed ~256 MiB)"
        ),
    )
    parser.add_argument(
        "--chunk",
        type=_positive_int,
        default=None,
        metavar="W",
        help="streaming chunk width in holidays (default: 262144)",
    )


def engine_overrides(args: argparse.Namespace) -> dict:
    """The :class:`EngineConfig` fields the user actually set via flags."""
    overrides = {}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.horizon_mode is not None:
        overrides["horizon_mode"] = args.horizon_mode
    if args.chunk is not None:
        overrides["chunk"] = args.chunk
    return overrides


def config_from_args(
    args: argparse.Namespace, base: Optional[EngineConfig] = None
) -> EngineConfig:
    """Build the run's :class:`EngineConfig` from the shared engine flags.

    Flags the user typed override ``base`` (a spec's config, or the
    defaults); the combination is validated up front — including the
    backend name and the sets/stream conflict — so a bad flag dies with a
    clean one-line error instead of a traceback in a worker process.
    """
    try:
        return config_with(base, **engine_overrides(args))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "clique":
        graph = clique(args.size)
    elif kind == "star":
        graph = star(args.size)
    elif kind == "gnp":
        graph = erdos_renyi(args.size, args.p, seed=args.seed)
    elif kind == "powerlaw":
        graph = barabasi_albert(args.size, max(args.m, 1), seed=args.seed)
    elif kind == "society":
        society = random_society(
            args.size,
            mean_children=args.mean_children,
            marriage_fraction=args.marriage_fraction,
            seed=args.seed,
        )
        if args.society_out:
            save_society(society, args.society_out)
            print(f"wrote society JSON to {args.society_out}")
        graph = society.conflict_graph(name=f"society-{args.size}")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown graph kind {kind!r}")
    _write_graph(graph, args.output)
    print(f"wrote {graph.num_nodes()} nodes / {graph.num_edges()} edges to {args.output}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    scheduler = get_scheduler(args.algorithm)
    outcome = run_scheduler(
        scheduler,
        graph,
        horizon=args.horizon,
        seed=args.seed,
        config=config_from_args(args),
    )
    schedule = outcome.schedule

    calendar_years = min(args.calendar_years, outcome.horizon)
    rows = [
        [year, ", ".join(sorted(str(p) for p in happy)) or "(nobody)"]
        for year, happy in schedule.iter_holidays(calendar_years)
    ]
    print(render_table(["holiday", "hosting families"], rows, title=f"{args.algorithm} on {graph.name}"))
    print()

    stats_rows = [
        [
            str(p),
            graph.degree(p),
            outcome.report.muls[p],
            outcome.report.periods[p] if outcome.report.periods[p] is not None else "varies",
        ]
        for p in graph.nodes()
    ]
    print(render_table(["family", "degree", "worst wait", "observed period"], stats_rows))
    print()
    print(f"max mul = {outcome.report.max_mul}, legal = {outcome.validation.ok}, "
          f"bound satisfied = {outcome.bound_satisfied}")

    if args.calendar_csv:
        write_calendar_csv(schedule, outcome.horizon, args.calendar_csv)
        print(f"wrote calendar CSV to {args.calendar_csv}")
    if args.save_schedule:
        if isinstance(schedule, PeriodicSchedule):
            save_periodic_schedule(schedule, args.save_schedule)
            print(f"wrote periodic schedule JSON to {args.save_schedule}")
        else:
            print("note: --save-schedule ignored (the chosen algorithm is not perfectly periodic)")
    return 0 if outcome.validation.ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    algorithms = args.algorithms or [
        "sequential",
        "round-robin-color",
        "phased-greedy",
        "color-periodic-omega",
        "degree-periodic",
    ]
    unknown = [a for a in algorithms if a not in available_schedulers()]
    if unknown:
        raise SystemExit(f"error: unknown algorithm(s): {', '.join(unknown)}")
    results = compare_schedulers(
        {graph.name: graph},
        algorithms,
        horizon=args.horizon,
        seed=args.seed,
        config=config_from_args(args),
    )
    metrics = ["max_mul", "mean_mul", "max_norm_gap", "mean_norm_gap", "fairness"]
    rows = [[r.algorithm] + [r.metrics.get(m) for m in metrics] for r in results]
    print(render_table(["algorithm"] + metrics, rows, title=f"comparison on {graph.name}"))
    winner = results.best_algorithm_per_workload("mean_norm_gap")[graph.name]
    print(f"\nmost degree-local schedule: {winner}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    coloring = greedy_coloring(graph)
    table = bound_table(graph, coloring.colors)
    headers = ["family", "degree", "Δ+1", "Thm3.1 deg+1", "Thm5.3 2^⌈log(d+1)⌉", "color", "Thm4.2 2^ρ(c)"]
    rows = [
        [
            str(p),
            row["degree"],
            row["delta_plus_one"],
            row["thm31_degree_plus_one"],
            row["thm53_periodic_degree"],
            row["color"],
            row["thm42_exact_period"],
        ]
        for p, row in table.items()
    ]
    print(render_table(headers, rows, title=f"paper bounds for {graph.name}"))
    return 0


def cmd_satisfaction(args: argparse.Namespace) -> int:
    society = load_society(args.society)
    matching = max_satisfaction_by_matching(society)
    linear = single_child_first_satisfaction(society)
    schedule = alternating_satisfaction_schedule(society, horizon=args.horizon)
    gaps = satisfaction_gaps(schedule, society)
    print(
        render_table(
            ["quantity", "value"],
            [
                ["families", society.num_families()],
                ["couples", society.num_couples()],
                ["max satisfaction (matching)", matching.num_satisfied],
                ["max satisfaction (single-child-first)", linear.num_satisfied],
                ["trivially satisfied", len(matching.trivially_satisfied)],
                ["worst alternating-schedule gap", max(gaps.values()) if gaps else 0],
            ],
            title="Appendix A satisfaction analysis",
        )
    )
    return 0 if matching.num_satisfied == linear.num_satisfied else 1


def _parse_grid(pairs: Sequence[str]) -> dict:
    """Parse ``key=v1,v2,...`` grid flags; values go through JSON when possible."""
    grid = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"error: --grid expects key=v1,v2 pairs, got {pair!r}")
        key, _, values = pair.partition("=")
        parsed = []
        for token in values.split(","):
            try:
                parsed.append(json.loads(token))
            except ValueError:
                parsed.append(token)
        grid[key.strip()] = parsed
    return grid


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.verbose:
        configure_logging(logging.INFO)

    if args.list:
        print(render_table(["workload"], [[w] for w in available_workloads()], title="registered workloads"))
        print()
        print(render_table(["algorithm"], [[a] for a in available_schedulers()], title="registered algorithms"))
        try:  # the E-suite ships next to the source tree, not in the package
            from benchmarks.common import BENCH_SUITE
        except ImportError:
            BENCH_SUITE = None
        if BENCH_SUITE:
            print()
            print(
                render_table(
                    ["benchmark", "horizon", "mode", "description"],
                    [
                        [name, entry.horizon, entry.mode, entry.description]
                        for name, entry in BENCH_SUITE.items()
                    ],
                    title="benchmark suite (python benchmarks/<name>.py)",
                )
            )
        return 0

    if args.spec:
        try:
            spec = ExperimentSpec.from_json(args.spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"error: cannot load spec {args.spec!r}: {exc}")
        # flags override the corresponding spec fields when given; engine
        # flags layer over the spec's config field by field, so e.g.
        # --backend numpy keeps a spec's chunk width
        overrides = {}
        if args.name is not None:
            overrides["name"] = args.name
        if args.workloads:
            overrides["workloads"] = tuple(args.workloads)
        if args.algorithms:
            overrides["algorithms"] = tuple(args.algorithms)
        if args.seeds is not None:
            overrides["seeds"] = tuple(args.seeds)
        if args.horizon is not None:
            overrides["horizon"] = args.horizon
        if args.grid:
            overrides["grid"] = _parse_grid(args.grid)
        if engine_overrides(args):
            overrides["config"] = config_from_args(args, base=spec.config)
        if overrides:
            try:
                spec = replace(spec, **overrides)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
    else:
        if not args.workloads:
            raise SystemExit("error: give --workloads (or --spec spec.json); see --list")
        try:
            spec = ExperimentSpec(
                name=args.name or "experiment",
                workloads=tuple(args.workloads),
                algorithms=tuple(args.algorithms or ["phased-greedy", "color-periodic-omega", "degree-periodic"]),
                grid=_parse_grid(args.grid or []),
                seeds=tuple(args.seeds if args.seeds is not None else [0]),
                horizon=args.horizon,
                config=config_from_args(args),
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")

    unknown = [a for a in spec.algorithms if a not in available_schedulers()]
    if unknown:
        raise SystemExit(f"error: unknown algorithm(s): {', '.join(unknown)}")
    try:
        spec.resolved_workloads()
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")

    if args.save_spec:
        spec.to_json(args.save_spec)
        print(f"wrote spec JSON to {args.save_spec}")

    if args.resume and not args.output and not args.store:
        raise SystemExit(
            "error: --resume needs --output (or --store) to know which records already exist"
        )
    if args.no_cache and not args.store:
        raise SystemExit("error: --no-cache only makes sense together with --store")
    if args.campaign and not args.store:
        raise SystemExit("error: --campaign only makes sense together with --store")
    store = None
    if args.store:
        from repro.io.store import ResultStore

        store = ResultStore(args.store)
    try:
        engine = ExperimentEngine(
            jobs=args.jobs,
            sink=args.output,
            resume=args.resume,
            store=store,
            cache=not args.no_cache,
            campaign=args.campaign,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        results = engine.run(spec)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    finally:
        if store is not None:
            store.close()

    metrics = ["max_mul", "mean_norm_gap", "fairness", "legal"]
    rows = [
        [r.workload, r.algorithm, r.params.get("seed")] + [r.metrics.get(m) for m in metrics]
        for r in results
    ]
    print(render_table(["workload", "algorithm", "seed"] + metrics, rows, title=f"experiment {spec.name}"))
    stats = engine.stats
    print(
        f"\n{stats['total']} cells in {stats['wall_seconds']:.2f}s "
        f"({stats['executed']} executed, {stats['cached']} cached, "
        f"{stats['skipped']} resumed, jobs={args.jobs})"
    )
    if args.output:
        print(f"records streamed to {args.output}")
    if args.store:
        print(f"result store: {args.store}")
    illegal = [r for r in results if r.metrics.get("legal") != 1.0]
    return 1 if illegal else 0


def service_from_args(args: argparse.Namespace):
    """Build the :class:`~repro.serve.service.SchedulingService` + HTTP server
    a ``repro serve`` invocation describes, without starting the serve loop.

    Factored out of :func:`cmd_serve` so tests (and embedders) can construct
    the exact server the CLI would run and drive it in-process.  Returns
    ``(service, server)``; the caller owns both (``server.server_close()``
    and ``service.store.close()`` when done).
    """
    from repro.serve import DEFAULT_CACHE_BYTES, SchedulingService, TraceCache, make_server

    cache_bytes = DEFAULT_CACHE_BYTES if args.cache_bytes is None else args.cache_bytes
    if cache_bytes < 0:
        raise SystemExit(f"error: --cache-bytes must be >= 0, got {cache_bytes}")
    if args.max_horizon < 1:
        raise SystemExit(f"error: --max-horizon must be >= 1, got {args.max_horizon}")
    store = None
    if args.store:
        from repro.io.store import ResultStore

        # threadsafe: handler threads share this one connection (the service
        # serializes statements behind its own lock)
        store = ResultStore(args.store, threadsafe=True)
    service = SchedulingService(
        config=config_from_args(args),
        cache=TraceCache(cache_bytes),
        store=store,
        max_horizon=args.max_horizon,
    )
    try:
        server = make_server(service, host=args.host, port=args.port)
    except OSError as exc:
        if store is not None:
            store.close()
        raise SystemExit(f"error: cannot bind {args.host}:{args.port}: {exc}")
    return service, server


def cmd_serve(args: argparse.Namespace) -> int:
    configure_logging(logging.DEBUG if args.verbose else logging.INFO)
    service, server = service_from_args(args)
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port}")
    print(f"  trace cache: {service.cache.max_bytes} bytes"
          + (f", result store: {args.store}" if args.store else ""))
    print("  endpoints: /healthz /metrics /workloads /algorithms "
          "/evaluate /validate /report /synthesize /cell  (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        if service.store is not None:
            service.store.close()
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    from repro.io.store import ResultStore

    # surface library warnings (e.g. the truncated-JSONL byte-offset warning
    # read_records_jsonl emits during 'results import') on stderr
    configure_logging(logging.WARNING)

    with ResultStore(args.store) as store:
        if args.results_command == "import":
            source = Path(args.jsonl)
            if not source.exists():
                raise SystemExit(f"error: JSONL file {args.jsonl!r} does not exist")
            try:
                added = store.import_jsonl(source, campaign=args.campaign)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
            print(f"imported {args.jsonl} into {args.store}: {added} new cells "
                  f"({len(store)} total)")
        elif args.results_command == "export":
            filters = {
                key: getattr(args, key)
                for key in ("experiment", "workload", "algorithm", "campaign", "limit")
                if getattr(args, key) is not None
            }
            records = store.query(**filters)
            out = store.export_jsonl(args.jsonl, **filters)
            print(f"exported {len(records)} records from {args.store} to {out}")
        else:  # campaigns
            rows = [
                [c["name"], c["experiment"], c["cells"], c["created_at"]]
                for c in store.campaigns()
            ]
            print(render_table(
                ["campaign", "experiment", "cells", "created"],
                rows, title=f"campaigns in {args.store} ({len(store)} cells)",
            ))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # thin delegation so `repro-holiday lint ...` and `repro-lint ...` stay
    # one tool; imported lazily to keep the scheduling CLI import-light
    from repro.devtools.cli import main as lint_main

    return lint_main(args.lint_args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-holiday",
        description="Fair and periodic scheduling of independent sets (Amir et al., SPAA 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a workload conflict graph")
    gen.add_argument("kind", choices=["clique", "star", "gnp", "powerlaw", "society"])
    gen.add_argument("output", help="output file (.json or edge list)")
    gen.add_argument("--size", type=int, default=30, help="number of families / nodes")
    gen.add_argument("--p", type=float, default=0.1, help="edge probability for gnp")
    gen.add_argument("--m", type=int, default=2, help="attachment parameter for powerlaw")
    gen.add_argument("--mean-children", type=float, default=2.5)
    gen.add_argument("--marriage-fraction", type=float, default=0.75)
    gen.add_argument("--society-out", help="also write the full society JSON here")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    sch = sub.add_parser("schedule", help="schedule holidays for a conflict graph")
    sch.add_argument("graph", help="graph file (.json or edge list)")
    sch.add_argument("--algorithm", default="degree-periodic", choices=available_schedulers())
    sch.add_argument("--horizon", type=_positive_int, default=None, help="evaluation horizon (default: auto)")
    add_engine_args(sch)
    sch.add_argument("--calendar-years", type=int, default=12, help="years printed to the terminal")
    sch.add_argument("--calendar-csv", help="write the full calendar to this CSV file")
    sch.add_argument("--save-schedule", help="write the periodic schedule JSON to this file")
    sch.add_argument("--seed", type=int, default=0)
    sch.set_defaults(func=cmd_schedule)

    cmp_ = sub.add_parser("compare", help="compare algorithms on one conflict graph")
    cmp_.add_argument("graph", help="graph file (.json or edge list)")
    cmp_.add_argument("--algorithms", nargs="*", help="algorithm names (default: a representative set)")
    cmp_.add_argument("--horizon", type=_positive_int, default=None)
    add_engine_args(cmp_)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.set_defaults(func=cmd_compare)

    bounds = sub.add_parser("bounds", help="print the paper's per-family bounds for a graph")
    bounds.add_argument("graph", help="graph file (.json or edge list)")
    bounds.set_defaults(func=cmd_bounds)

    sat = sub.add_parser("satisfaction", help="Appendix A satisfaction analysis of a society JSON")
    sat.add_argument("society", help="society JSON file (see 'generate society --society-out')")
    sat.add_argument("--horizon", type=_positive_int, default=10)
    sat.set_defaults(func=cmd_satisfaction)

    exp = sub.add_parser(
        "experiment",
        help="run a declarative experiment spec (parallel, resumable)",
        description=(
            "Run named workloads × registered algorithms × parameter grid × seeds "
            "through the experiment engine, streaming JSONL records as cells complete."
        ),
    )
    exp.add_argument("--spec", help="experiment spec JSON file (flags below override its fields)")
    exp.add_argument("--name", help="experiment name stamped on every record")
    exp.add_argument(
        "--workloads",
        nargs="*",
        help="workload registry names; glob patterns like 'small/*' expand (see --list)",
    )
    exp.add_argument("--algorithms", nargs="*", help="registered algorithm names")
    exp.add_argument("--seeds", nargs="*", type=int, help="root seeds (default: 0)")
    exp.add_argument(
        "--grid",
        nargs="*",
        metavar="KEY=V1,V2",
        help="parameter grid, e.g. --grid scale=1,2 — forwarded to workload factories",
    )
    exp.add_argument("--horizon", type=_positive_int, default=None, help="fixed evaluation horizon (default: policy)")
    add_engine_args(exp)  # flags default to None = "not given", overridable by --spec
    exp.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes fanning out across cells (default: 1, serial)",
    )
    exp.add_argument("--output", help="stream records to this JSONL file as cells complete")
    exp.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip cells whose records are already in --output (after an "
            "interrupted run); with --store, resolved by indexed lookup instead"
        ),
    )
    exp.add_argument(
        "--store",
        metavar="PATH",
        help=(
            "persistent result store (SQLite, created if missing): cells any "
            "previous campaign computed replay from it (stamped cached: true), "
            "fresh results are written back"
        ),
    )
    exp.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "with --store: skip cache lookups and re-execute every cell, "
            "still recording results into the store"
        ),
    )
    exp.add_argument(
        "--campaign",
        metavar="NAME",
        help="with --store: campaign tag stored on newly computed cells (default: spec name)",
    )
    exp.add_argument("--save-spec", help="also write the resolved spec JSON here")
    exp.add_argument("--list", action="store_true", help="list registered workloads and algorithms, then exit")
    exp.add_argument("-v", "--verbose", action="store_true", help="per-cell progress lines on stderr")
    exp.set_defaults(func=cmd_experiment)

    srv = sub.add_parser(
        "serve",
        help="serve scheduling queries over HTTP (shared trace cache)",
        description=(
            "Start the long-running scheduling service: /evaluate, /validate, "
            "/report, /synthesize and /cell answered concurrently over one "
            "content-addressed trace cache (identical concurrent queries build "
            "their occupancy trace exactly once).  Stdlib HTTP + JSON; see "
            "docs/serving.md for the endpoint reference."
        ),
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    srv.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (default: 8080; 0 picks an ephemeral port)",
    )
    srv.add_argument(
        "--cache-bytes", type=int, default=None, metavar="N",
        help=(
            "trace-cache byte budget, charged by what each cached trace summary "
            "really holds; LRU-evicted above it (default: "
            "repro.serve.cache.DEFAULT_CACHE_BYTES, 2 MiB)"
        ),
    )
    srv.add_argument(
        "--max-horizon", type=int, default=10_000_000, metavar="H",
        help="largest horizon one request may ask for (413 above it)",
    )
    srv.add_argument(
        "--store", metavar="PATH",
        help=(
            "persistent result store backing /cell read-through (SQLite, "
            "created if missing): stored cells replay without executing, "
            "fresh cells are written back"
        ),
    )
    add_engine_args(srv)
    srv.add_argument("-v", "--verbose", action="store_true", help="per-request debug logging")
    srv.set_defaults(func=cmd_serve)

    res = sub.add_parser(
        "results",
        help="import/export/inspect a persistent result store",
        description=(
            "Move experiment records between the JSONL wire format and a "
            "persistent SQLite result store (the cross-campaign cell cache "
            "'experiment --store' consults)."
        ),
    )
    res_sub = res.add_subparsers(dest="results_command", required=True)

    res_imp = res_sub.add_parser("import", help="load a JSONL sink into a store")
    res_imp.add_argument("store", help="store path (SQLite file, created if missing)")
    res_imp.add_argument("jsonl", help="JSONL results file to import")
    res_imp.add_argument("--campaign", help="campaign tag stored on newly imported cells")
    res_imp.set_defaults(func=cmd_results)

    res_exp = res_sub.add_parser("export", help="write store records out as JSONL")
    res_exp.add_argument("store", help="store path (SQLite file)")
    res_exp.add_argument("jsonl", help="JSONL output file (overwritten)")
    res_exp.add_argument("--experiment", help="only records of this experiment")
    res_exp.add_argument("--workload", help="only records of this workload")
    res_exp.add_argument("--algorithm", help="only records of this algorithm")
    res_exp.add_argument("--campaign", help="only cells first computed by this campaign")
    res_exp.add_argument("--limit", type=int, help="at most this many records")
    res_exp.set_defaults(func=cmd_results)

    res_cam = res_sub.add_parser("campaigns", help="list campaigns recorded in a store")
    res_cam.add_argument("store", help="store path (SQLite file)")
    res_cam.set_defaults(func=cmd_results)

    lint = sub.add_parser(
        "lint",
        help="invariant-aware static analysis (same as the repro-lint script)",
        description=(
            "Run the project linter (repro.devtools): determinism, "
            "picklability and hashing contracts enforced at the AST level. "
            "All arguments pass through to repro-lint; try 'lint --list-rules'."
        ),
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER, help="repro-lint arguments")
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # dispatched before argparse: the linter owns its whole argument
        # vector (argparse.REMAINDER would swallow leading --flags)
        return cmd_lint(argparse.Namespace(lint_args=argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
