#!/usr/bin/env python3
"""Quickstart: schedule holiday gatherings for a small extended family network.

The scenario: seven families whose children intermarried.  We build the
conflict graph, open one :class:`repro.api.Session` over it, run the paper's
three schedulers, print a 16-year calendar and verify each algorithm's
per-node guarantee — the session builds each schedule's occupancy trace once
and shares it between the metric suite and the validator.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ColorPeriodicScheduler,
    ConflictGraph,
    DegreePeriodicScheduler,
    EngineConfig,
    PhasedGreedyScheduler,
    Session,
)
from repro.analysis.tables import render_table


def build_family_network() -> ConflictGraph:
    """Seven families; an edge means a child of one married a child of the other."""
    marriages = [
        ("Adams", "Brown"),
        ("Adams", "Chen"),
        ("Brown", "Chen"),
        ("Chen", "Diaz"),
        ("Diaz", "Evans"),
        ("Evans", "Fischer"),
        ("Fischer", "Garcia"),
        ("Garcia", "Adams"),
    ]
    return ConflictGraph.from_couples(marriages, name="quickstart-families")


def print_calendar(schedule, graph, years: int) -> None:
    rows = []
    for year, happy in schedule.iter_holidays(years):
        rows.append([year, ", ".join(sorted(happy)) or "(nobody)"])
    print(render_table(["year", "families hosting all their children"], rows))
    print()


def main() -> None:
    graph = build_family_network()
    print(f"Conflict graph: {graph.num_nodes()} families, {graph.num_edges()} marriages")
    print(f"Degrees: { {p: graph.degree(p) for p in graph.nodes()} }\n")

    # One session owns the engine configuration for every run below.  The
    # default EngineConfig() is right for a graph this size; the same object
    # scales to 10^8-holiday horizons by flipping knobs, e.g.
    # EngineConfig(horizon_mode="stream", chunk=2**18).
    session = Session(graph, config=EngineConfig())

    schedulers = [
        ("Phased Greedy (§3, aperiodic, mul ≤ deg+1)", PhasedGreedyScheduler(initial_coloring="greedy")),
        ("Elias-omega color-bound (§4, periodic)", ColorPeriodicScheduler()),
        ("Degree-bound periodic (§5, period ≤ 2·deg)", DegreePeriodicScheduler()),
    ]

    for title, scheduler in schedulers:
        schedule = scheduler.build(graph, seed=1)
        print(f"=== {title} ===")
        print_calendar(schedule, graph, years=16)

        horizon = 64
        bound = scheduler.bound_function(graph)
        # evaluate() and validate() share one occupancy trace per
        # (schedule, horizon) — no manual trace= threading.
        report = session.evaluate(schedule, horizon, name=scheduler.name)
        validation = session.validate(
            schedule, horizon, bound=bound, bound_name=scheduler.info.local_bound
        )
        rows = [
            [
                family,
                graph.degree(family),
                report.muls[family],
                f"{bound(family):g}" if bound else "-",
                report.periods[family] if report.periods[family] is not None else "varies",
            ]
            for family in graph.nodes()
        ]
        print(
            render_table(
                ["family", "in-laws", "worst wait (mul)", "paper bound", "observed period"],
                rows,
            )
        )
        status = "OK" if validation.ok else "VIOLATED"
        print(f"guarantee check over {horizon} years: {status}\n")

    spec_driven_sweep()


def spec_driven_sweep() -> None:
    """The same comparison, declaratively: one spec, many scenarios.

    An :class:`ExperimentSpec` names registry workloads instead of building
    graphs by hand and carries one ``EngineConfig`` for every cell; the
    engine runs the cartesian product (in parallel with ``jobs=N``,
    resumably with ``sink=``/``resume=True``) and returns a pivotable
    :class:`ResultSet`.
    """
    from repro.analysis.engine import ExperimentEngine, ExperimentSpec

    spec = ExperimentSpec(
        name="quickstart-sweep",
        workloads=("small/star", "small/cycle", "small/gnp"),
        algorithms=("phased-greedy", "color-periodic-omega", "degree-periodic"),
        horizon=64,
        config=EngineConfig(batch=4),  # backend/horizon_mode/chunk/window/batch
    )
    results = ExperimentEngine(jobs=1).run(spec)
    pivot = results.pivot("mean_norm_gap")
    print("=== Spec-driven sweep: mean normalised gap per workload × scheduler ===")
    rows = [[w] + [round(pivot[w][a], 3) for a in spec.algorithms] for w in pivot]
    print(render_table(["workload"] + list(spec.algorithms), rows))


if __name__ == "__main__":
    main()
