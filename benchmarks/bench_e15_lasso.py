"""E15 — Phased Greedy is a lasso: its transient ``T`` and cycle ``C``.

§3's recolouring rule reads nothing but the colours relative to the current
holiday, so once that vector repeats the schedule is a lasso: a transient
of ``T`` holidays, then a cycle of ``C`` holidays repeated forever.  A
built schedule finds ``(T, C)`` while it generates (the repeat is confirmed
at holiday ``T + C + 1``) and replays the cycle from then on instead of
recolouring.  The paper does not state this result; this experiment
measures it.

For both initial colourings (the seed-free greedy one, and the distributed
(deg+1)-colouring with seeds 0–4) on the 11 benchmark graphs, E14's
society-60 and G(n, p) at a few sizes, it records ``T``, ``C`` and the
holidays a schedule generates at the policy horizon ``H``,
``min(H, T + C + 1)``, against ``H``: the recolouring the replay saves.  A
graph whose state does not repeat within the search cap is recorded as not
found, and generates all ``H`` holidays.

Run as a script::

    python benchmarks/bench_e15_lasso.py [--quick]

It prints the table and writes ``BENCH_lasso.json`` (see
``docs/bench_schema.md``).  The pytest entry checks, on the quick grid,
that every replayed prefix equals plain stepping over ``2(T + C) + 1``
holidays.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from benchmarks.common import BENCH_SEED, bench_record, print_table, write_bench_json
from repro.algorithms.phased_greedy import PhasedGreedyScheduler
from repro.algorithms.registry import get_scheduler
from repro.analysis.engine import HorizonPolicy
from repro.core.problem import ConflictGraph
from repro.graphs.random_graphs import erdos_renyi
from repro.graphs.suites import BENCHMARK_WORKLOADS, get_workload

SCHEDULERS = ("phased-greedy", "phased-greedy-distributed")
#: root seeds of the distributed initial colouring (greedy reads none)
SEEDS = range(5)
#: G(n, p) sizes, graph seed 1; the full run adds one whose transient runs
#: to tens of thousands of holidays
QUICK_GNP = ((100, 0.05), (200, 0.025), (200, 0.05))
FULL_GNP = QUICK_GNP + ((300, 0.03),)
#: holidays generated before a search gives up
QUICK_CAP = 20_000
FULL_CAP = 100_000


def workloads(gnp: Sequence[Tuple[int, float]]) -> Dict[str, ConflictGraph]:
    """The campaign's 11 benchmark graphs, E14's society-60 and G(n, p)."""
    graphs = {name: get_workload(name) for name in sorted(BENCHMARK_WORKLOADS)}
    graphs["society-60"] = get_workload("society", seed=BENCH_SEED, graph_name="society-60")
    for n, p in gnp:
        graphs[f"gnp-{n}-{p}"] = erdos_renyi(n, p, seed=1)
    return graphs


def cases(algorithm: str) -> Sequence[int]:
    """Seeds to run ``algorithm`` at: greedy init is seed-free, so one."""
    return SEEDS if get_scheduler(algorithm).seeded else (0,)


def find_lasso(graph: ConflictGraph, algorithm: str, seed: int, cap: int):
    """Build and generate until the lasso is found or ``cap`` holidays pass.

    Returns ``((T, C) or None, holidays generated, seconds)``.
    """
    start = time.perf_counter()
    scheduler: PhasedGreedyScheduler = get_scheduler(algorithm)
    schedule = scheduler.build(graph, seed=seed)
    holiday = 0
    while scheduler.last_lasso is None and holiday < cap:
        holiday += 1
        schedule.happy_set(holiday)
    return scheduler.last_lasso, holiday, time.perf_counter() - start


def lasso_record(name: str, graph: ConflictGraph, algorithm: str, seed: int, cap: int):
    lasso, searched, seconds = find_lasso(graph, algorithm, seed, cap)
    scheduler = get_scheduler(algorithm)
    horizon = HorizonPolicy().resolve(graph, scheduler.bound_function(graph))
    found_at: Optional[int] = None if lasso is None else sum(lasso) + 1
    return bench_record(
        "lasso_search",
        horizon,
        seconds,
        "none",
        workload=name,
        scheduler=algorithm,
        seed=seed,
        nodes=graph.num_nodes(),
        edges=graph.num_edges(),
        max_degree=graph.max_degree(),
        transient=None if lasso is None else lasso[0],
        cycle=None if lasso is None else lasso[1],
        found_at=found_at,
        searched=searched,
        cap=cap,
        generated=horizon if found_at is None else min(horizon, found_at),
    )


def spread(values: List[Optional[int]]) -> str:
    found = [v for v in values if v is not None]
    if not found:
        return "-"
    low, high = min(found), max(found)
    text = str(low) if low == high else f"{low}-{high}"
    return text if len(found) == len(values) else f"{text} ({len(values) - len(found)} not found)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"G(n, p) sizes {QUICK_GNP} and a {QUICK_CAP:,}-holiday cap (CI)")
    args = parser.parse_args(argv)
    cap = QUICK_CAP if args.quick else FULL_CAP
    graphs = workloads(QUICK_GNP if args.quick else FULL_GNP)

    records = [
        lasso_record(name, graph, algorithm, seed, cap)
        for name, graph in graphs.items()
        for algorithm in SCHEDULERS
        for seed in cases(algorithm)
    ]
    rows = []
    for name in graphs:
        for algorithm in SCHEDULERS:
            mine = [r for r in records if r["workload"] == name and r["scheduler"] == algorithm]
            rows.append([
                name, algorithm, len(mine),
                spread([r["transient"] for r in mine]),
                spread([r["cycle"] for r in mine]),
                f"{sum(r['generated'] for r in mine)} / {sum(r['horizon'] for r in mine)}",
            ])
    print_table(
        "E15: Phased Greedy's lasso (transient T, cycle C) and holidays generated at the policy horizon",
        ["workload", "scheduler", "runs", "T", "C", "generated / horizon"],
        rows,
    )
    # the campaign's graphs: what one lap of root seeds 0-4 generates
    meta: Dict[str, object] = {"quick": args.quick, "cap": cap, "seeds": f"0-{max(SEEDS)}"}
    for algorithm in SCHEDULERS:
        campaign = [r for r in records
                    if r["scheduler"] == algorithm and r["workload"] in BENCHMARK_WORKLOADS]
        generated = sum(r["generated"] for r in campaign)
        horizon = sum(r["horizon"] for r in campaign)
        meta[f"{algorithm}_generated"] = generated
        meta[f"{algorithm}_horizon"] = horizon
        print(f"{algorithm} on the 11 benchmark graphs: {generated} of {horizon} holidays "
              f"generated ({generated / horizon:.1%})")
    path = write_bench_json("lasso", records, meta=meta)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# pytest entry point (explicit file runs; the quick grid)
# ---------------------------------------------------------------------------

QUICK_GRAPHS = workloads(QUICK_GNP)


@pytest.mark.parametrize("algorithm", SCHEDULERS)
@pytest.mark.parametrize("name", sorted(QUICK_GRAPHS))
def test_e15_replay_matches_stepping(name, algorithm):
    graph = QUICK_GRAPHS[name]
    for seed in cases(algorithm):
        lasso, _, _ = find_lasso(graph, algorithm, seed, QUICK_CAP)
        assert lasso is not None, (name, algorithm, seed)
        horizon = 2 * sum(lasso) + 1
        scheduler = get_scheduler(algorithm)
        replayed = scheduler.build(graph, seed=seed).prefix(horizon)
        assert scheduler.last_lasso == lasso
        # the same initial colouring, stepped holiday by holiday
        plain = get_scheduler(algorithm)
        plain.build(graph, seed=seed)
        stepped = [plain.last_state.step() for _ in range(horizon)]
        assert replayed == stepped, (name, algorithm, seed)
        assert [list(s) for s in replayed] == [list(s) for s in stepped]


if __name__ == "__main__":
    sys.exit(main())
