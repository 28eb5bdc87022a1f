"""E6 — distributed construction costs (rounds, messages, bits).

The paper's lightweight/heavyweight distinction is about communication:

* the §3 scheduler needs a one-off (deg+1)-coloring *plus O(1) rounds per
  holiday forever*;
* the §4 scheduler needs only the one-off coloring — afterwards every node
  derives its entire infinite schedule from its own color;
* the §5.2 scheduler needs ``⌈log(Δ+1)⌉`` phases of restricted-palette
  coloring, i.e. a small constant factor more rounds than a single coloring,
  and is silent afterwards.

The benchmark measures the rounds / messages of the one-off constructions
over growing G(n, p) graphs, as counted by the LOCAL-model round kernel
(``restricted_palette_rounds``, whose accounting is tested equal to the
message simulator's), and reports the per-holiday message cost of §3
separately so the cross-over is visible (after roughly ``log Δ`` holidays
the §5 construction has already paid for itself).
"""

from __future__ import annotations

import pytest

from benchmarks.common import BENCH_SEED, print_table
from repro.coloring.distributed import distributed_deg_plus_one_coloring
from repro.coloring.slot_assignment import distributed_slot_assignment
from repro.graphs.random_graphs import erdos_renyi

SIZES = [30, 60, 120]
AVG_DEGREE = 6.0


def make_graph(n: int):
    return erdos_renyi(n, AVG_DEGREE / n, seed=BENCH_SEED, name=f"gnp-{n}")


@pytest.mark.parametrize("n", SIZES)
def test_e6_one_off_coloring_cost(benchmark, n):
    graph = make_graph(n)
    coloring = benchmark(distributed_deg_plus_one_coloring, graph, 1)
    print_table(
        "E6a: one-off (deg+1)-coloring cost (the §3/§4 initialisation)",
        ["n", "Δ", "rounds", "messages", "messages / node"],
        [[n, graph.max_degree(), coloring.rounds, coloring.messages, round(coloring.messages / max(n, 1), 2)]],
    )
    assert coloring.rounds is not None and coloring.rounds >= 1
    # the randomized coloring finishes in a logarithmic number of rounds in practice
    assert coloring.rounds <= 12 * (1 + n.bit_length())
    benchmark.extra_info.update({"n": n, "rounds": coloring.rounds, "messages": coloring.messages})


@pytest.mark.parametrize("n", SIZES)
def test_e6_phased_slot_assignment_cost(benchmark, n):
    graph = make_graph(n)
    assignment = benchmark(distributed_slot_assignment, graph, 1)
    phases = graph.max_degree().bit_length()
    print_table(
        "E6b: §5.2 phased slot-assignment cost",
        ["n", "Δ", "phases (≈⌈log(Δ+1)⌉)", "total rounds", "total messages"],
        [[n, graph.max_degree(), phases, assignment.rounds, assignment.messages]],
    )
    assert assignment.rounds is not None and assignment.rounds >= 1
    benchmark.extra_info.update({"n": n, "rounds": assignment.rounds, "messages": assignment.messages})


@pytest.mark.parametrize("n", SIZES)
def test_e6_per_holiday_cost_of_phased_greedy(benchmark, n):
    """The §3 scheduler's *recurring* cost: every holiday, each freshly happy node
    must learn its neighbors' colors — O(deg) messages per recoloring node."""
    graph = make_graph(n)

    from repro.algorithms.phased_greedy import PhasedGreedyScheduler

    def run(horizon: int = 64):
        scheduler = PhasedGreedyScheduler(initial_coloring="greedy")
        schedule = scheduler.build(graph, seed=1)
        recolorings = 0
        messages = 0
        state = scheduler.last_state
        for _ in range(horizon):
            before = state.recolor_events
            happy = state.step()
            recolorings += state.recolor_events - before
            # each recoloring node queries all its neighbors (one round trip each)
            messages += sum(2 * graph.degree(p) for p in happy)
        return recolorings, messages, horizon

    recolorings, messages, horizon = benchmark(run)
    print_table(
        "E6c: recurring per-holiday cost of the §3 scheduler",
        ["n", "horizon", "recolorings", "messages", "messages / holiday"],
        [[n, horizon, recolorings, messages, round(messages / horizon, 1)]],
    )
    assert messages > 0
    benchmark.extra_info.update({"n": n, "messages_per_holiday": round(messages / horizon, 2)})
