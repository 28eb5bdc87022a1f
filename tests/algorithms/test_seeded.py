"""``Scheduler.seeded``: which schedulers read their seed.

A scheduler that is not seeded builds the same schedule at every seed, and
the serving layer keys its traces without the seed on that promise.  So for
every such registered scheduler, builds at several seeds must agree on
everything a query can read: the happy sets over twice the policy horizon,
``is_periodic()`` and the ``node_period`` table.  The seeded ones must
really depend on the seed somewhere, or the split would be wrong the other
way (harmless, but a lost cache hit).
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.algorithms.naive import SequentialScheduler
from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.analysis.engine import HorizonPolicy
from repro.graphs.suites import BENCHMARK_WORKLOADS, available_workloads, get_workload

SEEDS = (0, 1, 7, 2 ** 31 - 1)
GRAPHS = list(BENCHMARK_WORKLOADS) + [w for w in available_workloads() if w.startswith("small/")]
#: the randomized constructions: first-come-first-grab's wake-up draws and
#: the LOCAL-model colourings behind the two distributed variants
SEEDED = {"first-come-first-grab", "phased-greedy-distributed", "degree-periodic-distributed"}
UNSEEDED = [name for name in available_schedulers() if not get_scheduler(name).seeded]


def observed(algorithm: str, workload: str, seed: int):
    """Everything a query reads of one build: happy sets over twice the
    policy horizon, the periodicity claim and the advertised periods."""
    graph = get_workload(workload)
    schedule = get_scheduler(algorithm).build(graph, seed=seed)
    horizon = 2 * HorizonPolicy().resolve(graph)
    periods = [schedule.node_period(p) for p in graph.nodes()]
    return schedule.prefix(horizon), schedule.is_periodic(), periods


def test_the_registry_splits_as_documented():
    seeded = {name for name in available_schedulers() if get_scheduler(name).seeded}
    assert seeded == SEEDED
    assert len(UNSEEDED) == 8


@pytest.mark.parametrize("algorithm", UNSEEDED)
@pytest.mark.parametrize("workload", GRAPHS)
def test_an_unseeded_scheduler_builds_one_schedule_for_every_seed(algorithm, workload):
    first, *rest = (observed(algorithm, workload, seed) for seed in SEEDS)
    for other in rest:
        assert other == first


@pytest.mark.parametrize("algorithm", sorted(SEEDED))
def test_a_seeded_scheduler_differs_between_seeds(algorithm):
    assert any(
        observed(algorithm, workload, 0) != observed(algorithm, workload, 1)
        for workload in BENCHMARK_WORKLOADS
    )


def test_a_subclass_without_an_override_is_seeded():
    class Plain(Scheduler):
        info = SchedulerInfo(name="plain", periodic=True, local_bound="n", paper_section="-")

        def build(self, graph, seed=0):
            return SequentialScheduler().build(graph)

    assert Plain().seeded is True


@pytest.mark.parametrize(
    "factory,seeded",
    [
        (lambda: get_scheduler("phased-greedy").with_window(8), False),
        (lambda: get_scheduler("phased-greedy-distributed").with_window(8), True),
    ],
)
def test_seeded_follows_the_configuration(factory, seeded):
    """A re-configured copy keeps the property its configuration implies."""
    assert factory().seeded is seeded
