"""What the service's trace cache holds, and what it charges for it.

Each entry is a :class:`~repro.serve.service.TraceEntry`: the
:meth:`~repro.core.trace.TraceView.summary_view` of a built trace (a plain
:class:`~repro.core.trace.TraceView` with the scanned summary and mul
array, holding no matrix, stream source or schedule) and the schedule's
advertised periods.  It is charged by its
:meth:`~repro.serve.service.TraceEntry.nbytes`, which must track what the
entries really keep alive (measured with :mod:`tracemalloc`) so that
``max_bytes`` bounds resident memory.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.algorithms.registry import get_scheduler
from repro.analysis.engine import HorizonPolicy
from repro.core.schedule import Schedule
from repro.core.trace import TraceStream, TraceView
from repro.graphs.suites import BENCHMARK_WORKLOADS, get_workload
from repro.serve import DEFAULT_CACHE_BYTES, SchedulingService, TraceCache

#: the schedulers the perfbench ``serve`` mix queries: four periodic, two
#: aperiodic
ALGORITHMS = (
    "degree-periodic", "color-periodic-omega", "round-robin-color", "sequential",
    "phased-greedy", "first-come-first-grab",
)


class RecordingCache(TraceCache):
    """A :class:`TraceCache` that keeps every value it was asked to size —
    exactly one per build."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        super().__init__(max_bytes)
        self.sized = []

    def get_or_build(self, key, build, nbytes):
        def record(value):
            size = nbytes(value)
            self.sized.append((value, size))
            return size

        return super().get_or_build(key, build, record)


def reachable(root, stop):
    """Every object reachable from ``root`` through containers, instance
    attributes and array bases, not entering ``stop`` (the shared graph)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if obj is stop or id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray):
            stack.append(obj.base)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.append(vars(obj))
    return found


def holds_trace_data(obj) -> bool:
    return (
        isinstance(obj, (Schedule, TraceStream))
        or (isinstance(obj, TraceView) and type(obj) is not TraceView)
        or (isinstance(obj, np.ndarray) and obj.ndim != 1)
    )


@pytest.mark.parametrize("config", [None, {"horizon_mode": "stream", "chunk": 16}])
@pytest.mark.parametrize("algorithm", ["degree-periodic", "phased-greedy"])
def test_cached_values_are_summary_views(algorithm, config):
    cache = RecordingCache()
    service = SchedulingService(cache=cache)
    body = {"workload": "grid", "algorithm": algorithm, "seed": 3}
    if config is not None:
        body["config"] = config
    service.evaluate(body)
    service.validate(dict(body, check_periodic=True))
    service.report(body)
    assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 3  # /report asks twice
    [(entry, size)] = cache.sized
    assert type(entry.view) is TraceView
    assert entry.view.mode == ("dense" if config is None else "stream")
    assert size == entry.nbytes() == cache.total_bytes
    assert not [obj for obj in reachable(entry, entry.view.graph) if holds_trace_data(obj)]
    graph = entry.view.graph
    schedule = get_scheduler(algorithm).build(graph, seed=3)
    assert (entry.periods is not None) == schedule.is_periodic()
    if schedule.is_periodic():
        assert entry.periods.tolist() == [schedule.node_period(p) for p in graph.nodes()]


def test_sets_backend_bypasses_the_cache():
    cache = RecordingCache()
    service = SchedulingService(cache=cache)
    body = {"workload": "grid", "algorithm": "degree-periodic", "config": {"backend": "sets"}}
    service.report(body)
    assert cache.sized == [] and len(cache) == 0
    assert cache.stats()["hits"] == cache.stats()["misses"] == 0


POLICY_HORIZON = {
    graph: HorizonPolicy().resolve(get_workload(graph)) for graph in BENCHMARK_WORKLOADS
}

#: fresh-seed /evaluate bodies on the perfbench graphs: 264 distinct
#: entries.  A seed-free scheduler's key leaves the seed out, so each seed
#: also gets its own horizon (the policy horizon plus the seed).
FRESH = [
    {"workload": graph, "algorithm": algorithm, "seed": seed,
     "horizon": POLICY_HORIZON[graph] + seed}
    for seed in range(1, 5) for graph in BENCHMARK_WORKLOADS for algorithm in ALGORITHMS
]


def test_charge_tracks_retained_memory_over_fresh_seed_entries():
    """The summed charge of the entries is within ±20% of what tracemalloc
    sees them free when the cache is cleared.  (First-come-first-grab is
    left out to keep the traced run short: its generation is the slowest
    under tracemalloc, and test_summary_view.py checks its views' charge.)"""
    bodies = [body for body in FRESH if body["algorithm"] != "first-come-first-grab"]
    service = SchedulingService(cache=TraceCache(1 << 30))
    for body in bodies:
        service.evaluate(dict(body, seed=0))  # warm graphs, schedulers, imports
    service.cache.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for body in bodies:
            service.evaluate(body)
        gc.collect()
        stats = service.cache.stats()
        full = tracemalloc.get_traced_memory()[0]
        service.cache.clear()
        gc.collect()
        retained = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert stats["entries"] == len(bodies) >= 200
    assert 0.8 * retained <= stats["bytes"] <= 1.2 * retained


def test_default_budget_is_reached_and_held():
    """All 264 fresh-seed entries overflow the 2 MiB default: LRU evicts,
    and the charged bytes stay within the budget."""
    service = SchedulingService()
    for body in FRESH:
        service.evaluate(body)
    stats = service.cache.stats()
    assert stats["max_bytes"] == DEFAULT_CACHE_BYTES
    assert stats["evictions"] > 0
    assert stats["bytes"] <= stats["max_bytes"]
