"""What the service's trace cache holds, and what it charges for it.

Each entry is a :class:`~repro.serve.service.TraceEntry`: the rendered JSON
of every query answer about one key, five ``str`` fragments holding no
array, view or schedule.  It is charged by its
:meth:`~repro.serve.service.TraceEntry.nbytes`, which must track what the
entries really keep alive (measured with :mod:`tracemalloc`) so that
``max_bytes`` bounds resident memory.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.analysis.engine import HorizonPolicy
from repro.graphs.suites import BENCHMARK_WORKLOADS, get_workload
from repro.serve import DEFAULT_CACHE_BYTES, SchedulingService, TraceCache
from repro.serve.service import TraceEntry

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


def reachable(root):
    """Every object reachable from ``root`` through containers, instance
    attributes and array bases."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
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


def assert_fragments_only(entry):
    """A :class:`TraceEntry` of five strings, reaching nothing else."""
    assert type(entry) is TraceEntry
    assert {type(obj) for obj in reachable(entry)} == {TraceEntry, str}


@pytest.mark.parametrize("config", [None, {"horizon_mode": "stream", "chunk": 16}])
@pytest.mark.parametrize("algorithm", ["degree-periodic", "phased-greedy"])
def test_cached_values_are_rendered_fragments(algorithm, config):
    cache = RecordingCache()
    service = SchedulingService(cache=cache)
    body = {"workload": "grid", "algorithm": algorithm, "seed": 3}
    if config is not None:
        body["config"] = config
    for key in (body, dict(body, horizon=200)):
        service.evaluate(key)
        service.validate(dict(key, check_periodic=True))
        service.report(key)
    assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 4  # one lookup per request
    assert len(cache.sized) == 2
    for entry, size in cache.sized:
        assert_fragments_only(entry)
        assert size == entry.nbytes()
    assert sum(size for _, size in cache.sized) == cache.total_bytes


def test_sets_backend_is_cached_under_its_own_key():
    """The ``sets`` reference renders fragments like the numpy engine, under
    a key apart from the default config's: one body makes two entries, and
    each hits on repeat."""
    cache = RecordingCache()
    service = SchedulingService(cache=cache)
    body = {"workload": "grid", "algorithm": "degree-periodic"}
    sets = dict(body, config={"backend": "sets"})
    answers = [service.report(body), service.report(sets)]
    assert len(cache) == 2 and len(cache.sized) == 2
    for entry, size in cache.sized:
        assert_fragments_only(entry)
        assert size == entry.nbytes()
    assert cache.sized[0][0] == cache.sized[1][0]  # the engines agree
    assert [service.report(body), service.report(sets)] == answers
    assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 2


POLICY_HORIZON = {
    graph: HorizonPolicy().resolve(get_workload(graph)) for graph in BENCHMARK_WORKLOADS
}


def fresh(seeds):
    """Fresh-seed /evaluate bodies on the perfbench graphs: 66 distinct
    entries per seed.  A seed-free scheduler's key leaves the seed out, so
    each seed also gets its own horizon (the policy horizon plus the seed)."""
    return [
        {"workload": graph, "algorithm": algorithm, "seed": seed,
         "horizon": POLICY_HORIZON[graph] + seed}
        for seed in seeds for graph in BENCHMARK_WORKLOADS for algorithm in ALGORITHMS
    ]


def test_charge_tracks_retained_memory_over_fresh_seed_entries():
    """The summed charge of the entries is within ±20% of what tracemalloc
    sees them free when the cache is cleared.  (First-come-first-grab is
    left out to keep the traced run short: its generation is the slowest
    under tracemalloc, and its entries are strings like every other.)"""
    bodies = [body for body in fresh(range(1, 5)) if body["algorithm"] != "first-come-first-grab"]
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
    """All 528 fresh-seed entries overflow the 2 MiB default: LRU evicts,
    and the charged bytes stay within the budget."""
    service = SchedulingService()
    for body in fresh(range(1, 9)):
        service.evaluate(body)
    stats = service.cache.stats()
    assert stats["max_bytes"] == DEFAULT_CACHE_BYTES
    assert stats["evictions"] > 0
    assert stats["bytes"] <= stats["max_bytes"]


def test_misses_of_a_fixed_mix_at_the_default_budget():
    """Ten rounds of /report on the 66 pairs at seed 0, each followed by
    /evaluate on every pair at the round's fresh seed and /validate on
    every pair at seed 0.  The hot keys stay resident at the default
    budget, so the misses are the 66 first lookups plus each round's 11
    first-come-first-grab fresh seeds (the only seeded scheduler here): the
    count summary-view entries gave as well."""
    service = SchedulingService()
    pairs = [(graph, algorithm) for graph in BENCHMARK_WORKLOADS for algorithm in ALGORITHMS]
    for seed in range(1, 11):
        for graph, algorithm in pairs:
            service.report({"workload": graph, "algorithm": algorithm, "seed": 0})
        for graph, algorithm in pairs:
            service.evaluate({"workload": graph, "algorithm": algorithm, "seed": seed})
        for graph, algorithm in pairs:
            service.validate({"workload": graph, "algorithm": algorithm, "check_periodic": True})
    stats = service.cache.stats()
    assert stats["misses"] == 176
    assert stats["hits"] == 3 * 10 * len(pairs) - 176
