"""The concurrency contract: N identical clients, one trace build.

These tests drive a real threaded server with genuinely concurrent client
threads (released through a barrier, with the engine build slowed so the
herd demonstrably overlaps) and assert the serving layer's two promises:

* identical concurrent requests build the occupancy trace **exactly once**
  (counted by stubbing :func:`repro.core.trace.make_trace` where
  :func:`repro.core.metrics.build_trace` calls it, the one place every
  numpy trace is built) and every client receives byte-identical JSON — no
  torn responses;
* distinct requests keep the shared cache within its byte budget, evicting
  LRU entries rather than growing without bound.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

from repro.core import metrics
from repro.serve import SchedulingService, TraceCache

THREADS = 8
BODY = {
    "workload": "small/path",
    "algorithm": "degree-periodic",
    "seed": 1,
    "horizon": 64,
    "config": {"backend": "numpy"},
}


def _slow_build_counter(monkeypatch, delay: float = 0.05):
    """Count trace builds by mode at the one construction helper, slowing
    each so concurrent requests overlap."""
    calls = []
    build = metrics.make_trace

    def counting_build(schedule, graph, horizon, mode, *args, **kwargs):
        calls.append(mode)
        time.sleep(delay)
        return build(schedule, graph, horizon, mode, *args, **kwargs)

    monkeypatch.setattr(metrics, "make_trace", counting_build)
    return calls


def _post_raw(port: int, payload: dict) -> bytes:
    """POST returning the raw response bytes (for byte-identity checks)."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/evaluate",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        assert resp.status == 200
        return resp.read()


def _fire(port: int, payloads) -> list:
    """Run one request per payload on its own thread, barrier-released."""
    barrier = threading.Barrier(len(payloads))
    results = [None] * len(payloads)
    errors = []

    def worker(i: int, payload: dict) -> None:
        try:
            barrier.wait(timeout=10)
            results[i] = _post_raw(port, payload)
        except Exception as exc:  # pragma: no cover - surfaced via `errors`
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, p)) for i, p in enumerate(payloads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors
    return results


class TestSingleFlight:
    def test_identical_herd_builds_trace_exactly_once(
        self, serve_stack, monkeypatch
    ):
        calls = _slow_build_counter(monkeypatch)
        service, server, _client = serve_stack()
        port = server.server_address[1]

        bodies = _fire(port, [BODY] * THREADS)

        assert calls == ["dense"], f"expected one build, saw {calls}"
        assert len(set(bodies)) == 1, "clients saw torn/divergent responses"
        stats = service.cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == THREADS - 1
        assert stats["entries"] == 1

    def test_repeat_after_herd_is_a_pure_hit(self, serve_stack, monkeypatch):
        calls = _slow_build_counter(monkeypatch, delay=0.0)
        service, server, client = serve_stack()
        port = server.server_address[1]
        first = _post_raw(port, BODY)
        again = _post_raw(port, BODY)
        assert first == again
        assert calls == ["dense"]
        assert service.cache.stats()["hits"] == 1

    def test_distinct_requests_build_distinct_traces(self, serve_stack, monkeypatch):
        calls = _slow_build_counter(monkeypatch, delay=0.0)
        _service, server, _client = serve_stack()
        port = server.server_address[1]
        variants = [dict(BODY, horizon=h) for h in (32, 48, 64, 80)]
        bodies = _fire(port, variants)
        assert len(calls) == len(variants)
        horizons = sorted(json.loads(b)["horizon"] for b in bodies)
        assert horizons == [32, 48, 64, 80]

    def test_failed_build_is_shared_not_multiplied(self, serve_stack, monkeypatch):
        """A herd coalesced onto a failing build all get the same clean 500
        — the computation is not retried N times."""
        calls = []

        def exploding_build(*args, **kwargs):
            calls.append("boom")
            time.sleep(0.05)
            raise RuntimeError("engine exploded (injected)")

        monkeypatch.setattr(metrics, "make_trace", exploding_build)
        _service, server, client = serve_stack()
        port = server.server_address[1]

        barrier = threading.Barrier(THREADS)
        statuses = []
        lock = threading.Lock()

        def worker() -> None:
            barrier.wait(timeout=10)
            status, body = client.post("/evaluate", BODY)
            with lock:
                statuses.append((status, body["error"]["code"]))

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert statuses == [(500, "internal")] * THREADS
        # threads overlapping the flight share its failure; only threads
        # arriving after it finished may retry (errors are not cached —
        # deterministic sharing is asserted in test_cache_properties.py)
        assert 1 <= len(calls) < THREADS


class TestByteBudget:
    def test_concurrent_distinct_requests_respect_the_budget(self, serve_stack):
        # size one cached entry (that of a 64-holiday small/path request) —
        # budget two entries, then ask for five distinct seeds at once, each
        # at its own horizon of at most 64: degree-periodic ignores its
        # seed, so its key leaves the seed out
        probe = SchedulingService(cache=TraceCache())
        probe.evaluate(dict(BODY, horizon=64))
        entry = probe.cache.total_bytes
        cache = TraceCache(max_bytes=2 * entry)
        service, server, _client = serve_stack(cache=cache)
        port = server.server_address[1]

        variants = [dict(BODY, horizon=64 - s, seed=s) for s in range(5)]
        bodies = _fire(port, variants)

        assert len({json.loads(b)["seed"] for b in bodies}) == 5
        stats = service.cache.stats()
        assert stats["bytes"] <= cache.max_bytes
        assert stats["entries"] <= 2
        assert stats["evictions"] >= 3
        assert stats["misses"] == 5

    def test_oversized_traces_are_served_but_never_cached(self, serve_stack):
        cache = TraceCache(max_bytes=8)  # smaller than any real trace
        service, server, _client = serve_stack(cache=cache)
        port = server.server_address[1]
        _post_raw(port, BODY)
        stats = service.cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["oversize"] == 1
