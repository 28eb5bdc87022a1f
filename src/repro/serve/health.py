"""Health and metrics instrumentation for the serving layer.

One :class:`ServiceMetrics` instance rides on the service and is updated by
the HTTP layer around every request.  ``/healthz`` answers "is the process
up and answering" (cheap, no locks beyond one counter read); ``/metrics``
returns the full JSON snapshot: per-endpoint request/status counts,
latency summaries (count / total / min / max / mean seconds), trace-cache
counters (hits, misses, evictions, bytes) and result-store read-through
counters.  Everything is plain JSON — scrape it with ``curl`` or feed it to
whatever dashboard; no client library required.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

__all__ = ["LatencySummary", "ServiceMetrics"]


class LatencySummary:
    """Streaming min/max/total/count of observed durations (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min if self.min is not None else 0.0,
            "max_seconds": self.max if self.max is not None else 0.0,
            "mean_seconds": (self.total / self.count) if self.count else 0.0,
        }


class ServiceMetrics:
    """Thread-safe request/latency/cache counters behind ``/metrics``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._requests: Dict[str, int] = {}
        self._statuses: Dict[str, int] = {}
        self._latency: Dict[str, LatencySummary] = {}
        self._store_hits = 0
        self._store_misses = 0

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one request whose reply is ready (called by the HTTP layer
        before it writes the reply)."""
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            self._statuses[str(status)] = self._statuses.get(str(status), 0) + 1
            self._latency.setdefault(endpoint, LatencySummary()).observe(seconds)

    def observe_store(self, hit: bool) -> None:
        """Record one result-store read-through lookup."""
        with self._lock:
            if hit:
                self._store_hits += 1
            else:
                self._store_misses += 1

    @property
    def total_requests(self) -> int:
        with self._lock:
            return sum(self._requests.values())

    def uptime_seconds(self) -> float:
        return time.time() - self._started

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` payload."""
        return {
            "status": "ok",
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "requests": self.total_requests,
        }

    def snapshot(self, cache_stats: Optional[Dict[str, int]] = None) -> Dict[str, object]:
        """The ``/metrics`` payload; ``cache_stats`` comes from the
        :meth:`~repro.serve.cache.TraceCache.stats` of the shared cache."""
        with self._lock:
            payload: Dict[str, object] = {
                "uptime_seconds": round(time.time() - self._started, 3),
                "requests": {
                    "total": sum(self._requests.values()),
                    "by_endpoint": dict(sorted(self._requests.items())),
                    "by_status": dict(sorted(self._statuses.items())),
                },
                "latency": {
                    endpoint: summary.to_dict()
                    for endpoint, summary in sorted(self._latency.items())
                },
                "store": {"hits": self._store_hits, "misses": self._store_misses},
            }
        if cache_stats is not None:
            payload["trace_cache"] = dict(cache_stats)
        return payload
