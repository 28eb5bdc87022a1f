"""Shared caches for the serving layer: single-flight + byte-budgeted LRU.

Two primitives back :mod:`repro.serve`:

* :class:`SingleFlight` — per-key request coalescing.  N concurrent callers
  asking for the same key run the underlying computation **exactly once**:
  the first caller (the *leader*) computes, everyone else blocks on the
  leader's event and receives the same value (or the same exception).  This
  is what keeps a thundering herd of identical ``/evaluate`` requests from
  building the same trace N times, and what keeps two threads racing the
  same uncached experiment cell down to one execution and one store write.

* :class:`TraceCache` — an immutable, content-addressed LRU cache under a
  byte budget.  Keys are :class:`TraceKey` tuples ``(graph_key,
  schedule_key, horizon, config_key)`` — *content*, not object identity, so
  the cache outlives any one request, session or client (contrast the
  identity-keyed private cache each :class:`repro.api.Session` keeps).
  The service stores a :class:`~repro.serve.service.TraceEntry` per key —
  the rendered JSON of every query answer about it, five strings — and
  charges it by its :meth:`~repro.serve.service.TraceEntry.nbytes`, which
  tracks what the entry really keeps alive, so the budget bounds resident
  memory.  Values are treated as immutable once inserted: a hit returns the
  very object a previous request built, which is safe because strings and
  tuples are.  Entries enter the cache only after their build completes, so
  an in-flight build can never be evicted — eviction only ever considers
  fully materialised entries, and a caller that raced an eviction still gets
  its value from the single-flight slot.

Everything is stdlib ``threading``; the cache is safe to share across the
worker threads of a :class:`http.server.ThreadingHTTPServer`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, NamedTuple, Optional, Tuple

__all__ = ["SingleFlight", "TraceCache", "TraceKey", "DEFAULT_CACHE_BYTES"]

#: default trace-cache budget.  An entry of a 60-node graph at its policy
#: horizon holds ~3.9 KB of rendered answers for a periodic schedule and
#: ~9.7 KB (up to 12.8 KB) for an aperiodic one, so 2 MiB keeps a few
#: hundred entries: every hot key of the perfbench ``serve`` mix
#: (trace-cache hit ratio ~0.96) while its oldest fresh-seed misses are
#: evicted, at a server peak RSS of ~64 MiB there (2 vCPU).
DEFAULT_CACHE_BYTES = 2 * 1024 * 1024


class TraceKey(NamedTuple):
    """Content address of one built trace.

    ``graph_key`` identifies the workload *content* (registry name +
    canonical factory params), ``schedule_key`` the schedule content
    (deterministically derived: ``algorithm:seed``, since registered
    schedulers are pure functions of ``(graph, seed)``, or ``algorithm``
    alone for one that never reads its seed), ``config_key`` the
    result-changing :class:`~repro.core.config.EngineConfig` knobs
    (:meth:`~repro.core.config.EngineConfig.cache_key`).
    """

    graph_key: str
    schedule_key: str
    horizon: int
    config_key: str


class _Flight:
    """One in-progress computation others may wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Coalesce concurrent calls per key: one execution, shared result.

    ``do(key, fn)`` returns ``(value, leader)`` where ``leader`` is True for
    the one caller that actually ran ``fn``.  A leader's exception is
    re-raised in every waiter (the herd shares failures too — otherwise N-1
    waiters would immediately re-run a computation that just failed).
    Flights are forgotten once finished: the *next* call after completion
    runs fresh, so this is coalescing, not caching.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[object, _Flight] = {}

    def do(self, key: object, fn: Callable[[], object]) -> Tuple[object, bool]:
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                leader = False
            else:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, False
        try:
            flight.value = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.event.set()
        return flight.value, True


class TraceCache:
    """Content-addressed LRU cache of built values, with a byte budget.

    Parameters:
        max_bytes: total budget for cached entries, each charged what the
            caller's ``nbytes`` says it holds.  An entry larger than the
            whole budget is never inserted (it is still built and returned —
            an oversized value just can't be *kept*).

    Thread safety: one lock guards the entry map; builds happen outside the
    lock, coalesced per key by an internal :class:`SingleFlight` — N
    concurrent identical requests build once, and concurrent *distinct*
    requests build in parallel.

    Counters (all monotonic, read via :meth:`stats`):

    * ``hits`` — served from the cache (including waiters coalesced onto an
      in-flight build: they never built anything);
    * ``misses`` — lookups that found nothing and led this caller to build;
    * ``evictions`` — entries dropped to respect the byte budget;
    * ``oversize`` — builds too large to cache at all.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[TraceKey, Tuple[object, int]]" = OrderedDict()
        self._flight = SingleFlight()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._oversize = 0

    # -- core ----------------------------------------------------------------
    def get_or_build(
        self,
        key: TraceKey,
        build: Callable[[], object],
        nbytes: Callable[[object], int],
    ) -> object:
        """The cached value for ``key``, building (once) on a miss.

        ``nbytes`` sizes a freshly built value for the budget; it is only
        called on the build path, never on hits.
        """

        def leader_task() -> object:
            # Exactly one thread per key runs this.  Re-check under the lock
            # first: a previous flight may have completed (and inserted)
            # between this caller's fast-path check and winning the flight.
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry[0]
                self._misses += 1
            value = build()
            self._insert(key, value, int(nbytes(value)))
            return value

        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[0]
        value, leader = self._flight.do(key, leader_task)
        if not leader:
            # coalesced onto an in-flight build: served without building
            with self._lock:
                self._hits += 1
        return value

    def _insert(self, key: TraceKey, value: object, size: int) -> None:
        with self._lock:
            if key in self._entries:  # raced: first build wins, sizes match
                return
            if size > self.max_bytes:
                self._oversize += 1
                return
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self._evictions += 1

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: TraceKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def total_bytes(self) -> int:
        """Bytes currently held (always ``<= max_bytes``)."""
        with self._lock:
            return self._bytes

    def stats(self) -> Dict[str, int]:
        """A point-in-time snapshot of every counter (for ``/metrics``)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "oversize": self._oversize,
            }

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime totals)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"TraceCache(entries={s['entries']}, bytes={s['bytes']}/{s['max_bytes']}, "
            f"hits={s['hits']}, misses={s['misses']}, evictions={s['evictions']})"
        )
