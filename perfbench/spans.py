"""Spans around each layer's entry points, for the traced run only.

:func:`install` wraps the public functions of every layer the benchmark
splits time by (``ExperimentEngine.run``, ``Scheduler.build``, generator
steps, ``build_trace``/``TraceBatch``/the streamed scan, ``evaluate_schedule``,
``validate_schedule``, ``Session`` queries, ``ResultStore`` reads and writes)
with recorders that keep every span in memory until the benchmark ends.
The program itself is not modified: the wrappers replace attributes in the
already-imported modules of this process only.

A span knows its layer, start, end and the span that caused it (its parent
on the calling thread's stack).  A layer's *self time* is its spans'
duration minus the part covered by child spans.  Generator steps run once
per holiday, so they are tallied per thread (count and seconds) instead of
being kept one by one; their time still counts as their parent's child time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional

#: span layers, in the order the per-layer metrics list them.
LAYERS = (
    "analysis.engine",
    "algorithms",
    "core.schedule",
    "core.trace",
    "core.metrics",
    "core.validation",
    "api",
    "io.store.lookup",
    "io.store.put",
)

_perf_counter = time.perf_counter


class Recorder:
    """Collects spans and counters from any number of threads."""

    def __init__(self) -> None:
        #: closed spans: ``[layer, start, end, parent span or None, child seconds]``
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tallies: List[list] = []  # per-thread [steps, seconds]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self) -> list:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = [0, 0.0]
            with self._lock:
                self._tallies.append(tally)
        return tally

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a span of ``layer``; ``after(result, args,
        kwargs)`` runs once the call returns (to update counters)."""
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            entry = [layer, 0.0, 0.0, stack[-1] if stack else None, 0.0]
            stack.append(entry)
            entry[1] = _perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = end = _perf_counter()
                stack.pop()
                if entry[3] is not None:
                    entry[3][4] += end - entry[1]
                spans.append(entry)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def wrap_step(self, step: Callable) -> Callable:
        """A generator step, tallied (not kept) as ``core.schedule`` time."""
        stack_of, tally_of = self._stack, self._tally

        def timed_step(t):
            start = _perf_counter()
            try:
                return step(t)
            finally:
                elapsed = _perf_counter() - start
                tally = tally_of()
                tally[0] += 1
                tally[1] += elapsed
                stack = stack_of()
                if stack:
                    stack[-1][4] += elapsed

        return timed_step

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per layer, in seconds."""
        totals = {layer: 0.0 for layer in LAYERS}
        for layer, start, end, _parent, child in self.spans:
            totals[layer] += (end - start) - child
        totals["core.schedule"] += sum(t[1] for t in self._tallies)
        return totals

    def summary(self) -> Dict[str, float]:
        """Self seconds per layer plus every counter, as one flat dict."""
        out = {f"self.{layer}": seconds for layer, seconds in self.self_seconds().items()}
        out["spans"] = len(self.spans)
        out["steps"] = sum(t[0] for t in self._tallies)
        out.update(self.counters)
        return out


# -- instrumentation ---------------------------------------------------------

def _replace_everywhere(module_name: str, attr: str, wrapped: Callable) -> None:
    """Point every loaded ``repro`` module's reference to a function at its
    wrapper (callers that ran ``from module import attr`` hold their own)."""
    original = getattr(sys.modules[module_name], attr)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _wrap_method(rec: Recorder, cls: type, name: str, layer: str,
                 after: Optional[Callable] = None) -> None:
    fn = getattr(cls, name)
    # a subclass inheriting an already wrapped method gets its own wrapper
    # around the original, never a wrapper around a wrapper
    fn = getattr(fn, "__perfbench_original__", fn)
    setattr(cls, name, rec.wrap(layer, fn, after))


def _wrap_first_call(rec: Recorder, cls: type, name: str, layer: str) -> None:
    """Span only the first call per instance of an idempotent method: lazy
    scans are re-entered by every query and return at once after the first."""
    fn = getattr(cls, name)
    timed = rec.wrap(layer, fn)
    done = weakref.WeakSet()

    @functools.wraps(fn)
    def first_call_timed(self, *args, **kwargs):
        if self in done:
            return fn(self, *args, **kwargs)
        done.add(self)
        return timed(self, *args, **kwargs)

    setattr(cls, name, first_call_timed)


def install(rec: Recorder) -> None:
    """Wrap every instrumented entry point of the program in this process."""
    import repro.algorithms.registry as registry
    import repro.analysis.engine as engine
    import repro.analysis.runner  # noqa: F401 - load every caller before patching
    import repro.api as api
    import repro.core.metrics as metrics
    import repro.core.schedule as core_schedule
    import repro.core.trace as core_trace
    import repro.core.validation as validation
    import repro.io.store as store
    import repro.serve  # noqa: F401 - the service's own references

    def engine_done(_result, args, _kwargs):
        rec.count("engine.executed_cells", args[0].stats.get("executed", 0))

    _wrap_method(rec, engine.ExperimentEngine, "run", "analysis.engine", engine_done)

    def build_done(_result, _args, _kwargs):
        rec.count("algorithms.build_calls")

    scheduler_classes = {type(registry.get_scheduler(n)) for n in registry.available_schedulers()}
    for cls in sorted(scheduler_classes, key=lambda c: c.__name__):
        _wrap_method(rec, cls, "build", "algorithms", build_done)

    init = core_schedule.GeneratorSchedule.__init__

    @functools.wraps(init)
    def generator_init(self, graph, step, *args, **kwargs):
        init(self, graph, rec.wrap_step(step), *args, **kwargs)

    core_schedule.GeneratorSchedule.__init__ = generator_init

    def trace_built(result, args, _kwargs):
        if result is not None:  # None: the frozenset reference builds nothing
            graph, horizon = args[1], args[2]
            rec.count("trace.computed_bytes", graph.num_nodes() * horizon)

    original_build = metrics.build_trace
    timed_build = rec.wrap("core.trace", original_build, trace_built)

    @functools.wraps(original_build)
    def build_trace(schedule, graph, horizon, backend=None, trace=None, *args, **kwargs):
        # every metric query passes its shared trace through build_trace,
        # thousands of times per campaign operation; only builds are spans
        call = original_build if trace is not None else timed_build
        return call(schedule, graph, horizon, backend, trace, *args, **kwargs)

    _replace_everywhere("repro.core.metrics", "build_trace", build_trace)

    def batch_built(_result, args, _kwargs):
        batch = args[0]
        rec.count("trace.batches")
        rec.count("trace.computed_bytes", len(batch) * batch.graph.num_nodes() * batch.horizon)

    _wrap_method(rec, core_trace.TraceBatch, "__init__", "core.trace", batch_built)
    _wrap_first_call(rec, core_trace.TraceBatch, "scan", "core.trace")
    # the streamed summary and legality passes run lazily, on the first query
    _wrap_first_call(rec, core_trace.StreamedTrace, "_scan", "core.trace")
    _wrap_method(rec, core_trace.StreamedTrace, "legality_scan", "core.trace")

    _replace_everywhere(
        "repro.core.metrics", "evaluate_schedule",
        rec.wrap("core.metrics", metrics.evaluate_schedule),
    )
    _replace_everywhere(
        "repro.core.validation", "validate_schedule",
        rec.wrap("core.validation", validation.validate_schedule),
    )
    for name in ("report", "evaluate", "validate"):
        _wrap_method(rec, api.Session, name, "api")

    def looked_up(result, args, _kwargs):
        rec.count("store.probed", len(args[1]))
        rec.count("store.hits", len(result))

    def got(result, _args, _kwargs):
        rec.count("store.probed")
        rec.count("store.hits", result is not None)

    _wrap_method(rec, store.ResultStore, "lookup", "io.store.lookup", looked_up)
    _wrap_method(rec, store.ResultStore, "get", "io.store.lookup", got)
    _wrap_method(rec, store.ResultStore, "put_many", "io.store.put")  # put() delegates here


# -- per-layer metrics -------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Dict[str, float], ops: int) -> Dict[str, float]:
    """The span-derived per-layer metrics, per operation, from a
    :meth:`Recorder.summary` taken over ``ops`` operations."""
    per_op_ms = lambda key: 1e3 * summary.get(key, 0.0) / max(ops, 1)  # noqa: E731
    per_op = lambda key: summary.get(key, 0.0) / max(ops, 1)  # noqa: E731
    return {
        "analysis.engine.self_ms": per_op_ms("self.analysis.engine"),
        "analysis.engine.cells_per_batch": _ratio(
            summary.get("engine.executed_cells", 0), summary.get("trace.batches", 0)),
        "algorithms.build_ms": per_op_ms("self.algorithms"),
        "algorithms.build_calls": per_op("algorithms.build_calls"),
        "core.schedule.generate_ms": per_op_ms("self.core.schedule"),
        "core.schedule.holidays_generated": per_op("steps"),
        "core.trace.build_ms": per_op_ms("self.core.trace"),
        "core.trace.computed_mib": per_op("trace.computed_bytes") / 2 ** 20,
        "core.metrics.evaluate_ms": per_op_ms("self.core.metrics"),
        "core.validation.validate_ms": per_op_ms("self.core.validation"),
        "api.session_self_ms": per_op_ms("self.api"),
        "io.store.lookup_ms": per_op_ms("self.io.store.lookup"),
        "io.store.put_ms": per_op_ms("self.io.store.put"),
        "io.store.hit_ratio": _ratio(summary.get("store.hits", 0), summary.get("store.probed", 0)),
        "io.store.cells_probed": per_op("store.probed"),
    }
