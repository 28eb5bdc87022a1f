"""`EngineConfig` — the single carrier of trace-engine execution knobs.

Four PRs of engine growth each threaded a new keyword through every layer:
``evaluate_schedule`` / ``validate_schedule`` / ``run_scheduler`` grew five
parallel execution parameters (``backend``, ``mode``, ``chunk``, ``jobs``,
``trace``) that were copied verbatim through metrics, validation, the
runner, the experiment engine and four CLI subcommands.  This module
consolidates them the way :class:`~repro.analysis.engine.HorizonPolicy`
consolidated the horizon rules: one frozen dataclass owns every knob, is
validated in one place, serializes to JSON (for spec files), and resolves
``"auto"`` values to concrete choices.

The knobs:

* ``backend`` — evaluation engine: ``"numpy"`` (the trace engine),
  ``"sets"`` (the frozenset reference engine), or ``"auto"`` (numpy).
* ``horizon_mode`` — horizon representation: one ``"dense"`` n × horizon
  matrix, ``"stream"``ed fixed-width chunks at O(n × chunk) memory, or
  ``"auto"`` (dense until the matrix would exceed
  :data:`repro.core.trace.AUTO_STREAM_BYTES`).
* ``chunk`` — streaming chunk width (``None`` =
  :data:`repro.core.trace.DEFAULT_CHUNK`).
* ``window`` — sliding-window memo width for generator-backed schedules
  (see :class:`~repro.core.schedule.GeneratorSchedule`).  Applied by
  :func:`~repro.analysis.runner.run_scheduler` /
  :meth:`repro.api.Session.run` to schedulers that support it
  (:meth:`~repro.algorithms.base.Scheduler.with_window`); schedulers that
  don't ignore it.

``chunk`` and ``window`` are normalised to a plain ``int`` on construction
(``operator.index``: a numpy integer is accepted, a ``bool``, ``float`` or
``str`` is not), so equal widths compare, hash and key equally.

Values earlier releases accepted and this one dropped (:data:`REMOVED`: the
``bitmask`` backend and the ``checkpoint``, ``stream_jobs`` and ``batch``
fields) fail with a :class:`ValueError` that says so and lists the valid
choices.

Every entry point from :func:`repro.core.metrics.build_trace` up to the CLI
takes its knobs as ``config: EngineConfig`` and nowhere else.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional

from repro.core.trace import (
    BACKENDS,
    HORIZON_MODES,
    resolve_backend,
    resolve_horizon_mode,
)

__all__ = [
    "EngineConfig",
    "ResolvedEngine",
    "DEFAULT_CONFIG",
    "RESULT_KNOBS",
    "WALL_CLOCK_KNOBS",
    "config_with",
]

#: knobs that change computed results: part of every content-addressed
#: cache key (and, when non-default, of experiment cell ids).  Every
#: EngineConfig field must appear in exactly one of RESULT_KNOBS /
#: WALL_CLOCK_KNOBS — enforced statically by lint rule REP104, so a new
#: knob cannot ship without deciding its hashing story.
RESULT_KNOBS = frozenset({"backend", "horizon_mode", "chunk", "window"})

#: knobs the determinism contracts prove result-neutral: excluded from cache
#: keys so warming a cache under one value serves every other.  Empty: every
#: field changes computed results.
WALL_CLOCK_KNOBS = frozenset()

#: backends EngineConfig accepts: the matrix backends plus the frozenset
#: reference engine (which is handled above the TraceMatrix layer).
CONFIG_BACKENDS = tuple(BACKENDS) + ("sets",)

#: backend values and config fields earlier releases accepted: the
#: pure-Python ``bitmask`` backend (numpy is now required), the
#: ``checkpoint`` knob of the deleted generator checkpoint fan-out, the
#: ``stream_jobs`` knob of the deleted streamed-scan process pool and the
#: ``batch`` knob of the deleted experiment-engine batching planner.
REMOVED = frozenset({"bitmask", "checkpoint", "stream_jobs", "batch"})

_SETS_STREAM_ERROR = (
    "backend='sets' (the frozenset reference) has no streaming mode; "
    "use backend='auto'/'numpy' with horizon_mode='stream', "
    "or horizon_mode='dense'/'auto' with backend='sets'"
)


def _bad_choice(what: str, value: object, choices) -> ValueError:
    """The one error for a value outside ``choices``: it names the value,
    says whether an earlier release accepted it, and lists the choices."""
    status = "removed" if isinstance(value, str) and value in REMOVED else "unknown"
    return ValueError(f"{status} {what} {value!r}; expected one of {tuple(choices)}")


@dataclass(frozen=True)
class ResolvedEngine:
    """The concrete engine choice an :class:`EngineConfig` resolves to.

    ``backend`` is always concrete (``"numpy"`` or ``"sets"``).  ``mode`` is
    ``"dense"`` or ``"stream"`` when the graph size and horizon were
    supplied to :meth:`EngineConfig.resolve` (or the mode was explicit),
    ``"auto"`` when they weren't, and ``"sets"`` for the reference engine —
    matching the ``horizon_mode`` stamp
    :class:`~repro.analysis.runner.RunOutcome` records.
    """

    backend: str
    mode: str
    chunk: Optional[int]
    window: Optional[int]

    @property
    def uses_matrix(self) -> bool:
        """True when a TraceMatrix/StreamedTrace engine answers queries
        (False for the frozenset reference)."""
        return self.backend != "sets"


@dataclass(frozen=True)
class EngineConfig:
    """One immutable object carrying every trace-engine execution knob.

    Construction validates every field (including the ``sets`` + ``stream``
    combination, which no engine supports), so an invalid configuration
    fails where it is written, not deep inside a worker process.  Instances
    are hashable and picklable; derive variants with
    :func:`dataclasses.replace`.
    """

    backend: str = "auto"
    horizon_mode: str = "auto"
    chunk: Optional[int] = None
    window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in CONFIG_BACKENDS:
            raise _bad_choice("trace backend", self.backend, CONFIG_BACKENDS)
        if self.horizon_mode not in HORIZON_MODES:
            raise ValueError(
                f"unknown horizon_mode {self.horizon_mode!r}; expected one of {HORIZON_MODES}"
            )
        if self.backend == "sets" and self.horizon_mode == "stream":
            raise ValueError(_SETS_STREAM_ERROR)
        for name, what in (("chunk", "chunk width"), ("window", "window")):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < 1:
                raise ValueError(f"{what} must be >= 1, got {value!r}")
            object.__setattr__(self, name, value)

    # -- resolution ----------------------------------------------------------
    def resolve(
        self, num_nodes: Optional[int] = None, horizon: Optional[int] = None
    ) -> ResolvedEngine:
        """Resolve ``"auto"`` values to the concrete engine for one run.

        The backend resolves to ``"numpy"`` (``"sets"`` stays itself);
        ``horizon_mode="auto"`` resolves by estimated dense-matrix size when
        ``num_nodes`` and ``horizon`` are given and stays ``"auto"``
        otherwise — so the CLI can validate a config up front before any
        graph exists.
        """
        if self.backend == "sets":
            return ResolvedEngine("sets", "sets", self.chunk, self.window)
        backend = resolve_backend(self.backend)
        if self.horizon_mode == "auto" and num_nodes is not None and horizon is not None:
            mode = resolve_horizon_mode("auto", num_nodes, horizon)
        else:
            mode = self.horizon_mode
        return ResolvedEngine(backend, mode, self.chunk, self.window)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (embedded in spec files and cell hashes)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise _bad_choice("EngineConfig field", unknown[0], known)
        return cls(**payload)

    def to_json(self) -> str:
        """The config as a canonical JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "EngineConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))

    def non_default(self) -> Dict[str, object]:
        """The fields that differ from the defaults.

        This is what the experiment engine hashes into cell ids: default
        knobs leave the id untouched, so results sinks recorded before a
        knob existed keep resuming (dense and stream produce identical
        records).
        """
        default = DEFAULT_CONFIG
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        }

    def cache_key(self) -> str:
        """Canonical string form of the knobs that change computed results.

        The config component of content-addressed cache keys (notably the
        shared trace cache behind :mod:`repro.serve`): canonical JSON of the
        :meth:`non_default` fields, minus :data:`WALL_CLOCK_KNOBS` — the
        knobs that provably never change an answer, wall-clock only by the
        determinism contracts that keep results identical for every value
        of each.  Like cell ids, default knobs leave the key untouched, so
        keys stay stable as new knobs grow onto the config.
        """
        overrides = {
            k: v
            for k, v in self.non_default().items()
            if k not in WALL_CLOCK_KNOBS
        }
        return json.dumps(overrides, sort_keys=True)

    def describe(self) -> str:
        """Short human-readable form: only the non-default knobs."""
        overrides = self.non_default()
        if not overrides:
            return "EngineConfig()"
        return "EngineConfig(" + ", ".join(f"{k}={v!r}" for k, v in overrides.items()) + ")"


#: The all-defaults config every entry point falls back to.
DEFAULT_CONFIG = EngineConfig()


def config_with(config: Optional[EngineConfig], **overrides: object) -> EngineConfig:
    """A copy of ``config`` (default config when ``None``) with overrides
    applied — convenience for callers layering flags over a spec config.
    Unknown or removed fields fail like :meth:`EngineConfig.from_dict`."""
    return EngineConfig.from_dict({**(config or DEFAULT_CONFIG).to_dict(), **overrides})
