"""Scheduling-as-a-service request handlers (transport-independent).

:class:`SchedulingService` is the whole service minus HTTP: JSON-shaped
dictionaries in, JSON answers out, raising :class:`ServiceError` with a
status and machine-readable code on any client mistake.  The HTTP layer
(:mod:`repro.serve.app`) is a thin adapter over it, which is what makes the
differential test harness possible — the same handler methods answer
in-process calls and socket requests identically.

Every query request resolves through the same objects the library path
uses:

* workloads through the registry (:func:`repro.graphs.suites.get_workload`),
  built once per distinct ``(workload, params)`` and shared across requests;
* schedulers through :func:`repro.algorithms.registry.get_scheduler` —
  registered schedulers are deterministic functions of ``(graph, seed)``,
  which is what makes ``algorithm:seed`` a valid *content* key for the
  schedule they produce, and ``algorithm`` alone one for a scheduler that
  never reads its seed (:attr:`~repro.algorithms.base.Scheduler.seeded`);
* evaluation through a :class:`repro.api.Session` run once per *key*: a
  miss of the service's shared, content-addressed
  :class:`~repro.serve.cache.TraceCache` builds the request's schedule,
  measures it (one trace build) and keeps the rendered JSON of every query
  answer about the key, a :class:`TraceEntry`.  The key is computed from
  the request alone; concurrent misses on one key coalesce.  A hit runs no
  metric, validation or encoding work: :func:`_splice` writes the
  request's echo fields and the entry's fragments into the body bytes.

The serializers (:func:`report_payload`, :func:`validation_payload`, ...)
are module-level on purpose: the entries are rendered with them, and the
differential suite imports them to render the library-path answer.
"""

from __future__ import annotations

import json
import sys
import threading
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.analysis.engine import ExperimentCell, HorizonPolicy, execute_cell
from repro.api import Session
from repro.core.config import DEFAULT_CONFIG, EngineConfig, config_with
from repro.core.metrics import ScheduleReport
from repro.core.problem import ConflictGraph
from repro.core.schedule import PeriodicSchedule, Schedule
from repro.core.validation import ValidationReport
from repro.graphs.suites import available_workloads, get_workload
from repro.io.results import record_to_dict
from repro.serve.cache import SingleFlight, TraceCache, TraceKey
from repro.serve.health import ServiceMetrics
from repro.utils.logging import get_logger

__all__ = [
    "ServiceError",
    "SchedulingService",
    "DEFAULT_MAX_HORIZON",
    "report_payload",
    "validation_payload",
    "schedule_payload",
    "graph_key_for",
    "schedule_key_for",
]

_log = get_logger("serve.service")

#: refuse horizons above this by default: a single request should answer in
#: seconds, not monopolise the process for minutes (the library path and the
#: experiment engine remain the home of 10^8-holiday runs).
DEFAULT_MAX_HORIZON = 10_000_000


class ServiceError(Exception):
    """A client-visible failure: HTTP status + machine-readable code.

    Everything a handler raises on a bad request is one of these; the HTTP
    layer renders it as the error envelope ``{"error": {"code", "message",
    "status"}}`` — never a stack trace.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def payload(self) -> Dict[str, object]:
        return {"error": {"code": self.code, "message": self.message, "status": self.status}}


def _require_object(payload: object) -> None:
    """The check every payload endpoint makes before it reads a field."""
    if not isinstance(payload, Mapping):
        raise ServiceError(400, "bad_request", "request body must be a JSON object")


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------

def graph_key_for(workload: str, params: Mapping[str, object]) -> str:
    """Content key of a registry workload: name + canonical factory params."""
    return f"{workload}|{json.dumps(dict(params), sort_keys=True, default=repr)}"


def schedule_key_for(algorithm: str, seed: int, seeded: bool) -> str:
    """Content key of the schedule a registered scheduler builds.

    ``algorithm:seed`` — valid because registered schedulers are
    deterministic in ``(graph, seed)``, the same property the experiment
    engine's derived-seed byte-identity contract rests on, and the graph is
    already part of the :class:`~repro.serve.cache.TraceKey`.  A scheduler
    that is not :attr:`~repro.algorithms.base.Scheduler.seeded` never reads
    its seed, so it builds one schedule per graph and its key is
    ``algorithm`` alone: every seed shares one entry.
    """
    return f"{algorithm}:{seed}" if seeded else algorithm


# ---------------------------------------------------------------------------
# payload serializers (shared with the differential test harness)
# ---------------------------------------------------------------------------

def report_payload(report: ScheduleReport) -> Dict[str, object]:
    """JSON form of a :class:`~repro.core.metrics.ScheduleReport`."""
    return {
        "name": report.name,
        "graph": report.graph_name,
        "horizon": report.horizon,
        "summary": report.summary(),
        "muls": {str(node): int(value) for node, value in report.muls.items()},
        "periods": {str(node): value for node, value in report.periods.items()},
        "rates": {str(node): value for node, value in report.rates.items()},
        "normalized_gaps": {str(node): value for node, value in report.normalized.items()},
    }


def validation_payload(validation: ValidationReport) -> Dict[str, object]:
    """JSON form of a :class:`~repro.core.validation.ValidationReport`."""
    return {
        "ok": validation.ok,
        "checked_holidays": validation.checked_holidays,
        "violations": [
            {
                "kind": v.kind,
                "node": None if v.node is None else str(v.node),
                "holiday": v.holiday,
                "detail": v.detail,
            }
            for v in validation.violations
        ],
    }


def schedule_payload(schedule: Schedule, holidays: int) -> Dict[str, object]:
    """JSON form of a synthesized schedule: calendar prefix + period table."""
    payload: Dict[str, object] = {
        "kind": type(schedule).__name__,
        "description": schedule.describe(),
        "periodic": schedule.is_periodic(),
        "calendar": [
            [holiday, sorted(str(p) for p in happy)]
            for holiday, happy in schedule.iter_holidays(holidays)
        ],
    }
    if isinstance(schedule, PeriodicSchedule):
        payload["periods"] = {str(p): period for p, period in schedule.periods().items()}
        payload["phases"] = {str(p): schedule.node_phase(p) for p in schedule.graph.nodes()}
    return payload


# ---------------------------------------------------------------------------
# rendered answers
# ---------------------------------------------------------------------------

def _dumps(value: object) -> str:
    return json.dumps(value, sort_keys=True)


class TraceEntry(NamedTuple):
    """One value of the service's trace cache: the rendered answers about
    one key.

    Each field is the ``json.dumps(..., sort_keys=True)`` text of one
    top-level field of a query answer, none of which depends on anything
    but the key: ``report`` (``/evaluate`` and ``/report``), ``summary``
    and ``ok`` (``/report``), ``validation`` (``/report``, and
    ``/validate`` without ``check_periodic``) and ``validation_periodic``
    (``/validate`` with it).  The request's echo fields are not here.
    """

    report: str
    summary: str
    ok: str
    validation: str
    validation_periodic: str

    @classmethod
    def render(
        cls, schedule: Schedule, graph: ConflictGraph, horizon: int, config: EngineConfig
    ) -> "TraceEntry":
        """Measure ``schedule`` through one :class:`~repro.api.Session` (one
        trace build for every answer) and render each answer field."""
        session = Session(graph, config=config)
        combined = session.report(schedule, horizon)
        periodic = session.validate(schedule, horizon, check_periodic=True)
        return cls(
            report=_dumps(report_payload(combined.report)),
            summary=_dumps(combined.summary()),
            ok=_dumps(combined.ok),
            validation=_dumps(validation_payload(combined.validation)),
            validation_periodic=_dumps(validation_payload(periodic)),
        )

    def nbytes(self) -> int:
        """``sys.getsizeof`` of the tuple and of each string: everything
        the entry keeps alive."""
        return sys.getsizeof(self) + sum(map(sys.getsizeof, self))


def _splice(identity: Mapping[str, object], **fragments: str) -> bytes:
    """``json.dumps(answer, sort_keys=True)`` of the answer holding
    ``identity``'s fields and, for each of ``fragments``, the value it is
    the rendered text of — byte for byte, without decoding a fragment.
    Field names are plain identifiers, so ``"name"`` is their JSON form."""
    fields = {name: json.dumps(value) for name, value in identity.items()}
    fields.update(fragments)
    body = ", ".join(f'"{name}": {fields[name]}' for name in sorted(fields))
    return ("{" + body + "}").encode("utf-8")


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------

class SchedulingService:
    """Evaluate / validate / report / synthesize, behind one shared cache.

    Parameters:
        config: base :class:`EngineConfig` requests inherit; a request's
            ``"config"`` object overrides individual fields.
        cache: the shared :class:`TraceCache` of rendered answers, one
            :class:`TraceEntry` per key (defaults to a fresh one with the
            :data:`~repro.serve.cache.DEFAULT_CACHE_BYTES` budget).
        store: optional :class:`~repro.io.store.ResultStore` enabling the
            ``/cell`` read-through endpoint to replay previously computed
            experiment cells and persist fresh ones.
        max_horizon: largest horizon a single request may ask for
            (413 above it).
        policy: horizon policy used when a request gives no horizon.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        cache: Optional[TraceCache] = None,
        store: Optional[object] = None,
        max_horizon: int = DEFAULT_MAX_HORIZON,
        policy: Optional[HorizonPolicy] = None,
    ) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG
        self.cache = cache if cache is not None else TraceCache()
        self.store = store
        self.max_horizon = max_horizon
        self.policy = policy if policy is not None else HorizonPolicy()
        self.metrics = ServiceMetrics()
        self._graphs: Dict[str, ConflictGraph] = {}
        self._graphs_lock = threading.Lock()
        self._cell_flight = SingleFlight()
        # serializes store statements across handler threads (open the store
        # with ``threadsafe=True`` so its connection may cross threads at all)
        self._store_lock = threading.Lock()

    # -- request plumbing ----------------------------------------------------
    def _request_config(self, payload: Mapping[str, object]) -> EngineConfig:
        overrides = payload.get("config")
        if overrides is None:
            return self.config
        if not isinstance(overrides, Mapping):
            raise ServiceError(400, "bad_request", "'config' must be an object")
        try:
            return config_with(self.config, **overrides)
        except (ValueError, TypeError) as exc:
            raise ServiceError(400, "bad_request", f"invalid config: {exc}")

    def _int_field(
        self, payload: Mapping[str, object], name: str, default: Optional[int]
    ) -> Optional[int]:
        value = payload.get(name, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServiceError(400, "bad_request", f"'{name}' must be an integer")
        return value

    def _graph_for(self, workload: str, params: Mapping[str, object]) -> Tuple[str, ConflictGraph]:
        if not isinstance(workload, str) or not workload:
            raise ServiceError(400, "bad_request", "'workload' must be a non-empty string")
        key = graph_key_for(workload, params)
        with self._graphs_lock:
            graph = self._graphs.get(key)
        if graph is None:
            try:
                graph = get_workload(workload, **dict(params))
            except KeyError:
                raise ServiceError(
                    404, "unknown_workload",
                    f"unknown workload {workload!r}; see /workloads",
                )
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, "bad_request", f"bad workload params: {exc}")
            with self._graphs_lock:
                # a concurrent builder may have won; keep the first instance so
                # every request shares one graph object per content key
                graph = self._graphs.setdefault(key, graph)
        return key, graph

    def _scheduler_for(self, algorithm: str):
        if not isinstance(algorithm, str) or not algorithm:
            raise ServiceError(400, "bad_request", "'algorithm' must be a non-empty string")
        try:
            return get_scheduler(algorithm)
        except KeyError:
            raise ServiceError(
                404, "unknown_algorithm",
                f"unknown algorithm {algorithm!r}; see /algorithms",
            )

    def _resolve_request(
        self, payload: Mapping[str, object]
    ) -> Tuple[Dict[str, object], ConflictGraph, TraceKey, EngineConfig, Callable[[], Schedule]]:
        """What every schedule endpoint reads from a request body.

        Returns ``(identity, graph, key, config, build)`` where ``identity``
        is the echo block every response starts with, ``key`` the content
        key of the request's trace and ``build()`` builds the request's
        schedule.  Nothing is built here.
        """
        _require_object(payload)
        workload = payload.get("workload")
        algorithm = payload.get("algorithm")
        if workload is None or algorithm is None:
            raise ServiceError(400, "bad_request", "'workload' and 'algorithm' are required")
        params = payload.get("workload_params", {})
        if not isinstance(params, Mapping):
            raise ServiceError(400, "bad_request", "'workload_params' must be an object")
        seed = self._int_field(payload, "seed", 0)
        config = self._request_config(payload)
        graph_key, graph = self._graph_for(workload, params)
        scheduler = self._scheduler_for(algorithm)
        horizon = self._int_field(payload, "horizon", None)
        if horizon is None:
            horizon = self.policy.resolve(graph)
        if horizon < 1:
            raise ServiceError(400, "bad_request", f"'horizon' must be >= 1, got {horizon}")
        if horizon > self.max_horizon:
            raise ServiceError(
                413, "horizon_too_large",
                f"horizon {horizon} exceeds this service's limit of {self.max_horizon}; "
                "run oversized horizons through the library/CLI streaming path",
            )
        schedule_key = schedule_key_for(algorithm, seed, scheduler.seeded)
        key = TraceKey(graph_key, schedule_key, horizon, config.cache_key())
        identity: Dict[str, object] = {
            "workload": workload,
            "algorithm": algorithm,
            "seed": seed,
            "horizon": horizon,
            "n": graph.num_nodes(),
        }
        return identity, graph, key, config, lambda: scheduler.build(graph, seed=seed)

    def _answers(self, payload: Mapping[str, object]) -> Tuple[Dict[str, object], TraceEntry]:
        """The echo block and the rendered answers of a query request.

        A hit looks its key up once and builds nothing.  A miss builds the
        request's schedule and renders its :class:`TraceEntry` inside the
        cache's single-flight, on every engine: a ``sets`` request has a key
        of its own (its config is part of the key) and renders from one
        shared reference trace.
        """
        identity, graph, key, config, build = self._resolve_request(payload)

        def render() -> TraceEntry:
            return TraceEntry.render(build(), graph, key.horizon, config)

        return identity, self.cache.get_or_build(key, render, TraceEntry.nbytes)

    # -- endpoints -----------------------------------------------------------
    def evaluate_json(self, payload: Mapping[str, object]) -> bytes:
        """``POST /evaluate`` — the full metric suite, as the body's bytes."""
        identity, entry = self._answers(payload)
        return _splice(identity, report=entry.report)

    def validate_json(self, payload: Mapping[str, object]) -> bytes:
        """``POST /validate`` — legality (+ optional periodicity) checks, as
        the body's bytes."""
        _require_object(payload)
        check_periodic = payload.get("check_periodic", False)
        if not isinstance(check_periodic, bool):
            raise ServiceError(400, "bad_request", "'check_periodic' must be a boolean")
        identity, entry = self._answers(payload)
        validation = entry.validation_periodic if check_periodic else entry.validation
        return _splice(identity, validation=validation)

    def report_json(self, payload: Mapping[str, object]) -> bytes:
        """``POST /report`` — evaluate *and* validate, as the body's bytes."""
        identity, entry = self._answers(payload)
        return _splice(
            identity, ok=entry.ok, report=entry.report,
            summary=entry.summary, validation=entry.validation,
        )

    def evaluate(self, payload: Mapping[str, object]) -> Dict[str, object]:
        """:meth:`evaluate_json`, decoded."""
        return json.loads(self.evaluate_json(payload))

    def validate(self, payload: Mapping[str, object]) -> Dict[str, object]:
        """:meth:`validate_json`, decoded."""
        return json.loads(self.validate_json(payload))

    def report(self, payload: Mapping[str, object]) -> Dict[str, object]:
        """:meth:`report_json`, decoded."""
        return json.loads(self.report_json(payload))

    def synthesize(self, payload: Mapping[str, object]) -> Dict[str, object]:
        """``POST /synthesize`` — build a schedule and return its calendar.

        The schedule-synthesis endpoint: the scheduling construction itself
        as a service, without measuring it (chain ``/report`` for metrics).
        It always builds: the schedule is the answer.
        """
        _require_object(payload)
        holidays = self._int_field(payload, "holidays", 12)
        if holidays < 1 or holidays > 10_000:
            raise ServiceError(400, "bad_request", "'holidays' must be in [1, 10000]")
        identity, _, _, _, build = self._resolve_request(payload)
        identity["schedule"] = schedule_payload(build(), min(holidays, identity["horizon"]))
        return identity

    def cell(self, payload: Mapping[str, object]) -> Dict[str, object]:
        """``POST /cell`` — experiment-cell read-through against the store.

        Resolves the request to a content-addressed
        :class:`~repro.analysis.engine.ExperimentCell`.  With a store
        attached this is a read-through cache: a stored cell replays its
        record without executing anything; a miss executes exactly once
        (concurrent identical requests coalesce) and writes the record back.
        """
        _require_object(payload)
        workload = payload.get("workload")
        algorithm = payload.get("algorithm")
        if workload is None or algorithm is None:
            raise ServiceError(400, "bad_request", "'workload' and 'algorithm' are required")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ServiceError(400, "bad_request", "'params' must be an object")
        seed = self._int_field(payload, "seed", 0)
        horizon = self._int_field(payload, "horizon", None)
        if horizon is not None and horizon > self.max_horizon:
            raise ServiceError(
                413, "horizon_too_large",
                f"horizon {horizon} exceeds this service's limit of {self.max_horizon}",
            )
        config = self._request_config(payload)
        # Fail on unknown names *before* consulting the store: a typo must be
        # a 4xx, not a cache miss that executes and explodes later.
        self._scheduler_for(algorithm)
        if workload not in available_workloads():
            raise ServiceError(
                404, "unknown_workload",
                f"unknown workload {workload!r}; see /workloads",
            )
        try:
            cell = ExperimentCell(
                experiment=str(payload.get("experiment", "serve")),
                workload=str(workload),
                algorithm=str(algorithm),
                params=dict(params),
                seed=seed,
                horizon=horizon,
                policy=self.policy,
                config=config,
            )
        except ValueError as exc:
            raise ServiceError(400, "bad_request", str(exc))
        cell_id = cell.cell_id()

        def resolve() -> Tuple[object, bool]:
            if self.store is not None:
                with self._store_lock:
                    stored = self.store.get(cell_id)
                if stored is not None:
                    return stored, True
            # the graph the query endpoints share, not a registry rebuild
            _, graph = self._graph_for(cell.workload, cell.params)
            record = execute_cell(cell, graph)
            if self.store is not None:
                with self._store_lock:
                    self.store.put(record, campaign="serve", config_json=config.to_json())
            return record, False

        (record, cached), _ = self._cell_flight.do(cell_id, resolve)
        self.metrics.observe_store(cached)
        return {"cell_id": cell_id, "cached": cached, "record": record_to_dict(record)}

    # -- discovery + ops -----------------------------------------------------
    def workloads(self) -> Dict[str, object]:
        """``GET /workloads`` — registered workload names."""
        return {"workloads": available_workloads()}

    def algorithms(self) -> Dict[str, object]:
        """``GET /algorithms`` — registered scheduler names."""
        return {"algorithms": available_schedulers()}

    def health(self) -> Dict[str, object]:
        """``GET /healthz``."""
        return self.metrics.health()

    def metrics_snapshot(self) -> Dict[str, object]:
        """``GET /metrics`` — counters + latency + cache stats, as JSON."""
        return self.metrics.snapshot(cache_stats=self.cache.stats())
