"""Declarative experiment engine: specs in, streamed records out.

The layer between *one* scheduler×graph run (:mod:`repro.analysis.runner`)
and a whole empirical campaign.  An :class:`ExperimentSpec` is pure data —
named workloads (resolved through :mod:`repro.graphs.suites`), registered
schedulers, a parameter grid, seeds, a :class:`HorizonPolicy` and one
:class:`~repro.core.config.EngineConfig` of trace-engine knobs (backend,
horizon representation, chunk width, generator window) — and an
:class:`ExperimentEngine` executes its
cartesian product of cells with pluggable executors:

* ``jobs=1`` — in-process serial loop (no pool overhead);
* ``jobs=N`` — :class:`concurrent.futures.ProcessPoolExecutor` fan-out,
  one future per cell.

Either way every cell runs through :func:`execute_cell`: build, evaluate,
validate and record happen in one place.

Records stream to a JSONL *sink* as cells complete, but always in spec
order (a small reorder buffer holds out-of-order completions), so a serial
and a parallel run of the same spec produce **byte-identical** files modulo
the timing metrics.  That determinism rests on per-cell seeding: every
cell's scheduler seed is derived from ``(workload, algorithm, params,
seed)`` via :func:`repro.utils.rng.derive_seed`, never from execution
order or worker identity.

Every cell also carries a content-keyed :attr:`~ExperimentCell.cell_id`
(a SHA-256 over the cell identity and the spec's execution knobs), which is
what makes interrupted runs resumable: ``resume=True`` reads the sink,
keeps the completed cells it finds, and re-runs only the missing ones.

The same content key powers the **cross-campaign cache**: attach a
:class:`~repro.io.store.ResultStore` (``store=``) and every planned cell is
looked up by ``cell_id`` before execution — hits replay the stored record
straight to the sink (stamped ``cached: true``), misses run and are written
back, so two specs sharing 90% of their grid pay for the 10% delta.  The
store is an I/O concern: it never changes a ``cell_id`` or a computed
record, and the JSONL sink remains the wire format.  With a store attached,
``resume=True`` also resolves through one indexed lookup instead of
re-parsing the sink.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.records import ExperimentRecord, ResultSet
from repro.core.config import EngineConfig
from repro.core.problem import ConflictGraph
from repro.graphs.suites import expand_workload_names, get_workload
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

__all__ = [
    "HorizonPolicy",
    "ExperimentSpec",
    "ExperimentCell",
    "ExperimentEngine",
    "execute_cell",
    "expand_grid",
    "run_grid",
]

_log = get_logger("analysis.engine")

#: metric keys that measure wall-clock time and therefore legitimately
#: differ between two otherwise identical runs of the same spec.
TIMING_METRICS = ("build_seconds", "measure_seconds")

#: record params the engine stamps on every cell; grid keys must not shadow
#: them or the swept values would be silently clobbered in the output.
RESERVED_PARAMS = frozenset(
    {"horizon", "n", "backend", "seed", "cell_seed", "cell_id", "horizon_mode"}
)


# ---------------------------------------------------------------------------
# horizon policy (shared by analysis.runner and benchmarks.common)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorizonPolicy:
    """How long to observe a schedule before measuring it.

    One object consolidates the two historically duplicated rules:

    * :meth:`for_graph` — the degree rule of ``analysis.runner``: several
      multiples of the Section 5 period ``2·(Δ+1)``, clamped to
      ``[minimum, cap]``;
    * :meth:`for_bound` — the bound rule of ``benchmarks.common``: several
      multiples of a stated per-node bound, clamped the same way.

    :meth:`resolve` combines them the way ``run_scheduler`` always has:
    degree rule first, then (uncapped) extension so a claimed per-node bound
    can actually be witnessed twice.  ``explicit`` short-circuits everything
    — a spec with a fixed horizon evaluates every cell over that horizon.

    The policy decides how *long* to observe; how the observation is
    *represented* (dense matrix vs. streamed chunks) is the spec's
    ``horizon_mode``/``chunk`` — see :mod:`repro.core.trace`.
    """

    multiplier: int = 4
    minimum: int = 32
    cap: int = 20_000
    explicit: Optional[int] = None

    def _clamp(self, horizon: int) -> int:
        return max(self.minimum, min(horizon, self.cap))

    def for_graph(self, graph: ConflictGraph) -> int:
        """Horizon from the degree rule alone."""
        if self.explicit is not None:
            return self.explicit
        return self._clamp(self.multiplier * 2 * (graph.max_degree() + 1))

    def for_bound(self, worst_bound: float) -> int:
        """Horizon long enough to witness a per-node bound several times."""
        if self.explicit is not None:
            return self.explicit
        return self._clamp(int(self.multiplier * worst_bound) + 2)

    def resolve(
        self,
        graph: ConflictGraph,
        bound_fn: Optional[Callable[[object], float]] = None,
    ) -> int:
        """The horizon ``run_scheduler`` uses when none is given explicitly."""
        if self.explicit is not None:
            return self.explicit
        horizon = self.for_graph(graph)
        if bound_fn is not None and graph.num_nodes() > 0:
            worst_bound = max(bound_fn(p) for p in graph.nodes())
            horizon = max(horizon, int(2 * worst_bound) + 2)
        return horizon

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (for spec files and cell hashing)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "HorizonPolicy":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown HorizonPolicy fields: {sorted(unknown)}")
        return cls(**payload)


# ---------------------------------------------------------------------------
# grid expansion (canonical home; re-exported by analysis.sweeps)
# ---------------------------------------------------------------------------

def expand_grid(param_lists: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """All combinations of the given parameter lists, as dictionaries.

    The iteration order is deterministic: parameters vary fastest in the
    order they appear last in the mapping (standard cartesian-product order).
    """
    if not param_lists:
        return [{}]
    names = list(param_lists.keys())
    combos = itertools.product(*(param_lists[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


# ---------------------------------------------------------------------------
# spec and cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment as pure data.

    ``workloads`` are registry names (glob patterns like ``small/*`` expand
    against :func:`repro.graphs.suites.available_workloads`) or keys of the
    graph mapping passed to :meth:`ExperimentEngine.run`.  ``grid`` values
    must be JSON-serializable; each grid point is forwarded to the workload
    factory (filtered to the parameters it accepts) and recorded verbatim in
    the cell's params.  ``workload_params`` are fixed factory parameters
    shared by every cell (e.g. a workload-construction seed), not swept.
    """

    name: str
    workloads: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    grid: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (0,)
    horizon: Optional[int] = None
    policy: HorizonPolicy = field(default_factory=HorizonPolicy)
    certify_bound: bool = True
    workload_params: Mapping[str, object] = field(default_factory=dict)
    #: every trace-engine execution knob for every cell — backend, horizon
    #: representation, chunk width, generator window — on one EngineConfig.
    #: Non-default knobs are hashed into cell ids; defaults leave ids (and
    #: therefore resumable sinks) untouched.
    config: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        grid = dict(self.grid)
        for key, values in grid.items():
            if key in RESERVED_PARAMS:
                raise ValueError(
                    f"grid key {key!r} collides with a reserved record field; "
                    "sweep scheduler seeds via 'seeds', fix the horizon via "
                    "'horizon', or rename the parameter"
                )
            # tuple("fast") would silently become per-character grid points
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise ValueError(
                    f"grid values for {key!r} must be a list of values, got {values!r}"
                )
        object.__setattr__(self, "grid", {k: tuple(v) for k, v in grid.items()})
        object.__setattr__(self, "workload_params", dict(self.workload_params))
        if not self.workloads:
            raise ValueError("spec needs at least one workload")
        if not self.algorithms:
            raise ValueError("spec needs at least one algorithm")
        if not self.seeds:
            raise ValueError("spec needs at least one seed")

    def resolved_workloads(self, extra: Sequence[str] = ()) -> List[str]:
        """Workload names with glob patterns expanded."""
        return expand_workload_names(self.workloads, extra=extra)

    def cells(self, extra_workloads: Sequence[str] = ()) -> List["ExperimentCell"]:
        """The ordered cartesian product: workload × algorithm × grid × seed."""
        out: List[ExperimentCell] = []
        for workload in self.resolved_workloads(extra=extra_workloads):
            for algorithm in self.algorithms:
                for params in expand_grid(self.grid):
                    for seed in self.seeds:
                        out.append(
                            ExperimentCell(
                                experiment=self.name,
                                workload=workload,
                                algorithm=algorithm,
                                params=params,
                                seed=seed,
                                horizon=self.horizon,
                                policy=self.policy,
                                certify_bound=self.certify_bound,
                                workload_params=dict(self.workload_params),
                                config=self.config,
                            )
                        )
        return out

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form of the whole spec."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "algorithms": list(self.algorithms),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "seeds": list(self.seeds),
            "horizon": self.horizon,
            "policy": self.policy.to_dict(),
            "certify_bound": self.certify_bound,
            "workload_params": dict(self.workload_params),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(payload)
        policy = data.pop("policy", None)
        config = data.pop("config", None)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown ExperimentSpec fields: {sorted(unknown)}; engine knobs "
                "(backend, horizon_mode, chunk, ...) live under 'config'"
            )
        if policy is not None:
            data["policy"] = (
                policy if isinstance(policy, HorizonPolicy) else HorizonPolicy.from_dict(policy)
            )
        if config is not None:
            data["config"] = (
                config if isinstance(config, EngineConfig) else EngineConfig.from_dict(config)
            )
        return cls(**data)

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the spec to a JSON file (the CLI ``--spec`` format)."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return out

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def _canonical_value(value: object) -> object:
    """A JSON-canonical copy of a param value: mapping keys stringified
    (recursively), tuples as lists.

    ``json.dumps(sort_keys=True)`` cannot even *sort* a dict mixing ``str``
    and ``int`` keys, and sorts all-``int`` keys numerically — so the same
    logical params could hash differently (or crash) depending on whether
    they had round-tripped through JSON yet.  Canonicalizing first makes
    ``param_key``/``cell_id`` total and stable: a no-op for the all-string
    params every spec produces (golden ids unchanged), and locked by golden
    tests for the exotic shapes (non-string keys, nested lists)."""
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


def graph_fingerprint(graph: ConflictGraph) -> str:
    """Content hash of a graph (name, nodes, edges).

    Stamped into the :meth:`ExperimentCell.cell_id` of cells whose graph was
    passed ad hoc (shadowing the registry), so resume never reuses a record
    produced from different graph content under the same workload name.
    """
    payload = repr(
        (graph.name, sorted(map(repr, graph.nodes())), sorted(map(repr, graph.edges())))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentCell:
    """One executable cell of a spec, self-contained and picklable."""

    experiment: str
    workload: str
    algorithm: str
    params: Mapping[str, object]
    seed: int
    horizon: Optional[int] = None
    policy: HorizonPolicy = field(default_factory=HorizonPolicy)
    certify_bound: bool = True
    workload_params: Mapping[str, object] = field(default_factory=dict)
    #: the spec's EngineConfig, carried whole (see ExperimentSpec.config).
    config: EngineConfig = field(default_factory=EngineConfig)
    #: content hash of an ad-hoc (non-registry) graph; None for registry
    #: workloads, whose content is already determined by name + params.
    graph_key: Optional[str] = None

    def param_key(self) -> str:
        """Canonical string form of the grid point (stable across processes
        and across a JSON round-trip — see :func:`_canonical_value`)."""
        return json.dumps(_canonical_value(dict(self.params)), sort_keys=True)

    def cell_seed(self) -> int:
        """The scheduler seed for this cell.

        Derived from ``(workload, algorithm, params, seed)`` with the same
        SHA-based derivation the rest of the package uses, so it is identical
        in every process and independent of execution order — the property
        that makes ``jobs=1`` and ``jobs=N`` runs byte-identical.
        """
        return derive_seed(self.seed, "cell", self.workload, self.algorithm, self.param_key())

    def cell_id(self) -> str:
        """Content key identifying this cell within a results sink.

        Hashes the cell identity *and* the execution knobs that change the
        measured numbers (horizon, policy, backend, certification), so a
        resumed run only skips cells that were produced by an equivalent
        spec.  The other :class:`EngineConfig` knobs are hashed only when
        they deviate from the defaults: dense and stream produce identical
        records and parallelism never changes one, so a default config keeps
        the cell ids (and therefore resumable sinks) of runs recorded before
        each knob existed — asserted against golden PR 4 ids in
        ``tests/core/test_config.py``.
        """
        identity: Dict[str, object] = {
            "experiment": self.experiment,
            "workload": self.workload,
            "algorithm": self.algorithm,
            "params": _canonical_value(dict(self.params)),
            "seed": self.seed,
            "horizon": self.horizon,
            "policy": self.policy.to_dict(),
            "backend": self.config.backend,
            "certify_bound": self.certify_bound,
            "workload_params": _canonical_value(dict(self.workload_params)),
            "graph_key": self.graph_key,
        }
        # Only non-default knobs mark the id (EngineConfig.non_default):
        # the horizon representation never changes a record, so ids (and
        # resumable sinks) recorded before each knob existed stay valid.
        # ``backend`` predates the config and is always hashed, exactly as
        # it was pre-consolidation.
        identity.update(
            {k: v for k, v in self.config.non_default().items() if k != "backend"}
        )
        payload = json.dumps(identity, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        """Short human-readable label for logs."""
        bits = f"{self.workload} × {self.algorithm}"
        if self.params:
            bits += f" {self.param_key()}"
        return f"{bits} seed={self.seed}"


def _graph_params(cell: ExperimentCell) -> Dict[str, object]:
    """The workload-factory parameters of a cell (fixed + grid point)."""
    return {**cell.workload_params, **cell.params}


def _graph_cache_key(cell: ExperimentCell) -> Tuple[str, str]:
    """Cells with the same workload and factory parameters share one graph."""
    return (
        cell.workload,
        json.dumps(_canonical_value(_graph_params(cell)), sort_keys=True, default=repr),
    )


def execute_cell(
    cell: ExperimentCell, graph: Optional[ConflictGraph] = None
) -> ExperimentRecord:
    """Run one cell and return its record.

    When ``graph`` is ``None`` the workload is rebuilt from the registry in
    the calling process.  The engine always resolves graphs up front and
    passes them in (pickled to pool workers), so worker processes never
    depend on runtime ``register_workload`` calls that only happened in the
    parent (spawn-based platforms re-import the registry fresh).
    """
    # Imported here, not at module level: runner imports HorizonPolicy from
    # this module, so the engine->runner edge must stay lazy.
    from repro.analysis.runner import run_scheduler
    from repro.algorithms.registry import get_scheduler

    if graph is None:
        graph = get_workload(cell.workload, **_graph_params(cell))
    scheduler = get_scheduler(cell.algorithm)
    outcome = run_scheduler(
        scheduler,
        graph,
        horizon=cell.horizon,
        seed=cell.cell_seed(),
        certify_bound=cell.certify_bound,
        policy=cell.policy,
        config=cell.config,
    )
    params: Dict[str, object] = dict(cell.params)
    params.update(
        {
            "horizon": outcome.horizon,
            "n": graph.num_nodes(),
            "backend": cell.config.backend,
            "seed": cell.seed,
            "cell_seed": cell.cell_seed(),
            "cell_id": cell.cell_id(),
            "horizon_mode": outcome.horizon_mode,
        }
    )
    return ExperimentRecord(
        experiment=cell.experiment,
        workload=cell.workload,
        algorithm=cell.algorithm,
        metrics=outcome.metrics(),
        params=params,
    )


def _record_line(record: ExperimentRecord) -> str:
    from repro.io.results import record_to_json_line

    return record_to_json_line(record)


def _stamp_cached(record: ExperimentRecord) -> ExperimentRecord:
    """A copy of a stored record marked as a cache replay.

    The stamp lives in ``params`` (``cached: true``) so a sink reader can
    tell replays from fresh measurements; like the timing metrics it is
    provenance, not content, and comparisons strip it (the store itself
    never persists it — see :meth:`ResultStore.put_many`).
    """
    from repro.io.store import CACHED_PARAM

    params = dict(record.params)
    params[CACHED_PARAM] = True
    return ExperimentRecord(
        experiment=record.experiment,
        workload=record.workload,
        algorithm=record.algorithm,
        metrics=dict(record.metrics),
        params=params,
    )


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class ExperimentEngine:
    """Executes an :class:`ExperimentSpec`, streaming records to a sink.

    Parameters:
        jobs: worker processes; ``1`` runs in-process (no pool).
        sink: optional JSONL path records are appended to, in spec order,
            flushed as each cell's turn comes up.
        resume: read the sink first and skip cells whose ``cell_id`` already
            has a record (a malformed trailing line is dropped and its cell
            re-run).  With a store attached, completed cells are resolved
            through one indexed ``cell_id`` lookup instead of re-parsing
            the sink, and the sink is rebuilt from the store's records.
        store: optional :class:`~repro.io.store.ResultStore` (or a path to
            one, opened on first use) acting as a cross-campaign cell
            cache: planned cells already in the store replay their stored
            record (stamped ``cached: true``) instead of executing, and
            freshly executed records are written back as they are emitted.
        cache: set ``False`` to disable cache *lookups* while still
            recording fresh results into the store (a forced re-run that
            leaves the store warm for the next campaign).
        campaign: tag written on every stored record; defaults to the
            spec name.  Stored campaigns are listed by
            :meth:`ResultStore.campaigns`.

    After :meth:`run`, :attr:`stats` holds ``{"total", "skipped",
    "cached", "executed", "wall_seconds"}`` for the last run —
    ``skipped`` counts resume hits, ``cached`` store replays, and
    ``executed`` only cells that actually ran.
    """

    def __init__(
        self,
        jobs: int = 1,
        sink: Optional[Union[str, Path]] = None,
        resume: bool = False,
        store: Optional[Union[str, Path, "ResultStore"]] = None,
        cache: bool = True,
        campaign: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if resume and sink is None and store is None:
            raise ValueError("resume=True requires a sink or a store to resume from")
        self.jobs = jobs
        self.sink = Path(sink) if sink is not None else None
        self.resume = resume
        if store is not None and not hasattr(store, "lookup"):
            # path-like: open (creating if missing) with the default settings
            from repro.io.store import ResultStore

            store = ResultStore(store)
        self.store = store
        self.cache = cache
        self.campaign = campaign
        self.stats: Dict[str, object] = {}

    # -- sink helpers --------------------------------------------------------
    def _load_completed(
        self, expected_ids: Sequence[str]
    ) -> Tuple[Dict[str, ExperimentRecord], List[str]]:
        """Split the sink into this spec's completed records and foreign lines.

        Returns ``(completed, foreign)``: ``completed`` keyed by cell id,
        ``foreign`` the raw lines that belong to anything else — other specs'
        records and even non-record JSON lines are preserved verbatim, so a
        shared results file loses nothing on resume.  The only line ever
        dropped is an unparseable *final* line: in an append-only stream
        that is the signature of a crash-truncated write, and dropping it is
        what makes its cell re-run.  Rewrites the sink (atomically) to
        ``foreign + completed-in-spec-order``.
        """
        from repro.io.results import record_from_dict

        if self.sink is None or not self.sink.exists():
            return {}, []
        expected = set(expected_ids)
        completed: Dict[str, ExperimentRecord] = {}
        foreign: List[str] = []
        raw_lines = [line for line in self.sink.read_text(encoding="utf-8").splitlines() if line.strip()]
        for lineno, line in enumerate(raw_lines):
            try:
                payload = json.loads(line)
            except ValueError:
                if lineno == len(raw_lines) - 1:
                    continue  # crash-truncated tail
                foreign.append(line)
                continue
            try:
                record = record_from_dict(payload)
            except (KeyError, TypeError, ValueError):
                # valid JSON that just isn't a record (metadata header, other
                # tool's line) — foreign, preserved wherever it sits
                foreign.append(line)
                continue
            cell_id = record.params.get("cell_id")
            if isinstance(cell_id, str) and cell_id in expected:
                completed[cell_id] = record
            else:
                foreign.append(line)
        self._rewrite_lines(
            foreign + [_record_line(completed[c]) for c in expected_ids if c in completed]
        )
        return completed, foreign

    def _open_sink(self):
        if self.sink is None:
            return None
        self.sink.parent.mkdir(parents=True, exist_ok=True)
        # Sink-based resume appends after the kept prefix; store-based resume
        # rebuilds the sink from the store's records, so it starts fresh.
        mode = "a" if (self.resume and self.store is None) else "w"
        return self.sink.open(mode, encoding="utf-8")

    def _rewrite_lines(self, lines: Sequence[str]) -> None:
        """Atomically replace the sink's content with the given JSONL lines."""
        tmp = self.sink.with_name(self.sink.name + ".tmp")
        tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        tmp.replace(self.sink)

    # -- execution -----------------------------------------------------------
    def run(
        self,
        spec: ExperimentSpec,
        workloads: Optional[Mapping[str, ConflictGraph]] = None,
    ) -> ResultSet:
        """Execute every cell of ``spec`` and return all records in spec order.

        ``workloads`` optionally maps names to pre-built graphs, shadowing
        the registry — this is how :func:`~repro.analysis.runner.compare_schedulers`
        runs ad-hoc graphs through the engine.  All graphs (ad-hoc and
        registry-built) are resolved once in this process and pickled to
        pool workers, so runtime ``register_workload`` calls work under any
        multiprocessing start method.
        """
        from repro.graphs.suites import available_workloads
        from repro.io.results import record_to_json_line

        workloads = dict(workloads or {})
        cells = spec.cells(extra_workloads=tuple(workloads))
        # Ad-hoc graphs shadow the registry by name only; stamp their content
        # into the cell ids so resume can't reuse a record produced from a
        # different graph under the same name.
        fingerprints = {name: graph_fingerprint(g) for name, g in workloads.items()}
        cells = [
            replace(cell, graph_key=fingerprints[cell.workload])
            if cell.workload in fingerprints
            else cell
            for cell in cells
        ]
        # Catch typo'd plain names before the sink is opened (and possibly
        # truncated) rather than inside the first worker.
        known = set(available_workloads())
        unknown = sorted(
            {c.workload for c in cells if c.workload not in workloads and c.workload not in known}
        )
        if unknown:
            raise KeyError(
                f"unknown workload(s): {', '.join(unknown)}; "
                "see repro.graphs.suites.available_workloads()"
            )
        cell_ids = [cell.cell_id() for cell in cells]
        if self.resume and self.store is not None:
            # Indexed resume: one chunked PRIMARY KEY probe replaces a full
            # sink re-parse.  The sink is rebuilt from the store at the end,
            # so foreign lines (a concept of shared JSONL files, not of the
            # keyed store) don't apply on this path.
            completed, foreign = self.store.lookup(cell_ids), []
        elif self.resume:
            completed, foreign = self._load_completed(cell_ids)
        else:
            completed, foreign = {}, []

        start = time.perf_counter()
        pending = [
            (i, cell) for i, cell in enumerate(cells) if cell_ids[i] not in completed
        ]
        # Cross-campaign cache: probe the store for every still-pending cell
        # and replay hits instead of executing them.  Hits are stamped
        # ``cached: true`` (a provenance field, stripped alongside the timing
        # metrics when comparing runs) and flow to the sink like fresh
        # records; only misses execute — a fully warm campaign builds no
        # graphs and runs no kernels at all.
        cache_hits: Dict[int, ExperimentRecord] = {}
        if self.store is not None and self.cache and pending:
            hits = self.store.lookup([cell_ids[i] for i, _ in pending])
            if hits:
                for i, _ in pending:
                    record = hits.get(cell_ids[i])
                    if record is not None:
                        cache_hits[i] = _stamp_cached(record)
                pending = [(i, c) for i, c in pending if i not in cache_hits]
        campaign = self.campaign or spec.name
        if self.store is not None:
            self.store.register_campaign(
                campaign,
                experiment=spec.name,
                spec_json=json.dumps(spec.to_dict(), sort_keys=True),
            )
        # Resolve every distinct graph once, in this process: ad-hoc graphs
        # come from the override mapping, registry names are built here (not
        # in workers, which on spawn platforms would miss runtime
        # registrations), and cells sharing a workload share one instance.
        graphs: Dict[Tuple[str, str], ConflictGraph] = {}
        for _, cell in pending:
            key = _graph_cache_key(cell)
            if key not in graphs:
                graphs[key] = (
                    workloads[cell.workload]
                    if cell.workload in workloads
                    else get_workload(cell.workload, **_graph_params(cell))
                )
        _log.info(
            "experiment %s: %d cells (%d resumed, %d cache hits, %d to run, jobs=%d)",
            spec.name, len(cells), len(cells) - len(pending) - len(cache_hits),
            len(cache_hits), len(pending), self.jobs,
        )

        records: Dict[int, ExperimentRecord] = {
            i: completed[cell_ids[i]] for i, _ in enumerate(cells) if cell_ids[i] in completed
        }
        records.update(cache_hits)
        sink_fh = self._open_sink()
        emitted = 0  # cells whose records have reached the sink, in spec order
        try:
            def emit_ready() -> None:
                nonlocal emitted
                while emitted < len(cells) and emitted in records:
                    record = records[emitted]
                    fresh = cell_ids[emitted] not in completed
                    if sink_fh is not None and fresh:
                        sink_fh.write(record_to_json_line(record) + "\n")
                        sink_fh.flush()
                    if self.store is not None and fresh and emitted not in cache_hits:
                        # Write freshly executed records back as their turn
                        # comes up (same crash-durability as the sink: a
                        # completed prefix survives).  Replayed hits are
                        # already stored — re-putting them would be a no-op
                        # INSERT OR IGNORE, skipped to keep the warm path
                        # read-only.
                        self.store.put(
                            record,
                            campaign=campaign,
                            config_json=cells[emitted].config.to_json(),
                        )
                    emitted += 1

            if self.jobs == 1 or len(pending) <= 1:
                for index, cell in pending:
                    records[index] = self._run_one(cell, graphs, index, len(cells))
                    emit_ready()
            else:
                self._run_pool(pending, graphs, records, len(cells), emit_ready)
            emit_ready()
        finally:
            if sink_fh is not None:
                sink_fh.close()

        if self.resume and self.sink is not None and completed:
            # A resumed run appends fresh cells after the kept prefix; once
            # complete, rewrite the sink (atomically) as foreign lines
            # followed by this spec's records in spec order, so every finished
            # run of the same spec produces the same file layout.
            self._rewrite_lines(
                foreign + [_record_line(records[i]) for i in range(len(cells))]
            )

        wall = time.perf_counter() - start
        self.stats = {
            "total": len(cells),
            "skipped": len(completed),
            "cached": len(cache_hits),
            "executed": len(pending),
            "wall_seconds": wall,
        }
        _log.info(
            "experiment %s done: %d cells in %.3fs (%d executed, %d cached, %d resumed)",
            spec.name, len(cells), wall, len(pending), len(cache_hits), len(completed),
        )
        return ResultSet(records[i] for i in range(len(cells)))

    def _run_one(
        self,
        cell: ExperimentCell,
        graphs: Mapping[Tuple[str, str], ConflictGraph],
        index: int,
        total: int,
    ) -> ExperimentRecord:
        start = time.perf_counter()
        record = execute_cell(cell, graph=graphs[_graph_cache_key(cell)])
        _log.info(
            "cell %d/%d %s: max_mul=%s (%.3fs)",
            index + 1, total, cell.describe(),
            record.metrics.get("max_mul"), time.perf_counter() - start,
        )
        return record

    def _run_pool(
        self,
        pending: Sequence[Tuple[int, ExperimentCell]],
        graphs: Mapping[Tuple[str, str], ConflictGraph],
        records: Dict[int, ExperimentRecord],
        total: int,
        emit_ready: Callable[[], None],
    ) -> None:
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(pending))) as pool:
            # The graph is pickled with each cell, not once per worker:
            # workers must not resolve names themselves (runtime
            # registrations don't exist in spawned children), and per-worker
            # caching isn't worth the machinery at the graph sizes this
            # package runs.
            futures = {
                pool.submit(execute_cell, cell, graphs[_graph_cache_key(cell)]): (index, cell)
                for index, cell in pending
            }
            running = set(futures)
            while running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    index, cell = futures[future]
                    records[index] = record = future.result()
                    _log.info(
                        "cell %d/%d %s: max_mul=%s",
                        index + 1, total, cell.describe(), record.metrics.get("max_mul"),
                    )
                emit_ready()


# ---------------------------------------------------------------------------
# generic grid execution (backs analysis.sweeps.sweep)
# ---------------------------------------------------------------------------

def _invoke_runner(
    payload: Tuple[Callable[..., Iterable[ExperimentRecord]], Dict[str, object]]
) -> List[ExperimentRecord]:
    runner, params = payload
    return list(runner(**params))


def run_grid(
    param_lists: Mapping[str, Sequence[object]],
    runner: Callable[..., Iterable[ExperimentRecord]],
    jobs: int = 1,
) -> ResultSet:
    """Apply ``runner(**params)`` over a parameter grid, merging all records.

    Results are merged in grid order (``Executor.map`` yields in submission
    order).  With ``jobs > 1`` the runner is executed in worker processes
    and must be picklable (a module-level function); closures require
    ``jobs=1``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    combos = expand_grid(param_lists)
    results = ResultSet()
    if jobs == 1 or len(combos) <= 1:
        for params in combos:
            results.extend(runner(**params))
        return results
    with ProcessPoolExecutor(max_workers=min(jobs, len(combos))) as pool:
        for batch in pool.map(_invoke_runner, [(runner, params) for params in combos]):
            results.extend(batch)
    return results
