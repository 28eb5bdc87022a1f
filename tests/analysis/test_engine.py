"""Tests for the declarative experiment engine.

Covers the spec/cell data model (round-trip, content keys, per-cell seeds),
the horizon policy consolidation, serial-vs-parallel determinism on the
small suite, JSONL streaming, and resume-after-truncation semantics.
"""

import json

import pytest

from repro.analysis.engine import (
    ExperimentCell,
    ExperimentEngine,
    ExperimentSpec,
    HorizonPolicy,
    TIMING_METRICS,
    execute_cell,
    expand_grid,
    run_grid,
)
from repro.analysis.records import ExperimentRecord, ResultSet
from repro.analysis.runner import choose_horizon
from repro.core.config import EngineConfig
from repro.graphs.families import clique, star
from repro.graphs.suites import SMALL_WORKLOADS
from repro.io.results import read_records_jsonl, record_to_json_line


def tiny_spec(**overrides):
    fields = dict(
        name="t",
        workloads=("small/path", "small/clique"),
        algorithms=("sequential", "degree-periodic"),
        horizon=48,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def stripped_lines(path):
    """Sink lines with the timing metrics removed (canonical JSON)."""
    out = []
    for line in open(path):
        payload = json.loads(line)
        for key in TIMING_METRICS:
            payload["metrics"].pop(key, None)
        out.append(json.dumps(payload, sort_keys=True))
    return out


class TestHorizonPolicy:
    def test_for_graph_matches_choose_horizon(self):
        for graph in (star(3), clique(5), clique(30)):
            assert HorizonPolicy().for_graph(graph) == choose_horizon(graph)

    def test_for_bound_matches_legacy_rule(self):
        # the historical benchmarks.common.horizon_for_bound defaults
        policy = HorizonPolicy(multiplier=3, minimum=64, cap=8192)
        assert policy.for_bound(10) == 64
        assert policy.for_bound(100) == 302
        assert policy.for_bound(10_000) == 8192

    def test_explicit_short_circuits(self):
        policy = HorizonPolicy(explicit=77)
        assert policy.for_graph(clique(30)) == 77
        assert policy.for_bound(1e9) == 77
        assert policy.resolve(clique(30), bound_fn=lambda p: 1e9) == 77

    def test_resolve_extends_past_cap_for_bounds(self):
        policy = HorizonPolicy(cap=40)
        horizon = policy.resolve(clique(5), bound_fn=lambda p: 1000)
        assert horizon == 2 * 1000 + 2

    def test_round_trip(self):
        policy = HorizonPolicy(multiplier=7, minimum=8, cap=99, explicit=None)
        assert HorizonPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError):
            HorizonPolicy.from_dict({"nope": 1})


class TestSpec:
    def test_cells_cartesian_order(self):
        spec = tiny_spec(grid={"scale": [1, 2]}, seeds=(0, 1))
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        # workload varies slowest, seed fastest
        assert [c.workload for c in cells[:8]] == ["small/path"] * 8
        assert [c.seed for c in cells[:2]] == [0, 1]
        assert cells[0].params == {"scale": 1} and cells[2].params == {"scale": 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", workloads=(), algorithms=("sequential",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", workloads=("small/path",), algorithms=())
        with pytest.raises(ValueError):
            tiny_spec(seeds=())

    def test_scalar_grid_values_rejected(self):
        # tuple("fast") would silently expand to per-character grid points
        with pytest.raises(ValueError, match="grid values"):
            tiny_spec(grid={"mode": "fast"})
        with pytest.raises(ValueError, match="grid values"):
            tiny_spec(grid={"scale": 2})

    def test_reserved_grid_keys_rejected(self):
        # the engine stamps these params on every record; a grid key would
        # be silently clobbered in the output
        for key in ("seed", "horizon", "n", "backend", "cell_id"):
            with pytest.raises(ValueError, match="reserved"):
                tiny_spec(grid={key: [1, 2]})

    def test_glob_expansion(self):
        spec = tiny_spec(workloads=("small/*",))
        resolved = spec.resolved_workloads()
        assert set(resolved) == set(SMALL_WORKLOADS)
        with pytest.raises(KeyError):
            tiny_spec(workloads=("nope/*",)).resolved_workloads()

    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(
            grid={"scale": [1, 2]},
            seeds=(3, 4),
            policy=HorizonPolicy(multiplier=5),
            config=EngineConfig(backend="numpy"),
            workload_params={"seed": 99},
        )
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ExperimentSpec.from_json(path) == spec
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({**spec.to_dict(), "bogus": 1})


class TestCells:
    def test_cell_ids_stable_and_distinct(self):
        cells = tiny_spec().cells()
        again = tiny_spec().cells()
        assert [c.cell_id() for c in cells] == [c.cell_id() for c in again]
        assert len({c.cell_id() for c in cells}) == len(cells)

    def test_cell_id_tracks_execution_knobs(self):
        base = tiny_spec().cells()[0]
        for changed in (
            tiny_spec(horizon=64).cells()[0],
            tiny_spec(config=EngineConfig(backend="numpy")).cells()[0],
            tiny_spec(certify_bound=False).cells()[0],
            tiny_spec(policy=HorizonPolicy(multiplier=9)).cells()[0],
        ):
            assert changed.cell_id() != base.cell_id()

    def test_cell_seed_derivation(self):
        a, b = tiny_spec().cells()[:2]
        # same root seed, different algorithm -> decorrelated scheduler seeds
        assert a.seed == b.seed and a.cell_seed() != b.cell_seed()
        assert a.cell_seed() == tiny_spec().cells()[0].cell_seed()

    def test_execute_cell_from_registry(self):
        record = execute_cell(tiny_spec().cells()[0])
        assert record.workload == "small/path"
        assert record.metrics["legal"] == 1.0
        assert record.params["cell_id"] == tiny_spec().cells()[0].cell_id()
        assert record.params["horizon"] == 48

    def test_cells_sharing_a_workload_share_a_graph_key(self):
        from repro.analysis.engine import _graph_cache_key

        cells = tiny_spec().cells()
        path_cells = [c for c in cells if c.workload == "small/path"]
        assert len(path_cells) == 2  # one per algorithm
        assert _graph_cache_key(path_cells[0]) == _graph_cache_key(path_cells[1])
        grid_cells = tiny_spec(grid={"scale": [1, 2]}).cells()
        keys = {_graph_cache_key(c) for c in grid_cells if c.workload == "small/path"}
        assert len(keys) == 2  # distinct grid points resolve distinct graphs

    def test_execute_cell_with_override_graph(self):
        cell = ExperimentCell(
            experiment="t", workload="custom", algorithm="sequential",
            params={}, seed=0, horizon=32,
        )
        record = execute_cell(cell, graph=star(4))
        assert record.workload == "custom" and record.params["n"] == 5


class TestEngine:
    def test_serial_run_returns_spec_order(self):
        spec = tiny_spec()
        results = ExperimentEngine(jobs=1).run(spec)
        assert [(r.workload, r.algorithm) for r in results] == [
            (c.workload, c.algorithm) for c in spec.cells()
        ]

    def test_unknown_workload_raises_before_touching_sink(self, tmp_path):
        sink = tmp_path / "precious.jsonl"
        sink.write_text('{"existing": "data"}\n')
        with pytest.raises(KeyError, match="unknown workload"):
            ExperimentEngine(sink=sink).run(tiny_spec(workloads=("no-such-graph",)))
        # the typo'd run must not have truncated the existing file
        assert sink.read_text() == '{"existing": "data"}\n'

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_resume_requires_sink(self):
        with pytest.raises(ValueError, match="resume"):
            ExperimentEngine(resume=True)

    def test_sink_streams_records(self, tmp_path):
        sink = tmp_path / "out.jsonl"
        results = ExperimentEngine(jobs=1, sink=sink).run(tiny_spec())
        loaded = ResultSet.from_jsonl(sink)
        assert [record_to_json_line(r) for r in loaded] == [
            record_to_json_line(r) for r in results
        ]

    @pytest.mark.parametrize(
        "jobs, seeds, config",
        [
            (4, (0,), EngineConfig()),
            (3, (0, 1), EngineConfig()),
            (4, (0,), EngineConfig(horizon_mode="stream", chunk=7)),
        ],
        ids=["jobs4", "jobs3-two-seeds", "jobs4-stream-chunk7"],
    )
    def test_serial_and_parallel_sinks_identical_on_small_suite(
        self, tmp_path, jobs, seeds, config
    ):
        """jobs=1 and jobs=N write byte-identical JSONL modulo timing fields,
        in dense mode and in streamed chunks narrower than the horizon."""
        spec = ExperimentSpec(
            name="det",
            workloads=("small/*",),
            algorithms=("sequential", "degree-periodic"),
            seeds=seeds,
            horizon=48,
            config=config,
        )
        serial_sink = tmp_path / "serial.jsonl"
        parallel_sink = tmp_path / "parallel.jsonl"
        serial = ExperimentEngine(jobs=1, sink=serial_sink).run(spec)
        parallel = ExperimentEngine(jobs=jobs, sink=parallel_sink).run(spec)
        assert len(serial) == len(parallel) == len(SMALL_WORKLOADS) * 2 * len(seeds)
        assert stripped_lines(serial_sink) == stripped_lines(parallel_sink)
        expected_mode = "stream" if config.horizon_mode == "stream" else "dense"
        assert {r.params["horizon_mode"] for r in read_records_jsonl(parallel_sink)} == {
            expected_mode
        }

    def test_resume_skips_completed_cells(self, tmp_path):
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        first = ExperimentEngine(jobs=1, sink=sink).run(spec)
        lines = sink.read_text().splitlines(keepends=True)
        assert len(lines) == 4
        # crash simulation: one record missing, one half-written
        sink.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])

        engine = ExperimentEngine(jobs=1, sink=sink, resume=True)
        resumed = engine.run(spec)
        assert engine.stats["skipped"] == 2 and engine.stats["executed"] == 2
        assert len(read_records_jsonl(sink)) == 4
        ids = [r.params["cell_id"] for r in read_records_jsonl(sink)]
        assert sorted(ids) == sorted(r.params["cell_id"] for r in first)
        # resumed ResultSet is in spec order and complete
        assert [r.params["cell_id"] for r in resumed] == [
            c.cell_id() for c in spec.cells()
        ]

    def test_resumed_sink_rewritten_in_spec_order(self, tmp_path):
        """A completed resume leaves the sink in spec order even when the
        resumed spec orders cells differently than the original run."""
        sink = tmp_path / "run.jsonl"
        ExperimentEngine(jobs=1, sink=sink).run(
            tiny_spec(workloads=("small/path", "small/clique"))
        )
        reordered = tiny_spec(workloads=("small/path", "small/star", "small/clique"))
        ExperimentEngine(jobs=1, sink=sink, resume=True).run(reordered)
        sunk = [r.params["cell_id"] for r in read_records_jsonl(sink)]
        assert sunk == [c.cell_id() for c in reordered.cells()]

    def test_resume_preserves_foreign_records(self, tmp_path):
        """Records from another spec in a shared sink are kept, not deleted,
        and never counted as completed cells of this spec."""
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        foreign = ExperimentRecord(
            experiment="other", workload="w", algorithm="a",
            metrics={}, params={"cell_id": "feedfacefeedface"},
        )
        sink.write_text(record_to_json_line(foreign) + "\n")
        engine = ExperimentEngine(jobs=1, sink=sink, resume=True)
        engine.run(spec)
        assert engine.stats["executed"] == 4
        sunk = read_records_jsonl(sink)
        assert len(sunk) == 5 and sunk[0] == foreign
        assert all(r.experiment == "t" for r in sunk[1:])

    def test_resume_preserves_non_record_lines(self, tmp_path):
        """Intact JSON lines that are not ExperimentRecords (e.g. a metadata
        header in a shared file) survive resume verbatim; only an
        unparseable final line (crash truncation) is dropped."""
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        header = '{"version": 1, "tool": "other"}'
        sink.write_text(header + "\n" + '{"experiment": truncat')
        engine = ExperimentEngine(jobs=1, sink=sink, resume=True)
        engine.run(spec)
        lines = sink.read_text().splitlines()
        assert lines[0] == header and len(lines) == 5
        assert engine.stats["executed"] == 4

    def test_resume_keeps_foreign_json_even_as_last_line(self, tmp_path):
        """Valid JSON that isn't a record is foreign wherever it sits —
        only an unparseable tail counts as crash truncation."""
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        header = '{"version": 1, "tool": "other"}'
        sink.write_text(header + "\n")  # header is the last (and only) line
        ExperimentEngine(jobs=1, sink=sink, resume=True).run(spec)
        lines = sink.read_text().splitlines()
        assert lines[0] == header and len(lines) == 5

    def test_glob_named_adhoc_graph_runs_literally(self):
        """A caller-provided graph whose name contains glob characters is
        run as-is, not expanded against the registry."""
        from repro.analysis.runner import compare_schedulers

        results = compare_schedulers({"net[1]": star(4)}, ["sequential"], horizon=32)
        assert [r.workload for r in results] == ["net[1]"]

    def test_resume_never_reuses_changed_adhoc_graph(self, tmp_path):
        """An ad-hoc graph's content is part of the cell id, so resume
        re-runs when the graph changes under the same workload name."""
        from repro.analysis.runner import compare_schedulers

        sink = tmp_path / "run.jsonl"
        compare_schedulers({"g": clique(4)}, ["sequential"], horizon=32, sink=sink)
        results = compare_schedulers(
            {"g": star(8)}, ["sequential"], horizon=32, sink=sink, resume=True
        )
        assert list(results)[0].params["n"] == 9  # star(8), not the stale clique

    def test_fresh_run_overwrites_sink(self, tmp_path):
        sink = tmp_path / "run.jsonl"
        sink.write_text("garbage\n")
        ExperimentEngine(jobs=1, sink=sink).run(tiny_spec())
        assert len(read_records_jsonl(sink)) == 4

    def test_runtime_registered_workload_runs_in_pool(self):
        """Graphs are resolved in the parent and shipped to workers, so a
        workload registered at runtime works with jobs>1 even on platforms
        whose workers re-import the registry fresh (spawn)."""
        from repro.graphs.families import path as path_graph
        from repro.graphs.suites import register_workload

        register_workload("runtime/engine-test", lambda seed=0: path_graph(6), overwrite=True)
        spec = ExperimentSpec(
            name="rt", workloads=("runtime/engine-test",),
            algorithms=("sequential", "degree-periodic"), horizon=32,
        )
        results = ExperimentEngine(jobs=2).run(spec)
        assert len(results) == 2
        assert all(r.metrics["legal"] == 1.0 for r in results)

    def test_compare_schedulers_via_engine_matches_direct_cells(self):
        """The thin wrapper produces exactly the engine's records."""
        from repro.analysis.runner import compare_schedulers

        workloads = {"star": star(4), "clique": clique(4)}
        direct = ExperimentEngine(jobs=1).run(
            ExperimentSpec(
                name="test", workloads=tuple(workloads),
                algorithms=("sequential", "degree-periodic"), horizon=48,
            ),
            workloads=workloads,
        )
        wrapped = compare_schedulers(
            workloads, ["sequential", "degree-periodic"], experiment="test", horizon=48
        )

        def stripped(records):
            out = []
            for r in records:
                metrics = {k: v for k, v in r.metrics.items() if k not in TIMING_METRICS}
                out.append(record_to_json_line(
                    ExperimentRecord(r.experiment, r.workload, r.algorithm, metrics, r.params)
                ))
            return out

        assert stripped(direct) == stripped(wrapped)


def _grid_runner(n):
    return [
        ExperimentRecord(
            experiment="g", workload=f"n{n}", algorithm="a", metrics={"size": float(n)}
        )
    ]


class TestHorizonMode:
    def test_spec_round_trips_horizon_mode(self, tmp_path):
        spec = tiny_spec(config=EngineConfig(horizon_mode="stream", chunk=128))
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ExperimentSpec.from_json(path) == spec

    def test_invalid_horizon_mode_rejected(self):
        with pytest.raises(ValueError, match="horizon_mode"):
            tiny_spec(config=EngineConfig(horizon_mode="chunked"))
        with pytest.raises(ValueError, match="chunk"):
            tiny_spec(config=EngineConfig(chunk=0))
        with pytest.raises(ValueError, match="no streaming"):
            tiny_spec(config=EngineConfig(backend="sets", horizon_mode="stream"))

    def test_default_mode_keeps_pre_streaming_cell_ids(self):
        """horizon_mode='auto'/chunk=None are hashed only when they deviate
        from the defaults, so sinks recorded before streaming existed still
        resume; explicit streaming knobs change the id."""
        base = tiny_spec().cells()[0]
        assert tiny_spec(config=EngineConfig(horizon_mode="auto", chunk=None)).cells()[0].cell_id() == base.cell_id()
        assert tiny_spec(config=EngineConfig(horizon_mode="stream")).cells()[0].cell_id() != base.cell_id()
        assert tiny_spec(config=EngineConfig(chunk=64)).cells()[0].cell_id() != base.cell_id()

    def test_stream_records_match_dense_modulo_mode_stamp(self):
        from repro.io.results import record_to_json_line

        dense = ExperimentEngine(jobs=1).run(tiny_spec(config=EngineConfig(horizon_mode="dense")))
        stream = ExperimentEngine(jobs=1).run(tiny_spec(config=EngineConfig(horizon_mode="stream", chunk=7)))

        def stripped(records):
            out = []
            for r in records:
                metrics = {k: v for k, v in r.metrics.items() if k not in TIMING_METRICS}
                params = {
                    k: v for k, v in r.params.items()
                    if k not in ("horizon_mode", "cell_id")
                }
                out.append(record_to_json_line(
                    ExperimentRecord(r.experiment, r.workload, r.algorithm, metrics, params)
                ))
            return out

        assert stripped(dense) == stripped(stream)
        assert all(r.params["horizon_mode"] == "dense" for r in dense)
        assert all(r.params["horizon_mode"] == "stream" for r in stream)

    def test_auto_mode_stays_dense_at_small_horizons(self):
        results = ExperimentEngine(jobs=1).run(tiny_spec())
        assert all(r.params["horizon_mode"] == "dense" for r in results)

    def test_horizon_mode_is_reserved_grid_key(self):
        with pytest.raises(ValueError, match="reserved"):
            tiny_spec(grid={"horizon_mode": ["dense", "stream"]})


class TestRunGrid:
    def test_serial_matches_parallel(self):
        serial = run_grid({"n": [2, 4, 8]}, _grid_runner, jobs=1)
        parallel = run_grid({"n": [2, 4, 8]}, _grid_runner, jobs=3)
        assert [r.workload for r in serial] == ["n2", "n4", "n8"]
        assert [record_to_json_line(r) for r in serial] == [
            record_to_json_line(r) for r in parallel
        ]

    def test_empty_grid_runs_once(self):
        def runner():
            return [ExperimentRecord("g", "w", "a", {})]

        assert len(run_grid({}, runner)) == 1

    def test_expand_grid(self):
        assert expand_grid({"a": [1, 2], "b": ["x"]}) == [
            {"a": 1, "b": "x"},
            {"a": 2, "b": "x"},
        ]


def cached_stripped_lines(path):
    """Sink lines with timing metrics *and* the cached stamp removed."""
    out = []
    for line in open(path):
        payload = json.loads(line)
        for key in TIMING_METRICS:
            payload["metrics"].pop(key, None)
        payload["params"].pop("cached", None)
        out.append(json.dumps(payload, sort_keys=True))
    return out


class TestStoreCache:
    """The cross-campaign cell cache: a ResultStore in front of execution."""

    def test_cold_then_warm_byte_parity(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        cold_sink = tmp_path / "cold.jsonl"
        warm_sink = tmp_path / "warm.jsonl"
        cold = ExperimentEngine(sink=cold_sink, store=store)
        cold.run(tiny_spec())
        assert cold.stats == {**cold.stats, "executed": 4, "cached": 0}
        warm = ExperimentEngine(sink=warm_sink, store=store)
        warm.run(tiny_spec())
        assert warm.stats["executed"] == 0 and warm.stats["cached"] == 4
        # warm records are byte-identical modulo timing + the cached stamp
        assert cached_stripped_lines(warm_sink) == cached_stripped_lines(cold_sink)
        # and every warm record carries the provenance stamp
        for record in read_records_jsonl(warm_sink):
            assert record.params["cached"] is True
        for record in read_records_jsonl(cold_sink):
            assert "cached" not in record.params

    def test_cross_spec_overlap_computes_only_the_delta(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store).run(tiny_spec())
        # second spec shares the small/path cells, adds small/star ones
        overlapping = tiny_spec(workloads=("small/path", "small/star"))
        engine = ExperimentEngine(store=store, sink=tmp_path / "o.jsonl")
        results = engine.run(overlapping)
        assert engine.stats["cached"] == 2 and engine.stats["executed"] == 2
        # replayed + fresh records interleave in spec order
        assert [r.workload for r in results] == [
            c.workload for c in overlapping.cells()
        ]
        cached_flags = [r.params.get("cached") for r in results]
        assert cached_flags == [True, True, None, None]

    def test_no_cache_reexecutes_but_still_records(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store).run(tiny_spec())
        forced = ExperimentEngine(store=store, cache=False)
        forced.run(tiny_spec())
        assert forced.stats["executed"] == 4 and forced.stats["cached"] == 0
        # a new spec's fresh cells still land in the store under cache=False
        extra = tiny_spec(workloads=("small/star",))
        ExperimentEngine(store=store, cache=False).run(extra)
        assert all(c.cell_id() in store for c in extra.cells())

    def test_resume_via_store_indexed_lookup(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        reference_sink = tmp_path / "ref.jsonl"
        ExperimentEngine(sink=reference_sink, store=store).run(tiny_spec())
        # resume against a *missing* sink: completed cells come from the
        # store's indexed lookup and the sink is rebuilt in spec order
        resumed_sink = tmp_path / "resumed.jsonl"
        engine = ExperimentEngine(sink=resumed_sink, store=store, resume=True)
        engine.run(tiny_spec())
        assert engine.stats["skipped"] == 4 and engine.stats["executed"] == 0
        assert engine.stats["cached"] == 0
        # resumed records are not stamped cached (they are resumed, not replayed)
        assert cached_stripped_lines(resumed_sink) == cached_stripped_lines(reference_sink)
        for record in read_records_jsonl(resumed_sink):
            assert "cached" not in record.params

    def test_resume_with_store_needs_no_sink(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store).run(tiny_spec())
        engine = ExperimentEngine(store=store, resume=True)  # no sink at all
        results = engine.run(tiny_spec())
        assert engine.stats["skipped"] == 4
        assert len(results) == 4

    def test_store_accepts_path(self, tmp_path):
        engine = ExperimentEngine(store=tmp_path / "s.sqlite")
        engine.run(tiny_spec())
        assert engine.stats["executed"] == 4
        assert len(engine.store) == 4

    def test_partial_store_runs_only_misses(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        spec = tiny_spec()
        # pre-seed the store with half the cells via a narrower spec
        ExperimentEngine(store=store).run(tiny_spec(workloads=("small/path",)))
        engine = ExperimentEngine(store=store)
        engine.run(spec)
        assert engine.stats["cached"] == 2 and engine.stats["executed"] == 2
        assert len(store) == 4

    def test_campaign_tag_recorded(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store, campaign="pilot").run(tiny_spec())
        campaigns = store.campaigns()
        assert [c["name"] for c in campaigns] == ["pilot"]
        assert campaigns[0]["cells"] == 4
        assert campaigns[0]["experiment"] == "t"
        # default campaign name is the spec name
        ExperimentEngine(store=store, cache=False).run(tiny_spec(name="t2"))
        assert {c["name"] for c in store.campaigns()} == {"pilot", "t2"}


class TestParamCanonicalization:
    """Golden ids locking the JSON canonicalization of exotic param shapes.

    ``json.dumps(sort_keys=True)`` cannot sort mixed str/int keys and sorts
    all-int keys numerically, so without canonicalization the same logical
    params would hash differently before and after a JSON round-trip.
    These goldens pin the canonical form (string keys, lists) — if any of
    them moves, every stored campaign invalidates silently.
    """

    GOLDEN_PARAMS = {2: "two", "nested": [1, [2, 3]], "scale": 1.5}

    def golden_cell(self, params):
        return ExperimentCell(
            experiment="golden", workload="small/path", algorithm="sequential",
            params=params, seed=7, horizon=64,
        )

    def test_golden_cell_id_nonstring_keys_nested_lists(self):
        cell = self.golden_cell(self.GOLDEN_PARAMS)
        assert cell.cell_id() == "97418b6c6ead35b3"
        assert cell.param_key() == '{"2": "two", "nested": [1, [2, 3]], "scale": 1.5}'
        assert cell.cell_seed() == 17584579850082232586

    def test_json_roundtrip_preserves_identity(self):
        """Int keys and tuples hash identically to their JSON spellings."""
        cell = self.golden_cell(self.GOLDEN_PARAMS)
        roundtripped = self.golden_cell(json.loads(cell.param_key()))
        assert roundtripped.cell_id() == cell.cell_id()
        assert roundtripped.cell_seed() == cell.cell_seed()
        tupled = self.golden_cell({"2": "two", "nested": (1, (2, 3)), "scale": 1.5})
        assert tupled.cell_id() == cell.cell_id()

    def test_golden_derive_seed(self):
        from repro.utils.rng import derive_seed

        assert derive_seed(7, "cell", "a", "b") == 107431294533931834

    def test_plain_string_params_unchanged(self):
        """Canonicalization is a no-op for ordinary specs — the golden id
        regime of PR 4/6 sinks must not move."""
        cell = ExperimentCell(
            experiment="golden", workload="small/path", algorithm="sequential",
            params={"scale": 2}, seed=0, horizon=32,
        )
        assert cell.param_key() == json.dumps({"scale": 2}, sort_keys=True)
        assert cell.cell_id() == "f5a2b3294ef2c885"
