"""Tests for :class:`repro.core.config.EngineConfig`, the one spelling of
every engine knob.

Covers the config's contracts: JSON round-trip, the consolidated
sets/stream error, removed values and removed spellings
failing loudly, and cell-id stability — default-config ids must be
byte-identical to golden ids captured from the PR 4 codebase, so every
results sink recorded before the consolidation still resumes.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import FrozenInstanceError, fields, replace
from operator import attrgetter

import numpy as np
import pytest

from repro.algorithms.registry import get_scheduler
from repro.analysis.engine import ExperimentCell, ExperimentSpec
from repro.analysis.runner import compare_schedulers, run_scheduler
from repro.api import Session
from repro.core.config import DEFAULT_CONFIG, EngineConfig, config_with
from repro.core.metrics import (
    build_trace,
    evaluate_schedule,
    happiness_rates,
    max_unhappiness_lengths,
    observed_periods,
    unhappiness_gaps,
)
from repro.core.problem import ConflictGraph
from repro.core.trace import StreamedTrace, TraceBatch, TraceMatrix, TraceStream
from repro.core.validation import (
    certify_local_bound,
    certify_periodicity,
    check_independent_sets,
    validate_schedule,
)

#: Golden ids captured from the PR 4 codebase (before EngineConfig existed)
#: for the spec below.  If these move, every pre-consolidation resume sink
#: is silently invalidated — do not update them to make a test pass.
GOLDEN_SPEC_CELL_IDS = [
    "a1da7a1db9503525",
    "3ddba7b07c603593",
    "7d61c0f477c70843",
    "094eba57b28432f8",
]
GOLDEN_CELL_SEED = 5418252142010239343
#: id of a spec whose backend (always hashed) is non-default, captured
#: before the bitmask backend was removed; hashing did not change, so the
#: id must not move.
GOLDEN_NUMPY_CELL_ID = "2f12660dd8de0441"


def golden_spec(**overrides):
    fields = dict(
        name="t",
        workloads=("small/path", "small/clique"),
        algorithms=("sequential", "degree-periodic"),
        horizon=48,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


# ---------------------------------------------------------------------------
# the dataclass itself
# ---------------------------------------------------------------------------

class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config == DEFAULT_CONFIG
        assert config.non_default() == {}
        assert config.describe() == "EngineConfig()"

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            EngineConfig().backend = "numpy"

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="cuda")
        with pytest.raises(ValueError, match="horizon_mode"):
            EngineConfig(horizon_mode="chunked")
        with pytest.raises(ValueError, match="chunk"):
            EngineConfig(chunk=0)
        with pytest.raises(ValueError, match="window"):
            EngineConfig(window=0)

    @pytest.mark.parametrize("value", ["7", 7.0, True], ids=["str", "float", "bool"])
    @pytest.mark.parametrize("name", ["chunk", "window"])
    def test_widths_must_be_integers(self, name, value):
        """A width that is not an integer fails where the config is written,
        naming the field, instead of keying and hashing apart from the equal
        int (or crashing the JSON encoder far away)."""
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            EngineConfig(**{name: value})
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EngineConfig.from_dict({name: value})

    def test_numpy_integer_widths_normalise_to_int(self):
        config = EngineConfig(chunk=np.int64(7), window=np.int32(9))
        assert config == EngineConfig(chunk=7, window=9)
        assert type(config.chunk) is int and type(config.window) is int
        assert config.cache_key() == EngineConfig(chunk=7, window=9).cache_key()
        assert config.to_json() == EngineConfig(chunk=7, window=9).to_json()
        cell = ExperimentCell(
            experiment="t", workload="w", algorithm="sequential", params={}, seed=0,
            config=config,
        )
        assert cell.cell_id() == replace(cell, config=EngineConfig(chunk=7, window=9)).cell_id()

    def test_removed_values_fail_loudly(self):
        """The bitmask backend and the checkpoint field are gone: naming
        either raises the one unknown-value error, which lists the valid
        choices."""
        with pytest.raises(ValueError) as backend:
            EngineConfig(backend="bitmask")
        assert str(backend.value) == (
            "unknown trace backend 'bitmask'; expected one of ('auto', 'numpy', 'sets')"
        )
        with pytest.raises(ValueError) as field:
            EngineConfig.from_dict({"backend": "auto", "checkpoint": False})
        assert str(field.value) == (
            "unknown EngineConfig field 'checkpoint'; expected one of ('backend', "
            "'horizon_mode', 'chunk', 'window')"
        )
        with pytest.raises(ValueError, match="unknown EngineConfig field 'checkpoint'"):
            config_with(None, checkpoint=True)
        with pytest.raises(ValueError, match="unknown EngineConfig field 'checkpoint'"):
            ExperimentSpec.from_dict({
                "name": "old", "workloads": ["small/path"], "algorithms": ["sequential"],
                "config": {"backend": "auto", "checkpoint": True},
            })
        with pytest.raises(TypeError):
            EngineConfig(checkpoint=False)  # no longer a field at all

    def test_removed_stream_jobs_fails_loudly(self):
        """The streamed-scan process pool is gone: its knob fails in a spec
        file, a config payload and as a keyword."""
        removed = "unknown EngineConfig field 'stream_jobs'"
        with pytest.raises(ValueError, match=removed):
            EngineConfig.from_dict({"backend": "auto", "stream_jobs": 2})
        with pytest.raises(ValueError, match=removed):
            config_with(None, stream_jobs=1)
        with pytest.raises(ValueError, match=removed):
            ExperimentSpec.from_dict({
                "name": "old", "workloads": ["small/path"], "algorithms": ["sequential"],
                "config": {"horizon_mode": "stream", "stream_jobs": 2},
            })
        with pytest.raises(TypeError, match="stream_jobs"):
            EngineConfig(stream_jobs=2)  # no longer a field at all
        assert [f.name for f in fields(EngineConfig)] == \
            ["backend", "horizon_mode", "chunk", "window"]

    def test_removed_batch_fails_loudly(self):
        """The experiment engine's batching planner is gone: its knob fails
        in a spec file, a config payload and as a keyword."""
        removed = (
            "unknown EngineConfig field 'batch'; expected one of "
            "('backend', 'horizon_mode', 'chunk', 'window')"
        )
        with pytest.raises(ValueError) as loaded:
            EngineConfig.from_dict({"backend": "auto", "batch": 4})
        assert str(loaded.value) == removed
        with pytest.raises(ValueError) as layered:
            config_with(EngineConfig(horizon_mode="stream"), batch=1)
        assert str(layered.value) == removed
        with pytest.raises(ValueError) as spec:
            ExperimentSpec.from_dict({
                "name": "old", "workloads": ["small/path"], "algorithms": ["sequential"],
                "config": {"batch": 4},
            })
        assert str(spec.value) == removed
        with pytest.raises(TypeError, match="batch"):
            EngineConfig(batch=4)  # no longer a field at all

    def test_sets_stream_rejected_with_one_message(self):
        """The historical asymmetry: backend='sets' + streaming used to raise
        two differently-worded errors depending on whether a prebuilt trace
        was passed.  Now the combination dies wherever a config is built —
        constructor, layered flags, spec JSON — with a single message,
        before any entry point sees it."""
        with pytest.raises(ValueError, match="no streaming mode") as construct:
            EngineConfig(backend="sets", horizon_mode="stream")
        with pytest.raises(ValueError) as layered:
            config_with(EngineConfig(horizon_mode="stream"), backend="sets")
        with pytest.raises(ValueError) as loaded:
            EngineConfig.from_dict({"backend": "sets", "horizon_mode": "stream"})
        assert str(layered.value) == str(loaded.value) == str(construct.value)

    def test_non_default_lists_only_overrides(self):
        config = EngineConfig(backend="numpy", chunk=64)
        assert config.non_default() == {"backend": "numpy", "chunk": 64}
        assert "chunk=64" in config.describe()

    def test_config_with_layers_overrides(self):
        base = EngineConfig(horizon_mode="stream", chunk=32)
        layered = config_with(base, backend="numpy")
        assert layered == EngineConfig(backend="numpy", horizon_mode="stream", chunk=32)
        assert config_with(None) == DEFAULT_CONFIG


class TestJsonRoundTrip:
    def test_round_trip(self):
        config = EngineConfig(backend="numpy", horizon_mode="stream", chunk=1 << 12, window=500)
        assert EngineConfig.from_json(config.to_json()) == config
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_json_is_canonical_and_flat(self):
        payload = json.loads(EngineConfig().to_json())
        assert payload == {
            "backend": "auto",
            "horizon_mode": "auto",
            "chunk": None,
            "window": None,
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown EngineConfig"):
            EngineConfig.from_dict({"backend": "auto", "threads": 4})


# ---------------------------------------------------------------------------
# one spelling per knob: every spelling the config replaced fails loudly
# ---------------------------------------------------------------------------

_METRIC_KNOBS = ("backend", "mode", "chunk", "jobs")
_RUNNER_KNOBS = ("backend", "horizon_mode", "chunk", "jobs")
_SPEC_KNOBS = ("backend", "horizon_mode", "chunk", "stream_jobs")
_KNOB_VALUES = {
    "backend": "numpy", "mode": "stream", "horizon_mode": "stream",
    "chunk": 8, "jobs": 2, "stream_jobs": 2,
}

#: every entry point that took per-call engine keywords before ``config=``:
#: name -> (call with (graph, schedule, **keywords), the keywords it took).
#: ``compare_schedulers(jobs=)`` fans out across cells and stays.
_ENTRY_POINTS = {
    "build_trace": (lambda g, s, **kw: build_trace(s, g, 16, **kw), _METRIC_KNOBS),
    "max_unhappiness_lengths": (
        lambda g, s, **kw: max_unhappiness_lengths(s, g, 16, **kw), _METRIC_KNOBS),
    "unhappiness_gaps": (lambda g, s, **kw: unhappiness_gaps(s, g, 16, **kw), _METRIC_KNOBS),
    "observed_periods": (lambda g, s, **kw: observed_periods(s, g, 16, **kw), _METRIC_KNOBS),
    "happiness_rates": (lambda g, s, **kw: happiness_rates(s, g, 16, **kw), _METRIC_KNOBS),
    "evaluate_schedule": (lambda g, s, **kw: evaluate_schedule(s, g, 16, **kw), _METRIC_KNOBS),
    "check_independent_sets": (
        lambda g, s, **kw: check_independent_sets(s, g, 16, **kw), _METRIC_KNOBS),
    "certify_local_bound": (
        lambda g, s, **kw: certify_local_bound(s, g, 16, lambda p: 16, **kw), _METRIC_KNOBS),
    "certify_periodicity": (lambda g, s, **kw: certify_periodicity(s, 16, **kw), _METRIC_KNOBS),
    "validate_schedule": (lambda g, s, **kw: validate_schedule(s, g, 16, **kw), _METRIC_KNOBS),
    "run_scheduler": (
        lambda g, s, **kw: run_scheduler(get_scheduler("degree-periodic"), g, horizon=16, **kw),
        _RUNNER_KNOBS,
    ),
    "compare_schedulers": (
        lambda g, s, **kw: compare_schedulers({g.name: g}, ["degree-periodic"], horizon=16, **kw),
        _SPEC_KNOBS,
    ),
    "ExperimentSpec": (
        lambda g, s, **kw: ExperimentSpec(
            name="t", workloads=("small/path",), algorithms=("sequential",), **kw),
        _SPEC_KNOBS,
    ),
    "ExperimentCell": (
        lambda g, s, **kw: ExperimentCell(
            experiment="t", workload="w", algorithm="sequential", params={}, seed=0, **kw),
        _SPEC_KNOBS,
    ),
}


@pytest.fixture
def run_inputs():
    graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], name="k3+tail")
    schedule = get_scheduler("degree-periodic").build(graph, seed=1)
    return graph, schedule


class TestRemovedSpellings:
    @pytest.mark.parametrize(
        "entry, keyword",
        [(entry, kw) for entry, (_, knobs) in _ENTRY_POINTS.items() for kw in knobs],
    )
    def test_removed_keyword_is_a_type_error(self, run_inputs, entry, keyword):
        """The per-call keywords are gone: Python itself rejects each one,
        and the same call spelled with ``config=`` runs."""
        graph, schedule = run_inputs
        call, _ = _ENTRY_POINTS[entry]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            call(graph, schedule, **{keyword: _KNOB_VALUES[keyword]})
        call(graph, schedule, config=EngineConfig(backend="numpy"))

    @pytest.mark.parametrize(
        "call, keyword, value",
        [
            (lambda g, s, **kw: TraceStream(s, g, 16, **kw), "backend", "numpy"),
            (lambda g, s, **kw: StreamedTrace(s, g, 16, **kw), "backend", "numpy"),
            (lambda g, s, **kw: TraceMatrix.from_schedule(s, g, 16, **kw), "backend", "numpy"),
            (lambda g, s, **kw: TraceBatch([s], g, 16, **kw), "backend", "numpy"),
            (lambda g, s, **kw: Session(g, **kw), "traces", {}),
        ],
        ids=["TraceStream", "StreamedTrace", "TraceMatrix.from_schedule", "TraceBatch", "Session"],
    )
    def test_trace_layer_takes_no_engine_or_cache_keyword(
        self, run_inputs, call, keyword, value
    ):
        """Below ``build_trace`` only the numpy engine is built, so no trace
        constructor takes a ``backend``, and a session's trace cache is its
        own: Python itself rejects each keyword, and the call without it
        runs."""
        graph, schedule = run_inputs
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            call(graph, schedule, **{keyword: value})
        call(graph, schedule)

    def test_build_trace_slot_four_takes_only_none(self, run_inputs):
        """perfbench forwards ``(schedule, graph, horizon, None, trace)`` by
        position, so slot 4 stays as a placeholder: ``None`` passes, and a
        backend name there is an error naming the spelling that replaced it."""
        graph, schedule = run_inputs
        with pytest.raises(TypeError, match=r"pass config=EngineConfig\(backend=\.\.\.\)"):
            build_trace(schedule, graph, 16, "numpy")
        matrix = build_trace(schedule, graph, 16)
        assert build_trace(schedule, graph, 16, None, matrix) is matrix

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, s: evaluate_schedule(s, g, 16, "name", "numpy"),
            lambda g, s: max_unhappiness_lengths(s, g, 16, "numpy"),
            lambda g, s: check_independent_sets(s, g, 16, "numpy"),
            lambda g, s: certify_periodicity(s, 16, True, "numpy"),
            lambda g, s: validate_schedule(s, g, 16, None, "bound", False, False, "numpy"),
            lambda g, s: run_scheduler(
                get_scheduler("degree-periodic"), g, 16, 0, True, True, "numpy"),
            lambda g, s: compare_schedulers(
                {g.name: g}, ["degree-periodic"], "t", 16, 0, True, "numpy"),
        ],
        ids=[
            "evaluate_schedule", "max_unhappiness_lengths", "check_independent_sets",
            "certify_periodicity", "validate_schedule", "run_scheduler", "compare_schedulers",
        ],
    )
    def test_parameters_after_the_removed_slot_are_keyword_only(self, run_inputs, call):
        """A caller passing an engine knob by position gets a TypeError
        instead of binding it to whatever parameter now sits in that slot."""
        graph, schedule = run_inputs
        with pytest.raises(TypeError, match="positional argument"):
            call(graph, schedule)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.core.trace", "BACKENDS"),
            ("repro.core.trace", "resolve_backend"),
            ("repro.core", "resolve_backend"),
            ("repro.core.schedule", "Schedule.trace"),
            ("repro.api", "SessionTraceCache"),
            ("repro", "SessionTraceCache"),
            ("repro.analysis.engine", "run_grid"),
            ("repro.analysis", "sweep"),
            ("repro.core.config", "EngineConfig.resolve"),
            ("repro.core.config", "ResolvedEngine"),
            ("repro.core", "ResolvedEngine"),
        ],
    )
    def test_removed_name_has_no_shim(self, module, name):
        """The deleted trace, sweep and engine-resolution surfaces leave
        nothing behind, so a caller still using one gets Python's own
        ImportError or AttributeError."""
        with pytest.raises(AttributeError):
            attrgetter(name)(importlib.import_module(module))

    def test_sweeps_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError, match="repro.analysis.sweeps"):
            importlib.import_module("repro.analysis.sweeps")


# ---------------------------------------------------------------------------
# cell-id stability against the PR 4 goldens
# ---------------------------------------------------------------------------

class TestCellIdStability:
    def test_default_config_ids_match_pr4_goldens(self):
        cells = golden_spec().cells()
        assert [c.cell_id() for c in cells] == GOLDEN_SPEC_CELL_IDS
        assert cells[0].cell_seed() == GOLDEN_CELL_SEED

    def test_nondefault_backend_id_matches_pr4_golden(self):
        spec = ExperimentSpec(
            name="golden",
            workloads=("small/star",),
            algorithms=("phased-greedy",),
            seeds=(7,),
            config=EngineConfig(backend="numpy"),
        )
        assert spec.cells()[0].cell_id() == GOLDEN_NUMPY_CELL_ID

    def test_window_marks_cell_id_only_when_set(self):
        base = golden_spec().cells()[0]
        windowed = golden_spec(config=EngineConfig(window=256)).cells()[0]
        assert windowed.cell_id() != base.cell_id()
        assert golden_spec(config=EngineConfig()).cells()[0].cell_id() == base.cell_id()


# ---------------------------------------------------------------------------
# spec serialization
# ---------------------------------------------------------------------------

class TestSpecSerialization:
    def test_spec_round_trips_config(self, tmp_path):
        spec = golden_spec(
            config=EngineConfig(backend="numpy", horizon_mode="stream", chunk=128, window=64)
        )
        path = spec.to_json(tmp_path / "spec.json")
        assert ExperimentSpec.from_json(path) == spec
        assert json.loads(path.read_text())["config"]["chunk"] == 128

    @pytest.mark.parametrize("with_config", [False, True], ids=["flat", "mixed"])
    @pytest.mark.parametrize(
        "key, value",
        [("backend", "numpy"), ("horizon_mode", "stream"), ("chunk", 32), ("stream_jobs", 2)],
    )
    def test_flat_engine_keys_rejected(self, key, value, with_config):
        """Spec JSON spells engine knobs under ``config`` only: a flat
        pre-config key, alone or beside a ``config``, is an unknown field,
        and the error says where the knob lives now."""
        payload = {"name": "old", "workloads": ["small/path"], "algorithms": ["sequential"]}
        payload[key] = value
        if with_config:
            payload["config"] = {"backend": "numpy"}
        with pytest.raises(ValueError) as err:
            ExperimentSpec.from_dict(payload)
        assert str(err.value) == (
            f"unknown ExperimentSpec fields: ['{key}']; engine knobs "
            "(backend, horizon_mode, chunk, ...) live under 'config'"
        )


# ---------------------------------------------------------------------------
# the window knob reaches schedulers through run_scheduler
# ---------------------------------------------------------------------------

class TestWindowPlumbing:
    def test_window_reconfigures_supporting_scheduler(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 0)], name="k3")
        config = EngineConfig(horizon_mode="stream", chunk=16, window=32)
        outcome = run_scheduler(
            get_scheduler("phased-greedy"), graph, horizon=400, seed=3, config=config
        )
        plain = run_scheduler(
            get_scheduler("phased-greedy"), graph, horizon=400, seed=3,
            config=EngineConfig(horizon_mode="stream", chunk=16),
        )
        assert outcome.schedule.evicted_below > 0  # the window actually evicted
        assert outcome.report.summary() == plain.report.summary()

    def test_window_is_ignored_by_periodic_schedulers(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        config = EngineConfig(window=8)
        outcome = run_scheduler(
            get_scheduler("degree-periodic"), graph, horizon=32, config=config
        )
        reference = run_scheduler(get_scheduler("degree-periodic"), graph, horizon=32)
        assert outcome.report.summary() == reference.report.summary()

    def test_with_window_returns_self_when_unchanged(self):
        scheduler = get_scheduler("degree-periodic")
        assert scheduler.with_window(64) is scheduler  # base: unsupported, ignored
        phased = get_scheduler("phased-greedy")
        assert phased.with_window(None) is phased
        assert phased.with_window(64) is not phased


def test_replace_derives_config_variants():
    config = EngineConfig(horizon_mode="stream", chunk=64)
    assert replace(config, window=4).chunk == 64
    with pytest.raises(ValueError, match="no streaming mode"):
        replace(config, backend="sets")
