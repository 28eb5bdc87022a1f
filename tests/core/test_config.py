"""Tests for :class:`repro.core.config.EngineConfig` and the legacy shim.

Covers the config's contracts: JSON round-trip, ``resolve()``, the
consolidated sets/stream error, removed values failing loudly, the deprecation shim
(exactly one warning per call, identical results), and cell-id stability —
default-config ids must be byte-identical to golden ids captured from the
PR 4 codebase, so every results sink recorded before the consolidation
still resumes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.algorithms.registry import get_scheduler
from repro.analysis.engine import ExperimentCell, ExperimentSpec
from repro.analysis.runner import run_scheduler
from repro.core.config import (
    DEFAULT_CONFIG,
    EngineConfig,
    coerce_config,
    config_with,
)
from repro.core.metrics import build_trace, evaluate_schedule
from repro.core.problem import ConflictGraph
from repro.core.validation import validate_schedule

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
        with pytest.raises(ValueError, match="stream_jobs"):
            EngineConfig(stream_jobs=0)
        with pytest.raises(ValueError, match="window"):
            EngineConfig(window=0)
        with pytest.raises(ValueError, match="batch"):
            EngineConfig(batch=0)

    def test_removed_values_fail_loudly(self):
        """The bitmask backend and the checkpoint field are gone: naming
        either raises one error that says so and lists the valid choices."""
        with pytest.raises(ValueError) as backend:
            EngineConfig(backend="bitmask")
        assert str(backend.value) == (
            "removed trace backend 'bitmask'; expected one of ('auto', 'numpy', 'sets')"
        )
        with pytest.raises(ValueError) as field:
            EngineConfig.from_dict({"backend": "auto", "checkpoint": False})
        assert str(field.value) == (
            "removed EngineConfig field 'checkpoint'; expected one of ('backend', "
            "'horizon_mode', 'chunk', 'stream_jobs', 'window', 'batch')"
        )
        with pytest.raises(ValueError, match="removed EngineConfig field 'checkpoint'"):
            config_with(None, checkpoint=True)
        with pytest.raises(ValueError, match="removed EngineConfig field 'checkpoint'"):
            ExperimentSpec.from_dict({
                "name": "old", "workloads": ["small/path"], "algorithms": ["sequential"],
                "config": {"backend": "auto", "checkpoint": True},
            })
        with pytest.raises(TypeError):
            EngineConfig(checkpoint=False)  # no longer a field at all

    def test_sets_stream_rejected_with_one_message(self):
        """The historical asymmetry: backend='sets' + streaming used to raise
        two differently-worded errors depending on whether a prebuilt trace
        was passed.  Now the combination dies at config construction with a
        single message, before any call-site branching."""
        with pytest.raises(ValueError, match="no streaming mode") as construct:
            EngineConfig(backend="sets", horizon_mode="stream")
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        schedule = get_scheduler("degree-periodic").build(graph, seed=0)
        matrix = schedule.trace(8)
        with pytest.raises(ValueError, match="no streaming mode") as with_trace:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                build_trace(
                    schedule, graph, 8, backend="sets", mode="stream", trace=matrix
                )
        with pytest.raises(ValueError, match="no streaming mode") as without_trace:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                build_trace(schedule, graph, 8, backend="sets", mode="stream")
        assert str(with_trace.value) == str(without_trace.value) == str(construct.value)

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
        config = EngineConfig(
            backend="numpy", horizon_mode="stream", chunk=1 << 12, stream_jobs=3, window=500
        )
        assert EngineConfig.from_json(config.to_json()) == config
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_json_is_canonical_and_flat(self):
        payload = json.loads(EngineConfig().to_json())
        assert payload == {
            "backend": "auto",
            "horizon_mode": "auto",
            "chunk": None,
            "stream_jobs": 1,
            "window": None,
            "batch": None,
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown EngineConfig"):
            EngineConfig.from_dict({"backend": "auto", "threads": 4})


# ---------------------------------------------------------------------------
# resolve()
# ---------------------------------------------------------------------------

class TestResolve:
    def test_auto_resolves_to_numpy(self):
        engine = EngineConfig().resolve()
        assert engine.backend == "numpy"
        assert engine.mode == "auto"  # no sizes given: representation open
        assert engine.uses_matrix

    def test_sets_resolves_to_sets_mode(self):
        engine = EngineConfig(backend="sets").resolve(10, 1000)
        assert engine.backend == "sets" and engine.mode == "sets"
        assert not engine.uses_matrix

    def test_auto_mode_resolves_by_size(self):
        config = EngineConfig(backend="numpy")
        assert config.resolve(60, 10_000).mode == "dense"
        assert config.resolve(60, 10**9).mode == "stream"

    def test_explicit_mode_passes_through(self):
        assert EngineConfig(horizon_mode="dense").resolve(60, 10**9).mode == "dense"
        assert EngineConfig(horizon_mode="stream").resolve(1, 1).mode == "stream"

    def test_resolved_carries_all_knobs(self):
        engine = EngineConfig(
            backend="numpy", horizon_mode="stream", chunk=7, stream_jobs=2, window=99
        ).resolve(4, 100)
        assert (engine.chunk, engine.stream_jobs, engine.window) == (7, 2, 99)


# ---------------------------------------------------------------------------
# the deprecation shim
# ---------------------------------------------------------------------------

class TestLegacyShim:
    @pytest.fixture
    def run_inputs(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], name="k3+tail")
        schedule = get_scheduler("degree-periodic").build(graph, seed=1)
        return graph, schedule

    def test_exactly_one_warning_and_identical_report(self, run_inputs):
        graph, schedule = run_inputs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            legacy = evaluate_schedule(
                schedule, graph, 64, backend="numpy", mode="stream", chunk=8, jobs=2
            )
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        message = str(deprecations[0].message)
        assert "evaluate_schedule" in message and "EngineConfig" in message

        modern = evaluate_schedule(
            schedule, graph, 64,
            config=EngineConfig(backend="numpy", horizon_mode="stream", chunk=8, stream_jobs=2),
        )
        assert legacy.muls == modern.muls
        assert legacy.periods == modern.periods
        assert legacy.summary() == modern.summary()

    def test_validate_and_run_scheduler_shims(self, run_inputs):
        graph, schedule = run_inputs
        with pytest.warns(DeprecationWarning, match="validate_schedule"):
            legacy = validate_schedule(schedule, graph, 64, backend="numpy")
        modern = validate_schedule(
            schedule, graph, 64, config=EngineConfig(backend="numpy")
        )
        assert legacy.ok == modern.ok

        with pytest.warns(DeprecationWarning, match="run_scheduler"):
            outcome = run_scheduler(
                get_scheduler("degree-periodic"), graph, horizon=64, backend="numpy"
            )
        assert outcome.backend == "numpy"
        assert outcome.config == EngineConfig(backend="numpy")

    def test_spec_shim_warns_and_matches_config_spec(self):
        with pytest.warns(DeprecationWarning, match="ExperimentSpec"):
            legacy = golden_spec(backend="numpy", horizon_mode="stream", chunk=16)
        modern = golden_spec(
            config=EngineConfig(backend="numpy", horizon_mode="stream", chunk=16)
        )
        assert legacy == modern
        assert legacy.config.stream_jobs == 1

    def test_config_plus_legacy_kwarg_is_an_error(self, run_inputs):
        graph, schedule = run_inputs
        with pytest.raises(TypeError, match="both config="):
            evaluate_schedule(
                schedule, graph, 16, backend="numpy", config=EngineConfig()
            )
        with pytest.raises(TypeError, match="both config="):
            golden_spec(backend="numpy", config=EngineConfig(chunk=4))

    def test_no_warning_on_config_path(self, run_inputs):
        graph, schedule = run_inputs
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_schedule(schedule, graph, 32, config=EngineConfig(backend="numpy"))
            validate_schedule(schedule, graph, 32, config=EngineConfig(backend="numpy"))
            run_scheduler(get_scheduler("degree-periodic"), graph, horizon=32)
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_coerce_config_passthrough(self):
        assert coerce_config(None, {"backend": None}, caller="x") is DEFAULT_CONFIG
        explicit = EngineConfig(chunk=5)
        assert coerce_config(explicit, {"backend": None}, caller="x") is explicit


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

    def test_legacy_kwargs_and_config_hash_identically(self):
        with pytest.warns(DeprecationWarning):
            legacy = golden_spec(horizon_mode="stream", chunk=16, stream_jobs=2)
        modern = golden_spec(
            config=EngineConfig(horizon_mode="stream", chunk=16, stream_jobs=2)
        )
        assert [c.cell_id() for c in legacy.cells()] == [c.cell_id() for c in modern.cells()]
        assert [c.cell_id() for c in legacy.cells()] != GOLDEN_SPEC_CELL_IDS

    def test_window_marks_cell_id_only_when_set(self):
        base = golden_spec().cells()[0]
        windowed = golden_spec(config=EngineConfig(window=256)).cells()[0]
        assert windowed.cell_id() != base.cell_id()
        assert golden_spec(config=EngineConfig()).cells()[0].cell_id() == base.cell_id()

    def test_cell_shim_matches_config_cell(self):
        base = dict(
            experiment="t", workload="w", algorithm="sequential", params={}, seed=0
        )
        with pytest.warns(DeprecationWarning, match="ExperimentCell"):
            legacy = ExperimentCell(**base, backend="numpy")
        assert legacy == ExperimentCell(**base, config=EngineConfig(backend="numpy"))


# ---------------------------------------------------------------------------
# spec serialization: new format + legacy payload migration
# ---------------------------------------------------------------------------

class TestSpecSerialization:
    def test_spec_round_trips_config(self, tmp_path):
        spec = golden_spec(
            config=EngineConfig(backend="numpy", horizon_mode="stream", chunk=128, window=64)
        )
        path = spec.to_json(tmp_path / "spec.json")
        assert ExperimentSpec.from_json(path) == spec
        assert json.loads(path.read_text())["config"]["chunk"] == 128

    def test_legacy_spec_payload_still_loads(self):
        """Spec JSON written before the consolidation (flat backend /
        horizon_mode / chunk / stream_jobs keys) must keep loading — and
        silently, since a data file is not an API misuse."""
        payload = {
            "name": "old",
            "workloads": ["small/path"],
            "algorithms": ["sequential"],
            "grid": {},
            "seeds": [0],
            "horizon": 48,
            "policy": {"multiplier": 4, "minimum": 32, "cap": 20000, "explicit": None},
            "backend": "numpy",
            "certify_bound": True,
            "workload_params": {},
            "horizon_mode": "stream",
            "chunk": 32,
            "stream_jobs": 2,
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = ExperimentSpec.from_dict(payload)
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert spec.config == EngineConfig(
            backend="numpy", horizon_mode="stream", chunk=32, stream_jobs=2
        )

    def test_mixed_config_and_legacy_payload_rejected(self):
        payload = {
            "name": "old", "workloads": ["small/path"], "algorithms": ["sequential"],
            "backend": "numpy", "config": {"backend": "numpy"},
        }
        with pytest.raises(ValueError, match="mixes"):
            ExperimentSpec.from_dict(payload)


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
    assert replace(config, stream_jobs=4).chunk == 64
    with pytest.raises(ValueError, match="no streaming mode"):
        replace(config, backend="sets")
