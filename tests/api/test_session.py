"""Tests for the :class:`repro.api.Session` facade.

The headline acceptance gate: ``Session.evaluate() + validate()`` over the
same schedule and horizon builds the occupancy trace **exactly once**
(asserted via build-counting stubs on both engine constructors), replacing
the manual ``trace=`` threading callers used to copy from the runner.
"""

from __future__ import annotations

import pytest

from repro import Session  # the facade is a top-level export
from repro.algorithms.registry import get_scheduler
from repro.analysis.engine import HorizonPolicy
from repro.api import SessionReport
from repro.core.config import EngineConfig
from repro.core.metrics import HappinessTrace, evaluate_schedule
from repro.core.problem import ConflictGraph
from repro.core.schedule import Schedule
from repro.core.trace import StreamedTrace, TraceMatrix
from repro.core.validation import validate_schedule


@pytest.fixture
def graph():
    return ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], name="square+diag")


@pytest.fixture
def schedule(graph):
    return get_scheduler("degree-periodic").build(graph, seed=1)


@pytest.fixture
def build_counter(monkeypatch):
    """Count every dense-matrix and streamed-trace construction."""
    calls = []
    dense_build = TraceMatrix.from_schedule.__func__
    stream_init = StreamedTrace.__init__

    def counting_build(cls, *args, **kwargs):
        calls.append("dense")
        return dense_build(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls.append("stream")
        return stream_init(self, *args, **kwargs)

    monkeypatch.setattr(TraceMatrix, "from_schedule", classmethod(counting_build))
    monkeypatch.setattr(StreamedTrace, "__init__", counting_init)
    return calls


class TestHappyPath:
    def test_three_line_flow_matches_entry_points(self, graph, schedule):
        session = Session(graph)
        report = session.evaluate(schedule, horizon=64)
        validation = session.validate(schedule, horizon=64)
        assert report.summary() == evaluate_schedule(schedule, graph, 64).summary()
        assert validation.ok == validate_schedule(schedule, graph, 64).ok

    def test_evaluate_plus_validate_builds_trace_exactly_once(
        self, graph, schedule, build_counter
    ):
        session = Session(graph)
        session.evaluate(schedule, horizon=64)
        session.validate(schedule, horizon=64, check_periodic=True)
        session.muls(schedule, horizon=64)
        session.rates(schedule, horizon=64)
        assert len(build_counter) == 1

    def test_streamed_session_builds_trace_exactly_once(self, graph, schedule, build_counter):
        session = Session(graph, config=EngineConfig(horizon_mode="stream", chunk=16))
        session.evaluate(schedule, horizon=64)
        session.validate(schedule, horizon=64)
        assert build_counter == ["stream"]

    def test_distinct_horizons_build_distinct_traces(self, graph, schedule, build_counter):
        session = Session(graph)
        session.evaluate(schedule, horizon=32)
        session.evaluate(schedule, horizon=64)
        session.evaluate(schedule, horizon=32)  # cached
        assert len(build_counter) == 2

    def test_distinct_schedules_build_distinct_traces(self, graph, build_counter):
        session = Session(graph)
        a = get_scheduler("degree-periodic").build(graph, seed=1)
        b = get_scheduler("sequential").build(graph, seed=1)
        session.evaluate(a, horizon=32)
        session.evaluate(b, horizon=32)
        assert len(build_counter) == 2
        # the cache keeps both schedules alive, pinning their identity keys
        assert len(session._traces) == 2


class TestConfigSemantics:
    def test_config_selects_engine(self, graph, schedule):
        dense = Session(graph, config=EngineConfig(horizon_mode="dense"))
        stream = Session(graph, config=EngineConfig(horizon_mode="stream", chunk=8))
        dense_trace = dense.trace(schedule, 48)
        assert dense_trace.mode == "dense" and dense_trace.chunk == 48
        streamed = stream.trace(schedule, 48)
        assert isinstance(streamed, StreamedTrace) and streamed.chunk == 8
        assert dense.evaluate(schedule, 48).summary() == stream.evaluate(schedule, 48).summary()

    def test_sets_backend_shares_one_reference_trace(self, graph, schedule, monkeypatch):
        """Under ``sets`` the session's trace is the frozenset reference: a
        report plus a periodic validation materialise the prefix once."""
        prefixes = []
        prefix = Schedule.prefix

        def counting_prefix(self, *args, **kwargs):
            prefixes.append(args)
            return prefix(self, *args, **kwargs)

        monkeypatch.setattr(Schedule, "prefix", counting_prefix)
        session = Session(graph, config=EngineConfig(backend="sets"))
        session.report(schedule, 48)
        session.validate(schedule, 48, check_periodic=True)
        assert len(prefixes) == 1
        trace = session.trace(schedule, 48)
        assert isinstance(trace, HappinessTrace) and trace.mode == "sets"
        assert session.trace(schedule, 48) is trace
        assert len(prefixes) == 1
        reference = Session(graph)
        assert session.evaluate(schedule, 48).summary() == \
            reference.evaluate(schedule, 48).summary()
        assert session.validate(schedule, 48).ok == reference.validate(schedule, 48).ok
        assert session.muls(schedule, 48) == reference.muls(schedule, 48)
        assert session.gaps(schedule, 48) == reference.gaps(schedule, 48)
        assert session.periods(schedule, 48) == reference.periods(schedule, 48)
        assert session.rates(schedule, 48) == reference.rates(schedule, 48)

    def test_default_horizon_comes_from_policy(self, graph, schedule):
        session = Session(graph, policy=HorizonPolicy(explicit=40))
        assert session.resolve_horizon() == 40
        assert session.evaluate(schedule).horizon == 40
        assert Session(graph).resolve_horizon() == HorizonPolicy().for_graph(graph)

    def test_default_horizon_extends_to_witness_a_bound(self, graph, schedule):
        """Certifying a per-node bound with no explicit horizon must use the
        same bound-extended window run_scheduler uses — the degree rule
        alone can be too short to ever observe a violation."""
        session = Session(graph)
        bound = lambda p: 1000.0  # noqa: E731 - the claimed bound dwarfs the degree rule
        extended = session.resolve_horizon(bound=bound)
        assert extended == HorizonPolicy().resolve(graph, bound) > session.resolve_horizon()
        assert session.validate(schedule, bound=bound).checked_holidays == extended
        # a mapping bound gets the same treatment
        mapping = {p: 1000.0 for p in graph.nodes()}
        assert session.resolve_horizon(bound=mapping) == extended

    def test_clear_releases_cached_traces(self, graph, schedule, build_counter):
        session = Session(graph)
        session.evaluate(schedule, horizon=32)
        assert len(session._traces) == 1
        session.clear()
        assert session._traces == {}
        session.evaluate(schedule, horizon=32)  # rebuilt after clear
        assert len(build_counter) == 2


class TestReportAndRun:
    def test_report_combines_metrics_and_validation(self, graph, schedule, build_counter):
        session = Session(graph)
        combined = session.report(schedule, horizon=64, check_periodic=True)
        assert isinstance(combined, SessionReport)
        assert combined.ok and combined.horizon == 64
        summary = combined.summary()
        assert summary["legal"] == 1.0
        assert summary["max_mul"] == combined.report.summary()["max_mul"]
        assert len(build_counter) == 1

    def test_run_delegates_to_run_scheduler_with_session_config(self, graph):
        config = EngineConfig(backend="numpy")
        session = Session(graph, config=config)
        outcome = session.run(get_scheduler("degree-periodic"), seed=1, horizon=48)
        assert outcome.config == config
        assert outcome.backend == "numpy"
        assert outcome.horizon == 48 and outcome.validation.ok

    def test_run_uses_session_policy_for_default_horizon(self, graph):
        session = Session(graph, policy=HorizonPolicy(explicit=56))
        outcome = session.run(get_scheduler("degree-periodic"))
        assert outcome.horizon == 56
