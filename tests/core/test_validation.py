"""Tests for schedule validation and bound certification."""

import pytest

from repro.algorithms.phased_greedy import PhasedGreedyScheduler
from repro.core.config import EngineConfig
from repro.core.metrics import build_trace
from repro.core.problem import ConflictGraph
from repro.core.schedule import ExplicitSchedule, PeriodicSchedule, SlotAssignment
from repro.core.validation import (
    Violation,
    certify_local_bound,
    certify_periodicity,
    check_independent_sets,
    validate_schedule,
)
from repro.graphs.random_graphs import erdos_renyi


@pytest.fixture
def triangle():
    return ConflictGraph.from_edges([(0, 1), (1, 2), (2, 0)], name="k3")


class TestCheckIndependentSets:
    def test_legal_schedule(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0], [1], [2]])
        report = check_independent_sets(schedule, triangle, 3)
        assert report.ok
        assert report.checked_holidays == 3

    def test_catches_adjacent_pair(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0, 1]], validate=False)
        report = check_independent_sets(schedule, triangle, 1)
        assert not report.ok
        assert report.violations[0].kind == "not-independent"
        assert report.violations[0].holiday == 1

    def test_catches_unknown_node(self, triangle):
        schedule = ExplicitSchedule(triangle, [[99]], validate=False)
        report = check_independent_sets(schedule, triangle, 1)
        assert not report.ok
        assert report.violations[0].kind == "unknown-node"

    def test_raise_if_failed(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0, 1]], validate=False)
        report = check_independent_sets(schedule, triangle, 1)
        with pytest.raises(AssertionError):
            report.raise_if_failed()

    def test_raise_if_ok_is_noop(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0]])
        check_independent_sets(schedule, triangle, 1).raise_if_failed()


class TestCertifyLocalBound:
    def test_bound_satisfied(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0], [1], [2]], cyclic=True)
        report = certify_local_bound(
            schedule, triangle, 12, bound=lambda p: 3.0, bound_name="deg+1"
        )
        assert report.ok

    def test_bound_violated(self, triangle):
        # node 2 appears only every 6 holidays -> mul 5 > 3
        schedule = ExplicitSchedule(triangle, [[0], [1], [0], [1], [0], [2]], cyclic=True)
        report = certify_local_bound(schedule, triangle, 24, bound=lambda p: 3.0)
        assert not report.ok
        assert any(v.node == 2 and v.kind == "bound-exceeded" for v in report.violations)

    def test_mapping_bound(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0], [1], [2]], cyclic=True)
        report = certify_local_bound(schedule, triangle, 12, bound={0: 3, 1: 3, 2: 3})
        assert report.ok

    def test_skip_isolated(self):
        g = ConflictGraph(edges=[(0, 1)], nodes=[5])
        schedule = ExplicitSchedule(g, [[0], [1]], cyclic=True)  # node 5 never hosts
        strict = certify_local_bound(schedule, g, 8, bound=lambda p: 2.0)
        lenient = certify_local_bound(schedule, g, 8, bound=lambda p: 2.0, skip_isolated=True)
        assert not strict.ok
        assert lenient.ok


class TestCertifyPeriodicity:
    def test_periodic_schedule_passes(self, triangle):
        schedule = PeriodicSchedule(
            triangle,
            {0: SlotAssignment(4, 0), 1: SlotAssignment(4, 1), 2: SlotAssignment(4, 2)},
        )
        assert certify_periodicity(schedule, 32).ok

    def test_aperiodic_flagged(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0], [1], [0], [2], [0], [1], [2], [0]])
        report = certify_periodicity(schedule, 8)
        assert not report.ok
        assert any(v.kind == "aperiodic" for v in report.violations)

    def test_advertised_period_mismatch(self, triangle):
        class Lying(PeriodicSchedule):
            def node_period(self, node):
                return 8  # claims 8 but actual period is 4

        schedule = Lying(
            triangle,
            {0: SlotAssignment(4, 0), 1: SlotAssignment(4, 1), 2: SlotAssignment(4, 2)},
        )
        report = certify_periodicity(schedule, 32)
        assert not report.ok
        assert any(v.kind == "period-mismatch" for v in report.violations)


class TestCertificationMatchesPerNodeLoops:
    """Both certifiers read the trace in bulk; the per-node loops they
    replaced are kept here, and every violation's order, kind and text must
    match them on either backend."""

    @staticmethod
    def local_bound_loop(trace, graph, bound, skip_isolated):
        out = []
        for p in graph.nodes():
            if skip_isolated and graph.degree(p) == 0:
                continue
            limit = bound[p] if isinstance(bound, dict) else bound(p)
            measured = trace.mul(p)
            if measured > limit:
                out.append(Violation("bound-exceeded", p, None,
                                     f"mul={measured} exceeds half={limit} (degree {graph.degree(p)})"))
        return out

    @staticmethod
    def periodicity_loop(trace, schedule):
        out = []
        for p in schedule.graph.nodes():
            distinct = trace.distinct_appearance_diffs(p)
            if not distinct:
                continue
            if len(distinct) != 1:
                out.append(Violation("aperiodic", p, None, f"inter-appearance gaps vary: {distinct}"))
                continue
            advertised = schedule.node_period(p) if schedule.is_periodic() else None
            if advertised is not None and distinct[0] != advertised:
                out.append(Violation("period-mismatch", p, None,
                                     f"observed period {distinct[0]} != advertised {advertised}"))
        return out

    @pytest.mark.parametrize("backend", ["numpy", "sets"])
    @pytest.mark.parametrize("skip_isolated", [False, True])
    def test_local_bound(self, backend, skip_isolated):
        graph = erdos_renyi(30, 0.15, seed=4)
        graph.add_node(99)  # isolated: hosts every holiday
        schedule = PhasedGreedyScheduler(initial_coloring="greedy").build(graph)
        config = EngineConfig(backend=backend)
        trace = build_trace(schedule, graph, 90, config=config)
        half = {p: graph.degree(p) // 2 for p in graph.nodes()}  # some nodes exceed it
        for bound in (half, half.__getitem__):
            report = certify_local_bound(schedule, graph, 90, bound, bound_name="half",
                                         skip_isolated=skip_isolated, config=config)
            expected = self.local_bound_loop(trace, graph, bound, skip_isolated)
            assert 0 < len(expected) < graph.num_nodes() - 1
            assert report.violations == expected

    @pytest.mark.parametrize("backend", ["numpy", "sets"])
    def test_periodicity(self, backend, triangle):
        class Lying(PeriodicSchedule):
            def node_period(self, node):
                return 8 if node == 1 else super().node_period(node)

        periodic = Lying(triangle, {0: SlotAssignment(4, 0), 1: SlotAssignment(4, 1),
                                    2: SlotAssignment(8, 2)})
        graph = erdos_renyi(20, 0.2, seed=2)
        aperiodic = PhasedGreedyScheduler(initial_coloring="greedy").build(graph)
        config = EngineConfig(backend=backend)
        for schedule, horizon in ((periodic, 32), (aperiodic, 60), (periodic, 5)):
            report = certify_periodicity(schedule, horizon, config=config)
            trace = build_trace(schedule, schedule.graph, horizon, config=config)
            assert report.violations == self.periodicity_loop(trace, schedule)
        assert [v.kind for v in certify_periodicity(periodic, 32).violations] == ["period-mismatch"]


class TestValidateSchedule:
    def test_combined(self, triangle):
        schedule = PeriodicSchedule(
            triangle,
            {0: SlotAssignment(4, 0), 1: SlotAssignment(4, 1), 2: SlotAssignment(4, 2)},
        )
        report = validate_schedule(
            schedule, triangle, 32, bound=lambda p: 4.0, check_periodic=True
        )
        assert report.ok

    def test_merge_collects_all_violation_kinds(self, triangle):
        schedule = ExplicitSchedule(triangle, [[0, 1], [2]], validate=False, cyclic=True)
        report = validate_schedule(schedule, triangle, 8, bound=lambda p: 0.5)
        kinds = {v.kind for v in report.violations}
        assert "not-independent" in kinds
        assert "bound-exceeded" in kinds
