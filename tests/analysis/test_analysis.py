"""Tests for the experiment harness (records, tables, runner, grid expansion)."""

import pytest

from repro.analysis.engine import expand_grid
from repro.analysis.records import ExperimentRecord, ResultSet
from repro.analysis.runner import RunOutcome, choose_horizon, compare_schedulers, run_scheduler
from repro.analysis.tables import format_value, render_table
from repro.algorithms.degree_periodic import DegreePeriodicScheduler
from repro.algorithms.naive import SequentialScheduler
from repro.graphs.families import clique, star


def record(workload="w", algorithm="a", **metrics):
    return ExperimentRecord(experiment="e", workload=workload, algorithm=algorithm, metrics=metrics)


class TestRecords:
    def test_metric_access(self):
        r = record(max_mul=4.0)
        assert r.metric("max_mul") == 4.0
        assert r.metric("missing") is None
        assert r.metric("missing", default=1.0) == 1.0

    def test_as_row(self):
        r = record(workload="g1", algorithm="alg", a=1.0, b=2.0)
        assert r.as_row(["a", "b", "c"]) == ["g1", "alg", 1.0, 2.0, None]

    def test_result_set_filters(self):
        rs = ResultSet([record(workload="g1"), record(workload="g2", algorithm="b")])
        assert len(rs.filter(workload="g1")) == 1
        assert len(rs.filter(algorithm="b")) == 1
        assert len(rs.filter(experiment="other")) == 0
        assert rs.workloads() == ["g1", "g2"]
        assert rs.algorithms() == ["a", "b"]

    def test_pivot_and_best(self):
        rs = ResultSet(
            [
                record(workload="g1", algorithm="fast", max_mul=2.0),
                record(workload="g1", algorithm="slow", max_mul=9.0),
                record(workload="g2", algorithm="fast", max_mul=5.0),
            ]
        )
        pivot = rs.pivot("max_mul")
        assert pivot["g1"] == {"fast": 2.0, "slow": 9.0}
        assert rs.best_algorithm_per_workload("max_mul") == {"g1": "fast", "g2": "fast"}
        assert rs.best_algorithm_per_workload("max_mul", minimize=False)["g1"] == "slow"

    def test_aggregate(self):
        rs = ResultSet(
            [record(algorithm="a", v=1.0), record(algorithm="a", v=3.0), record(algorithm="b", v=5.0)]
        )
        means = rs.aggregate("v", key=lambda r: r.algorithm, reducer=lambda xs: sum(xs) / len(xs))
        assert means == {"a": 2.0, "b": 5.0}

    def test_add_and_iter(self):
        rs = ResultSet()
        rs.add(record())
        rs.extend([record(), record()])
        assert len(list(rs)) == 3

    def test_jsonl_round_trip(self, tmp_path):
        rs = ResultSet(
            [
                record(workload="g1", algorithm="fast", max_mul=2.0),
                record(workload="g2", algorithm="slow", max_mul=9.5),
            ]
        )
        path = tmp_path / "results.jsonl"
        rs.to_jsonl(path)
        loaded = ResultSet.from_jsonl(path)
        assert list(loaded) == list(rs)

    def test_from_jsonl_skips_truncated_tail(self, tmp_path):
        rs = ResultSet([record(workload="g1"), record(workload="g2")])
        path = tmp_path / "results.jsonl"
        rs.to_jsonl(path)
        content = path.read_text()
        path.write_text(content[: len(content) - 10])  # chop the last record
        loaded = ResultSet.from_jsonl(path)
        assert [r.workload for r in loaded] == ["g1"]
        with pytest.raises(ValueError):
            ResultSet.from_jsonl(path, strict=True)

    def test_from_jsonl_rejects_mid_file_corruption(self, tmp_path):
        # only a truncated *final* line is interrupted-run damage; corruption
        # anywhere else must not silently shrink the result set
        rs = ResultSet([record(workload="g1"), record(workload="g2")])
        path = tmp_path / "results.jsonl"
        rs.to_jsonl(path)
        lines = path.read_text().splitlines()
        path.write_text("{corrupt\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            ResultSet.from_jsonl(path)


class TestTables:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(3) == "3"
        assert format_value(3.0) == "3"
        assert format_value(3.14159) == "3.14"
        assert format_value("text") == "text"

    def test_render_basic(self):
        table = render_table(["name", "value"], [["a", 1], ["bb", 22.5]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_render_alignment(self):
        table = render_table(["k", "v"], [["x", 1], ["y", 100]])
        rows = table.splitlines()[2:]
        # numeric column right-aligned: the 1 should be preceded by spaces
        assert rows[0].endswith("  1") or rows[0].endswith(" 1")

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        table = render_table(["a"], [])
        assert "a" in table


class TestRunner:
    def test_choose_horizon_scales_with_degree(self):
        assert choose_horizon(star(3)) >= 32
        assert choose_horizon(clique(30)) > choose_horizon(clique(5))
        assert choose_horizon(clique(5), cap=40) <= 40

    def test_run_scheduler_outcome(self):
        graph = star(4)
        outcome = run_scheduler(DegreePeriodicScheduler(), graph, seed=1)
        assert isinstance(outcome, RunOutcome)
        assert outcome.validation.ok
        assert outcome.bound_satisfied is True
        metrics = outcome.metrics()
        assert metrics["legal"] == 1.0
        assert metrics["bound_satisfied"] == 1.0
        assert metrics["max_mul"] < 8

    def test_run_scheduler_without_certification(self):
        outcome = run_scheduler(SequentialScheduler(), star(4), certify_bound=False, horizon=24)
        assert outcome.bound_satisfied is None
        assert "bound_satisfied" not in outcome.metrics()

    def test_compare_schedulers(self):
        workloads = {"star": star(4), "clique": clique(4)}
        results = compare_schedulers(
            workloads, ["sequential", "degree-periodic"], experiment="test", horizon=48
        )
        assert len(results) == 4
        pivot = results.pivot("max_mul")
        assert set(pivot) == {"star", "clique"}
        # the degree-periodic scheduler is more *local* on the star: leaves wait 2
        # holidays instead of n, so its degree-normalised gap is far smaller.
        norm = results.pivot("mean_norm_gap")
        assert norm["star"]["degree-periodic"] < norm["star"]["sequential"]


class TestGridExpansion:
    def test_expand_grid(self):
        combos = expand_grid({"a": [1, 2], "b": ["x"]})
        assert combos == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
        assert expand_grid({}) == [{}]
