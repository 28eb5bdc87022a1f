"""Tests of the benchmark harness's own logic (not of the program).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
from repro.analysis.records import ExperimentRecord

import harness
import run
import serve_load
import spans
import workloads

# -- the tail-sample rule ----------------------------------------------------


def test_p90_with_fewer_than_ten_samples_beyond_is_refused():
    with pytest.raises(harness.RefusedRun, match="beyond"):
        harness.latency_summary([i / 1000 for i in range(1, 91)])


def test_p90_with_ten_samples_beyond_is_reported():
    summary = harness.latency_summary([i / 1000 for i in range(1, 102)])
    assert summary["beyond_tail"] >= harness.MIN_BEYOND_TAIL
    assert summary["p50_ms"] == pytest.approx(51.0)
    assert summary["samples"] == 101


def test_identical_latencies_leave_nothing_beyond_the_tail():
    with pytest.raises(harness.RefusedRun):
        harness.latency_summary([0.05] * 500)


# -- seeded sequences --------------------------------------------------------


def _sequences(seed):
    campaign = harness.CampaignPlan(seed)
    stream = harness.StreamPlan(seed)
    serve = harness.ServePlan(seed, length=600)
    return (
        [campaign.op(i) for i in range(300)],
        [stream.op(i) for i in range(100)],
        [serve.request(i) for i in range(len(serve))],
    )


def test_seeded_sequences_are_identical_across_runs():
    assert _sequences(5) == _sequences(5)


def test_seeded_sequences_are_identical_across_processes():
    code = ("import json, harness, test_perfbench as t; "
            "print(json.dumps(t._sequences(5)))")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=harness.BENCH_DIR, check=True,
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(harness.SRC)},
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1
    assert json.loads(outputs.pop()) == json.loads(json.dumps(_sequences(5)))


def test_different_seeds_give_different_sequences():
    assert _sequences(5) != _sequences(6)


def test_serve_mix_is_exact_in_every_block_of_ten():
    plan = harness.ServePlan(3, length=1000)
    for block in range(0, 1000, 10):
        paths = sorted(plan.request(i)[0] for i in range(block, block + 10))
        assert paths == sorted(["/report"] * 6 + ["/evaluate"] * 2 + ["/validate", "/cell"])


def test_serve_requests_stay_inside_the_golden_pools():
    plan = harness.ServePlan(9)
    assert len(plan) == harness.SERVE_MAX_REQUESTS
    evaluate_seeds = {p["seed"] for path, p in map(plan.request, range(len(plan)))
                      if path == "/evaluate"}
    cell_seeds = {p["seed"] for path, p in map(plan.request, range(len(plan))) if path == "/cell"}
    assert evaluate_seeds <= set(range(1, harness.SERVE_EVAL_SEED_POOL + 1))
    assert cell_seeds <= set(range(harness.SERVE_CELL_SEED_POOL))


def test_half_of_the_cell_requests_repeat_an_earlier_cell():
    plan = harness.ServePlan(4, length=2000)
    seen, repeats, total = set(), 0, 0
    for i in range(len(plan)):
        path, payload = plan.request(i)
        if path == "/cell":
            key = (payload["workload"], payload["algorithm"], payload["seed"])
            repeats += key in seen
            total += 1
            seen.add(key)
    assert repeats == total // 2


def test_campaign_seeds_advance_one_per_lap_and_stay_in_the_golden_pool():
    plan = harness.CampaignPlan(2)
    laps = harness.CAMPAIGN_SEED_POOL + 3
    ops = [plan.op(i) for i in range(len(harness.GRAPHS) * laps)]
    assert {graph for graph, _ in ops[:len(harness.GRAPHS)]} == set(harness.GRAPHS)
    assert ops[0][1] == (0, 1)
    assert ops[len(harness.GRAPHS)][1] == (1, 2)
    assert max(s for _, seeds in ops for s in seeds) == harness.CAMPAIGN_SEED_POOL


# -- goldens -----------------------------------------------------------------


def _record(seed, value):
    return {
        "experiment": harness.CAMPAIGN_EXPERIMENT, "workload": "clique",
        "algorithm": "sequential",
        "metrics": {"max_mul": value, "build_seconds": 0.5, "measure_seconds": 0.25},
        "params": {"seed": seed, "cached": True},
    }


def test_record_digest_ignores_timing_and_the_cached_stamp():
    base = _record(0, 11.0)
    other = _record(0, 11.0)
    other["metrics"]["build_seconds"] = 9.0
    del other["params"]["cached"]
    assert harness.record_digest(base) == harness.record_digest(other)
    assert harness.record_digest(base) != harness.record_digest(_record(0, 12.0))


class _FakeCampaign(workloads.Campaign):
    """A campaign whose operations return canned records (no program)."""

    def __init__(self, golden):
        self.plan = harness.CampaignPlan(0)
        self.golden = golden

    def op(self, i):
        graph, seeds = self.plan.op(i)
        records = [
            ExperimentRecord(**dict(_record(s, 1.0), workload=graph, algorithm=a))
            for a in harness.CAMPAIGN_ALGORITHMS for s in seeds
        ]
        stats = {"total": len(records), "executed": len(harness.CAMPAIGN_ALGORITHMS)}
        return stats, records


def _campaign_golden():
    packed = {}
    for graph in harness.GRAPHS:
        for algorithm in harness.CAMPAIGN_ALGORITHMS:
            packed[harness.pair_key(graph, algorithm)] = "".join(
                harness.record_digest(dict(_record(s, 1.0), workload=graph, algorithm=algorithm))
                for s in range(harness.CAMPAIGN_SEED_POOL + 1))
    return packed


def test_matching_campaign_goldens_pass():
    result = workloads.measure(_FakeCampaign(_campaign_golden()), seconds=0.05)
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_a_wrong_campaign_golden_is_counted_as_a_failure():
    golden = _campaign_golden()
    graph, (seed, _) = harness.CampaignPlan(0).op(0)
    key = harness.pair_key(graph, "sequential")
    packed = golden[key]
    golden[key] = packed[:8 * seed] + "00000000" + packed[8 * seed + 8:]
    fake = _FakeCampaign(golden)
    assert not workloads._checked(fake, 0, fake.op(0))
    assert workloads._checked(fake, 1, fake.op(1))


def test_a_missing_golden_is_counted_as_a_failure():
    fake = _FakeCampaign({})
    result = workloads.measure(fake, seconds=0.05)
    assert result["failed"] == result["attempted"] > 0


def test_a_wrong_serve_golden_is_counted_as_a_failure():
    plan = harness.ServePlan(1, length=40)
    bodies, golden = [], {"report": {}, "validate": {}, "evaluate": {}, "cell": {}}
    for i in range(len(plan)):
        path, payload = plan.request(i)
        key = harness.pair_key(payload["workload"], payload["algorithm"])
        if path == "/cell":
            record = dict(_record(payload["seed"], 2.0), workload=payload["workload"])
            body = {"cell_id": "x", "cached": i % 2 == 0, "record": record}
            golden["cell"][key] = "".join(
                harness.record_digest(dict(_record(s, 2.0), workload=payload["workload"]))
                for s in range(harness.SERVE_CELL_SEED_POOL))
        else:
            body = dict(payload, answer=7)
            digest = harness.digest(harness.canonical(body))
            if path == "/evaluate":
                golden["evaluate"][key] = "00000000" * (payload["seed"] - 1) + digest
            else:
                golden[path.lstrip("/")][key] = digest
        bodies.append((i, 0.01, 200, json.dumps(body).encode("utf-8")))
    assert serve_load.count_failures(plan, bodies, golden) == 0

    report_key = next(k for k in golden["report"])
    golden["report"][report_key] = "00000000"
    wrong = sum(1 for i in range(len(plan))
                if plan.request(i)[0] == "/report"
                and harness.pair_key(plan.request(i)[1]["workload"],
                                     plan.request(i)[1]["algorithm"]) == report_key)
    assert wrong > 0
    assert serve_load.count_failures(plan, bodies, golden) == wrong


def test_a_non_200_reply_is_a_failure():
    plan = harness.ServePlan(1, length=1)
    assert serve_load.count_failures(plan, [(0, 0.01, 500, b"{}")], {}) == 1
    assert serve_load.count_failures(plan, [(0, 30.0, None, b"timeout")], {}) == 1


# -- spans -------------------------------------------------------------------


def test_self_time_excludes_child_spans(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 3.5, 4.0, 10.0])
    monkeypatch.setattr(spans, "_perf_counter", lambda: next(clock))
    recorder = spans.Recorder()
    step = recorder.wrap_step(lambda t: t)
    inner = recorder.wrap("core.trace", lambda: step(1))
    outer = recorder.wrap("core.metrics", lambda: inner())
    outer()
    # outer 0..10, inner 1..4 of which the step took 3.0..3.5
    totals = recorder.self_seconds()
    assert totals["core.metrics"] == pytest.approx(7.0)
    assert totals["core.trace"] == pytest.approx(2.5)
    assert totals["core.schedule"] == pytest.approx(0.5)
    assert recorder.summary()["steps"] == 1


def test_layer_metrics_are_per_operation():
    summary = {"self.core.trace": 2.0, "algorithms.build_calls": 30, "store.hits": 5,
               "store.probed": 10, "engine.executed_cells": 12, "trace.batches": 3}
    metrics = spans.layer_metrics(summary, ops=10)
    assert metrics["core.trace.build_ms"] == pytest.approx(200.0)
    assert metrics["algorithms.build_calls"] == 3
    assert metrics["io.store.hit_ratio"] == 0.5
    assert metrics["analysis.engine.cells_per_batch"] == 4


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_names_every_metric_the_harness_reports():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["perfbench"]
