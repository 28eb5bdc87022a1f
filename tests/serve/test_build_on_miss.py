"""A trace-cache hit builds no schedule.

The service computes a query's content key from the request alone and
builds the schedule only inside the cache's miss path; a scheduler that
never reads its seed (``Scheduler.seeded`` False) is keyed without it, so
a fresh seed of such a scheduler is a hit too.  Counted here by wrapping
every registered scheduler class's ``build``; every body must still equal
the library answer for the request's own seed.
"""

from __future__ import annotations

import json

import pytest

import repro.analysis.engine as engine_module
import repro.serve.service as service_module
from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.analysis.engine import ExperimentCell, execute_cell
from repro.api import Session
from repro.graphs.suites import get_workload
from repro.io.results import record_to_dict
from repro.serve import SchedulingService, TraceCache, report_payload, validation_payload

WORKLOAD = "gnp-sparse"


def roundtrip(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def library_body(endpoint: str, body: dict) -> dict:
    """What the service must answer, computed on the library path."""
    graph = get_workload(body["workload"])
    schedule = get_scheduler(body["algorithm"]).build(graph, seed=body["seed"])
    session = Session(graph)
    horizon = session.resolve_horizon()
    out = {
        "workload": body["workload"], "algorithm": body["algorithm"],
        "seed": body["seed"], "horizon": horizon, "n": graph.num_nodes(),
    }
    if endpoint == "evaluate":
        out["report"] = report_payload(session.evaluate(schedule, horizon))
    elif endpoint == "validate":
        validation = session.validate(schedule, horizon, check_periodic=True)
        out["validation"] = validation_payload(validation)
    else:
        combined = session.report(schedule, horizon)
        out.update(
            ok=combined.ok, summary=combined.summary(),
            report=report_payload(combined.report),
            validation=validation_payload(combined.validation),
        )
    return roundtrip(out)


@pytest.fixture
def builds(monkeypatch):
    """The seeds of every ``Scheduler.build`` call, in order."""
    seeds = []
    for cls in {type(get_scheduler(name)) for name in available_schedulers()}:
        def counting(self, graph, seed=0, _build=cls.build):
            seeds.append(seed)
            return _build(self, graph, seed=seed)

        monkeypatch.setattr(cls, "build", counting)
    return seeds


@pytest.mark.parametrize("algorithm", available_schedulers())
def test_only_a_miss_builds(algorithm, builds):
    body = {"workload": WORKLOAD, "algorithm": algorithm, "seed": 3}
    fresh = dict(body, seed=11)
    requests = [
        ("evaluate", body), ("report", body), ("evaluate", body),
        ("validate", dict(body, check_periodic=True)), ("evaluate", fresh),
    ]
    expected = [library_body(endpoint, request) for endpoint, request in requests]
    del builds[:]

    service = SchedulingService(cache=TraceCache())
    answers, counts = [], []
    for endpoint, request in requests:
        before = len(builds)
        answers.append(roundtrip(getattr(service, endpoint)(request)))
        counts.append(len(builds) - before)

    # one miss, three hits on its key, then a fresh seed: a hit unless the
    # scheduler reads its seed (first-come-first-grab, the distributed ones)
    seeded = get_scheduler(algorithm).seeded
    assert counts == [1, 0, 0, 0, int(seeded)]
    assert builds == ([3, 11] if seeded else [3])
    assert answers == expected


def test_synthesize_and_the_sets_backend_build():
    service = SchedulingService(cache=TraceCache())
    body = {"workload": "small/path", "algorithm": "degree-periodic", "seed": 1}
    service.evaluate(body)
    assert "schedule" in service.synthesize(dict(body, holidays=4))
    report = service.evaluate(dict(body, config={"backend": "sets"}))["report"]
    assert report == service.evaluate(body)["report"]
    assert service.cache.stats()["misses"] == 2  # `sets` is a key of its own


def strip_timing(record: dict) -> dict:
    metrics = {k: v for k, v in record["metrics"].items() if not k.endswith("_seconds")}
    return dict(record, metrics=metrics)


def test_a_cell_miss_reuses_the_services_graph(monkeypatch):
    cell = {"workload": "gnp-sparse", "algorithm": "phased-greedy", "seed": 2, "params": {"scale": 2}}
    expected = execute_cell(
        ExperimentCell(
            experiment="serve", workload=cell["workload"], algorithm=cell["algorithm"],
            params=cell["params"], seed=cell["seed"],
        )
    )
    service = SchedulingService(cache=TraceCache())
    service.evaluate(
        {"workload": "gnp-sparse", "algorithm": "degree-periodic", "workload_params": {"scale": 2}}
    )
    calls = []
    for module in (service_module, engine_module):
        def counting(*args, _get=module.get_workload, **kwargs):
            calls.append(args)
            return _get(*args, **kwargs)

        monkeypatch.setattr(module, "get_workload", counting)
    answer = service.cell(cell)
    assert answer["cached"] is False
    assert calls == []
    assert strip_timing(answer["record"]) == strip_timing(record_to_dict(expected))
