"""Served query bodies are the library answer's ``sort_keys`` encoding, byte
for byte.

The service keeps each key's answers as rendered JSON fragments and splices
a request's echo fields in between them, so a changed key order, separator
or float format would not show in a test that parses the body first (the
differential suite and the perfbench goldens both do).  Here the raw HTTP
body of a miss, and of the hit that follows it, must equal
``json.dumps(answer, sort_keys=True).encode("utf-8")`` of the answer
computed on the library path — for the 66 (graph, scheduler) pairs of the
perfbench ``serve`` mix, at two seeds, on every query endpoint, under the
default config, a streamed one and the ``sets`` reference, each cached
under its own key.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.algorithms.registry import get_scheduler
from repro.api import Session
from repro.core.config import EngineConfig
from repro.graphs.suites import BENCHMARK_WORKLOADS, get_workload
from repro.serve import (
    SchedulingService, TraceCache, make_server, report_payload, validation_payload,
)

#: the schedulers the perfbench ``serve`` mix queries: four periodic, two
#: aperiodic
ALGORITHMS = (
    "degree-periodic", "color-periodic-omega", "round-robin-color", "sequential",
    "phased-greedy", "first-come-first-grab",
)
SEEDS = (0, 3)
CONFIGS = (None, {"horizon_mode": "stream", "chunk": 7}, {"backend": "sets"})
#: (endpoint, extra body fields)
QUERIES = (
    ("evaluate", {}),
    ("report", {}),
    ("validate", {"check_periodic": True}),
    ("validate", {"check_periodic": False}),
)


def library_answers(body: dict) -> dict:
    """``{(endpoint, check_periodic): answer}`` for one request body,
    computed through a library :class:`~repro.api.Session`."""
    graph = get_workload(body["workload"])
    schedule = get_scheduler(body["algorithm"]).build(graph, seed=body["seed"])
    session = Session(graph, config=EngineConfig(**body.get("config", {})))
    horizon = session.resolve_horizon()
    echo = {
        "workload": body["workload"], "algorithm": body["algorithm"],
        "seed": body["seed"], "horizon": horizon, "n": graph.num_nodes(),
    }
    # Session.report is Session.evaluate plus Session.validate
    combined = session.report(schedule, horizon)
    report = report_payload(combined.report)
    validation = validation_payload(combined.validation)
    periodic = validation_payload(session.validate(schedule, horizon, check_periodic=True))
    return {
        ("evaluate", None): dict(echo, report=report),
        ("report", None): dict(
            echo, ok=combined.ok, summary=combined.summary(), report=report, validation=validation
        ),
        ("validate", True): dict(echo, validation=periodic),
        ("validate", False): dict(echo, validation=validation),
    }


@pytest.fixture(scope="module")
def served():
    """One server for the module: ``(service, port)``."""
    service = SchedulingService(cache=TraceCache())
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield service, server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


PAIRS = [(graph, algorithm) for graph in BENCHMARK_WORKLOADS for algorithm in ALGORITHMS]


@pytest.mark.parametrize("graph,algorithm", PAIRS)
def test_miss_and_hit_bodies_are_the_library_encoding(served, graph, algorithm):
    service, port = served
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def post(endpoint: str, body: dict) -> bytes:
        headers = {"Content-Type": "application/json"}
        conn.request("POST", f"/{endpoint}", body=json.dumps(body), headers=headers)
        response = conn.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw

    try:
        for config in CONFIGS:
            for seed in SEEDS:
                body = {"workload": graph, "algorithm": algorithm, "seed": seed}
                if config is not None:
                    body["config"] = config
                answers = library_answers(body)
                for endpoint, extra in QUERIES:
                    expected = json.dumps(
                        answers[endpoint, extra.get("check_periodic")], sort_keys=True
                    ).encode("utf-8")
                    service.cache.clear()
                    before = service.cache.stats()
                    request = dict(body, **extra)
                    miss, hit = post(endpoint, request), post(endpoint, request)
                    after = service.cache.stats()
                    assert miss == expected, (config, seed, endpoint, extra)
                    assert hit == expected, (config, seed, endpoint, extra)
                    lookups = (after["misses"] - before["misses"], after["hits"] - before["hits"])
                    assert lookups == (1, 1)
                    assert after["entries"] == 1
    finally:
        conn.close()
