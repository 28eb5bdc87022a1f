"""The differential contract: service JSON ≡ library-path answers.

For every registered scheduler × both spellings of the trace engine, the
JSON a running server returns from ``/evaluate``, ``/validate``, ``/report`` and
``/synthesize`` must equal the answer computed in-process through
:class:`repro.api.Session` and rendered by the *same* serializers
(:func:`repro.serve.report_payload` et al.).  Equality is checked after a
JSON round-trip on the library side, so both values have passed through
identical serialization — any drift between the service path and the
library path fails here, not in a user's dashboard.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.api import Session
from repro.core.config import EngineConfig
from repro.graphs.suites import available_workloads, get_workload
from repro.serve import report_payload, schedule_payload, validation_payload

WORKLOAD = "small/path"
HORIZON = 48
SEED = 3

#: the two spellings of the trace engine: "auto" is the default config
#: (no backend in the trace-cache key), "numpy" a non-default one with its
#: own key
BACKENDS = ["auto", "numpy"]


def roundtrip(payload):
    """The library answer after the exact serialization the wire applies."""
    return json.loads(json.dumps(payload, sort_keys=True))


def library_answer(algorithm: str, backend: str):
    """The in-process (Session) answer for one (algorithm, backend) pair."""
    graph = get_workload(WORKLOAD)
    schedule = get_scheduler(algorithm).build(graph, seed=SEED)
    session = Session(graph, config=EngineConfig(backend=backend))
    return graph, schedule, session


@pytest.fixture(scope="module")
def client(module_client):
    """One shared server for the whole module (the matrix is 11 × 2 × 4)."""
    return module_client


def query(algorithm: str, backend: str, **extra):
    return {
        "workload": WORKLOAD,
        "algorithm": algorithm,
        "seed": SEED,
        "horizon": HORIZON,
        "config": {"backend": backend},
        **extra,
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", available_schedulers())
class TestEverySchedulerEveryBackend:
    def test_evaluate_matches_library(self, client, algorithm, backend):
        status, body = client.post("/evaluate", query(algorithm, backend))
        assert status == 200, body
        _, schedule, session = library_answer(algorithm, backend)
        expected = roundtrip(report_payload(session.evaluate(schedule, HORIZON)))
        assert body["report"] == expected
        assert body["workload"] == WORKLOAD and body["algorithm"] == algorithm
        assert body["horizon"] == HORIZON and body["seed"] == SEED

    def test_validate_matches_library(self, client, algorithm, backend):
        status, body = client.post(
            "/validate", query(algorithm, backend, check_periodic=True)
        )
        assert status == 200, body
        _, schedule, session = library_answer(algorithm, backend)
        expected = roundtrip(
            validation_payload(session.validate(schedule, HORIZON, check_periodic=True))
        )
        assert body["validation"] == expected

    def test_report_matches_library(self, client, algorithm, backend):
        status, body = client.post("/report", query(algorithm, backend))
        assert status == 200, body
        _, schedule, session = library_answer(algorithm, backend)
        combined = session.report(schedule, HORIZON)
        assert body["ok"] == combined.ok
        assert body["summary"] == roundtrip(combined.summary())
        assert body["report"] == roundtrip(report_payload(combined.report))
        assert body["validation"] == roundtrip(validation_payload(combined.validation))


@pytest.mark.parametrize("algorithm", available_schedulers())
def test_synthesize_matches_library(client, algorithm):
    status, body = client.post(
        "/synthesize", query(algorithm, "numpy", holidays=8)
    )
    assert status == 200, body
    graph, schedule, _ = library_answer(algorithm, "numpy")
    assert body["schedule"] == roundtrip(schedule_payload(schedule, 8))


class TestDiscoveryEndpoints:
    def test_workloads_lists_the_registry(self, client):
        status, body = client.get("/workloads")
        assert status == 200
        assert body == {"workloads": available_workloads()}

    def test_algorithms_lists_the_registry(self, client):
        status, body = client.get("/algorithms")
        assert status == 200
        assert body == {"algorithms": available_schedulers()}


class TestSemantics:
    def test_default_horizon_comes_from_policy(self, client):
        """Omitting 'horizon' resolves through HorizonPolicy, same as the
        library default."""
        status, body = client.post(
            "/evaluate", {"workload": WORKLOAD, "algorithm": "degree-periodic"}
        )
        assert status == 200, body
        graph = get_workload(WORKLOAD)
        assert body["horizon"] == Session(graph).resolve_horizon()

    def test_workload_params_reach_the_factory(self, client):
        status, default = client.post(
            "/evaluate",
            {"workload": "gnp-sparse", "algorithm": "degree-periodic", "horizon": 32},
        )
        assert status == 200 and default["n"] == 60
        status, scaled = client.post(
            "/evaluate",
            {
                "workload": "gnp-sparse",
                "algorithm": "degree-periodic",
                "horizon": 32,
                "workload_params": {"scale": 2},
            },
        )
        assert status == 200, scaled
        assert scaled["n"] == 120

    def test_backends_agree_with_each_other(self, client):
        """The two spellings of the trace engine ("auto" is the default,
        "numpy" a non-default config with its own trace-cache key) answer
        identical JSON."""
        answers = []
        for backend in ("auto", "numpy"):
            status, body = client.post("/evaluate", query("degree-periodic", backend))
            assert status == 200
            answers.append(body["report"])
        assert answers[0] == answers[1]
