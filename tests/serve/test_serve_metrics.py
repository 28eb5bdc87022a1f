"""``/healthz`` and ``/metrics``: the service's observability surface."""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit

from repro.serve.health import LatencySummary, ServiceMetrics

GOOD = {"workload": "small/path", "algorithm": "degree-periodic", "horizon": 32}


class TestHealthz:
    def test_healthz_reports_ok_and_counts(self, service_client):
        _service, client = service_client
        status, body = client.get("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0
        first_count = body["requests"]
        client.post("/evaluate", GOOD)
        _status, again = client.get("/healthz")
        # a request is counted before its reply is written, so the scrape
        # counts the completed /evaluate but not itself
        assert again["requests"] > first_count


class TestMetricsEndpoint:
    def test_request_counters_and_latency(self, service_client):
        _service, client = service_client
        client.post("/evaluate", GOOD)
        client.post("/evaluate", GOOD)
        client.post("/evaluate", dict(GOOD, workload="nope"))
        status, body = client.get("/metrics")
        assert status == 200
        requests = body["requests"]
        assert requests["by_endpoint"]["/evaluate"] == 3
        assert requests["by_status"]["200"] >= 2
        assert requests["by_status"]["404"] == 1
        latency = body["latency"]["/evaluate"]
        assert latency["count"] == 3
        assert latency["min_seconds"] <= latency["mean_seconds"] <= latency["max_seconds"]
        assert latency["total_seconds"] > 0

    def test_every_scrape_counts_every_earlier_request(self, service_client, monkeypatch):
        """A client that has read a whole reply finds that request in its next
        scrape.  Requests go over one keep-alive connection and scrapes over a
        second, so two server threads race; recording is slowed down to widen
        the window a record made after the reply was written would leave."""
        service, client = service_client
        observe = service.metrics.observe_request

        def slow_observe(*args):
            time.sleep(0.005)
            observe(*args)

        monkeypatch.setattr(service.metrics, "observe_request", slow_observe)
        port = urlsplit(client.base).port
        queries = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        scrapes = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for done in range(1, 41):
                queries.request("GET", "/healthz")
                reply = queries.getresponse()
                reply.read()
                assert reply.status == 200
                scrapes.request("GET", "/metrics")
                reply = scrapes.getresponse()
                requests = json.loads(reply.read())["requests"]
                assert requests["by_endpoint"]["/healthz"] == done
                assert requests["by_endpoint"].get("/metrics", 0) == done - 1
        finally:
            queries.close()
            scrapes.close()

    def test_cache_counters_surface_hits_and_misses(self, service_client):
        service, client = service_client
        client.post("/evaluate", GOOD)
        client.post("/evaluate", GOOD)
        client.post("/validate", GOOD)  # same trace key: another hit
        _status, body = client.get("/metrics")
        cache = body["trace_cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 2
        assert cache["entries"] == 1
        assert 0 < cache["bytes"] <= cache["max_bytes"]
        assert cache == service.cache.stats() | {"max_bytes": cache["max_bytes"]}

    def test_store_counters_absent_activity_is_zero(self, service_client):
        _service, client = service_client
        _status, body = client.get("/metrics")
        assert body["store"] == {"hits": 0, "misses": 0}


class TestUnitLevel:
    def test_latency_summary_streams_min_max_mean(self):
        summary = LatencySummary()
        for s in (0.2, 0.1, 0.4):
            summary.observe(s)
        d = summary.to_dict()
        assert d["count"] == 3
        assert d["min_seconds"] == 0.1 and d["max_seconds"] == 0.4
        assert abs(d["mean_seconds"] - (0.7 / 3)) < 1e-12

    def test_empty_latency_summary_is_all_zero(self):
        d = LatencySummary().to_dict()
        assert d == {
            "count": 0,
            "total_seconds": 0.0,
            "min_seconds": 0.0,
            "max_seconds": 0.0,
            "mean_seconds": 0.0,
        }

    def test_service_metrics_threadsafe_increments(self):
        import threading

        metrics = ServiceMetrics()

        def hammer():
            for _ in range(200):
                metrics.observe_request("/x", 200, 0.001)
                metrics.observe_store(hit=True)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = metrics.snapshot()
        assert snap["requests"]["total"] == 800
        assert snap["latency"]["/x"]["count"] == 800
        assert snap["store"]["hits"] == 800
