"""Fault injection: every client mistake is a clean JSON 4xx envelope.

The contract under test: malformed JSON, unknown names, bad types, bad
routes and oversized requests each produce ``{"error": {"code", "message",
"status"}}`` with the matching HTTP status — and **never** a stack trace,
HTML error page or connection reset, including for the next request on the
same keep-alive connection.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.serve import SchedulingService, ServiceError
from repro.serve.app import MAX_BODY_BYTES, RequestHandler

GOOD = {"workload": "small/path", "algorithm": "degree-periodic", "horizon": 32}
JSON = {"Content-Type": "application/json"}


def assert_envelope(status, body, expect_status, expect_code):
    assert status == expect_status, (status, body)
    assert set(body) == {"error"}, f"extra keys beside the envelope: {body}"
    err = body["error"]
    assert err["code"] == expect_code
    assert err["status"] == expect_status
    assert isinstance(err["message"], str) and err["message"]
    assert "Traceback" not in err["message"]


class TestMalformedBodies:
    def test_invalid_json(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", raw=b"{not json at all")
        assert_envelope(status, body, 400, "bad_json")

    def test_non_object_body(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", raw=b'["a", "list"]')
        assert_envelope(status, body, 400, "bad_request")

    def test_empty_body(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", raw=b"")
        assert_envelope(status, body, 400, "bad_request")

    def test_missing_required_fields(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", {"workload": "small/path"})
        assert_envelope(status, body, 400, "bad_request")

    @pytest.mark.parametrize("payload", [[1, 2], "x", None], ids=["list", "string", "null"])
    @pytest.mark.parametrize("endpoint", ["evaluate", "validate", "report", "synthesize", "cell"])
    def test_non_object_payload_in_process(self, endpoint, payload):
        """An in-process caller gets the 400 the HTTP layer answers: every
        payload endpoint checks for an object before it reads a field."""
        with pytest.raises(ServiceError) as raised:
            getattr(SchedulingService(), endpoint)(payload)
        assert (raised.value.status, raised.value.code) == (400, "bad_request")


class TestUnknownNames:
    def test_unknown_workload(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, workload="no-such-graph"))
        assert_envelope(status, body, 404, "unknown_workload")
        assert "/workloads" in body["error"]["message"]

    def test_unknown_algorithm(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, algorithm="no-such-alg"))
        assert_envelope(status, body, 404, "unknown_algorithm")
        assert "/algorithms" in body["error"]["message"]

    def test_unknown_route(self, service_client):
        _service, client = service_client
        status, body = client.get("/no/such/endpoint")
        assert_envelope(status, body, 404, "not_found")

    def test_unknown_names_on_cell(self, service_client):
        _service, client = service_client
        status, body = client.post("/cell", dict(GOOD, workload="nope"))
        assert_envelope(status, body, 404, "unknown_workload")
        status, body = client.post("/cell", dict(GOOD, algorithm="nope"))
        assert_envelope(status, body, 404, "unknown_algorithm")


class TestBadValues:
    @pytest.mark.parametrize("horizon", ["64", 3.5, True, [64]])
    def test_non_integer_horizon(self, service_client, horizon):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, horizon=horizon))
        assert_envelope(status, body, 400, "bad_request")

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_non_positive_horizon(self, service_client, horizon):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, horizon=horizon))
        assert_envelope(status, body, 400, "bad_request")

    def test_oversized_horizon_is_413(self, serve_stack):
        service, _server, client = serve_stack(max_horizon=1000)
        status, body = client.post("/evaluate", dict(GOOD, horizon=1001))
        assert_envelope(status, body, 413, "horizon_too_large")
        # ...and the limit itself is fine
        status, _body = client.post("/evaluate", dict(GOOD, horizon=1000))
        assert status == 200

    def test_oversized_horizon_on_cell(self, serve_stack):
        _service, _server, client = serve_stack(max_horizon=1000)
        status, body = client.post("/cell", dict(GOOD, horizon=5000))
        assert_envelope(status, body, 413, "horizon_too_large")

    def test_bad_config_field(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, config={"backend": "gpu"}))
        assert_envelope(status, body, 400, "bad_request")

    def test_unknown_config_key(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, config={"turbo": True}))
        assert_envelope(status, body, 400, "bad_request")

    @pytest.mark.parametrize(
        "config,removed",
        [
            ({"backend": "bitmask"}, "unknown trace backend 'bitmask'"),
            ({"checkpoint": False}, "unknown EngineConfig field 'checkpoint'"),
            ({"stream_jobs": 2}, "unknown EngineConfig field 'stream_jobs'"),
            ({"batch": 4}, "unknown EngineConfig field 'batch'"),
        ],
    )
    def test_removed_config_values(self, service_client, config, removed):
        """Values earlier releases accepted are a 400 naming the unknown
        value and listing the valid choices."""
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, config=config))
        assert_envelope(status, body, 400, "bad_request")
        assert removed in body["error"]["message"]
        assert "expected one of (" in body["error"]["message"]

    @pytest.mark.parametrize("route", ["/report", "/cell"])
    @pytest.mark.parametrize("chunk", ["7", 7.0, True], ids=["str", "float", "bool"])
    def test_non_integer_config_width(self, service_client, route, chunk):
        """A chunk width that is not an integer is a 400 naming the field,
        rather than a trace-cache key or cell id apart from ``chunk: 7``."""
        _service, client = service_client
        status, body = client.post(route, dict(GOOD, config={"chunk": chunk}))
        assert_envelope(status, body, 400, "bad_request")
        assert "chunk must be an integer" in body["error"]["message"]

    def test_non_object_config(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, config="fast"))
        assert_envelope(status, body, 400, "bad_request")

    def test_non_object_workload_params(self, service_client):
        _service, client = service_client
        status, body = client.post("/evaluate", dict(GOOD, workload_params=[1, 2]))
        assert_envelope(status, body, 400, "bad_request")

    def test_bad_check_periodic_type(self, service_client):
        _service, client = service_client
        status, body = client.post("/validate", dict(GOOD, check_periodic="yes"))
        assert_envelope(status, body, 400, "bad_request")

    def test_bad_holidays_range(self, service_client):
        _service, client = service_client
        status, body = client.post("/synthesize", dict(GOOD, holidays=0))
        assert_envelope(status, body, 400, "bad_request")


class TestMethodDiscipline:
    def test_post_to_get_endpoint(self, service_client):
        _service, client = service_client
        status, body = client.post("/healthz", {})
        assert_envelope(status, body, 405, "method_not_allowed")

    def test_get_on_post_endpoint(self, service_client):
        _service, client = service_client
        status, body = client.get("/evaluate")
        assert_envelope(status, body, 405, "method_not_allowed")


class TestServerStaysUp:
    def test_faults_do_not_poison_later_requests(self, service_client):
        """A barrage of malformed requests leaves the server fully able to
        answer a good one (no wedged locks, no leaked flights)."""
        _service, client = service_client
        client.post("/evaluate", raw=b"\xff\xfe garbage")
        client.post("/evaluate", dict(GOOD, workload="nope"))
        client.post("/evaluate", dict(GOOD, horizon=-1))
        client.get("/nowhere")
        status, body = client.post("/evaluate", GOOD)
        assert status == 200 and body["report"]["summary"]["max_mul"] >= 1


class TestKeepAlive:
    """Error replies on one HTTP/1.1 connection: the next request still gets
    the JSON envelope or a 200, never ``http.server``'s HTML 400 or a broken
    pipe, because every reply leaves the connection at a request boundary —
    or closes it when the body could not be read."""

    @pytest.fixture
    def conn(self, serve_stack):
        _service, server, _client = serve_stack()
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=30)
        yield conn
        conn.close()

    @staticmethod
    def reply(conn):
        response = conn.getresponse()
        return response, json.loads(response.read())

    def assert_next_request_is_served(self, conn):
        conn.request("POST", "/evaluate", body=json.dumps(GOOD), headers=JSON)
        response, body = self.reply(conn)
        assert response.status == 200 and body["report"]["summary"]["max_mul"] >= 1

    @pytest.mark.parametrize(
        "method,path,status,code",
        [
            ("POST", "/nope", 404, "not_found"),
            ("GET", "/evaluate", 405, "method_not_allowed"),
            ("POST", "/healthz", 405, "method_not_allowed"),
        ],
    )
    def test_unrouted_body_is_consumed_and_the_connection_kept(self, conn, method, path, status, code):
        conn.request(method, path, body=json.dumps(GOOD), headers=JSON)
        response, body = self.reply(conn)
        assert_envelope(response.status, body, status, code)
        assert response.getheader("Connection") is None
        sock = conn.sock
        self.assert_next_request_is_served(conn)
        assert conn.sock is sock  # the same keep-alive connection

    @pytest.mark.parametrize(
        "length,status,code",
        [
            (str(MAX_BODY_BYTES + 1), 413, "body_too_large"),
            ("abc", 400, "bad_request"),
            ("-5", 400, "bad_request"),
        ],
    )
    def test_unread_body_closes_the_connection(self, conn, length, status, code):
        conn.putrequest("POST", "/evaluate")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        conn.send(b"x" * 4096)  # body bytes the server never reads
        response, body = self.reply(conn)
        assert_envelope(response.status, body, status, code)
        assert response.getheader("Connection") == "close"
        self.assert_next_request_is_served(conn)  # on a fresh connection

    def test_an_oversized_body_still_being_sent_reads_the_413(self, serve_stack):
        """The 413 arrives while the client is still sending: the server
        drains the body it will not read (bounded) before it closes, so the
        close resets nothing and no send fails with a broken pipe."""
        _service, server, _client = serve_stack()
        body = b"x" * (MAX_BODY_BYTES + 1)
        for _ in range(100):
            conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=30)
            try:
                conn.request("POST", "/evaluate", body=body, headers=JSON)
                response, reply = self.reply(conn)
            finally:
                conn.close()
            assert_envelope(response.status, reply, 413, "body_too_large")

    def test_accepted_sockets_disable_nagle(self, serve_stack, monkeypatch):
        """Headers and body go out in two sends; ``TCP_NODELAY`` keeps the
        body from waiting on the client's delayed ACK."""
        seen = []
        setup = RequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(RequestHandler, "setup", recording_setup)
        _service, _server, client = serve_stack()
        assert client.get("/healthz")[0] == 200
        assert client.post("/evaluate", GOOD)[0] == 200
        assert len(seen) == 2 and all(seen)
