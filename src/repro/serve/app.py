"""The HTTP skin over :class:`~repro.serve.service.SchedulingService`.

Stdlib only: :class:`http.server.ThreadingHTTPServer` dispatches each
connection to a worker thread, all of which share one service (and through
it one trace cache, one metrics object, one optional result store).  The
handler does exactly four things — parse JSON, route, write the body,
record metrics — and everything domain-shaped stays in ``service.py`` where
the differential tests can call it in-process.  ``/evaluate``,
``/validate`` and ``/report`` answer the bytes the service splices from
its cached answers, written as they are; every other route's dict is
encoded here.

Routes::

    GET  /healthz      liveness + request counter
    GET  /metrics      counters, latency summaries, cache stats (JSON)
    GET  /workloads    registered workload names
    GET  /algorithms   registered scheduler names
    POST /evaluate     full metric suite for (workload, algorithm, ...)
    POST /validate     legality (+ optional periodicity) checks
    POST /report       evaluate + validate over one shared trace build
    POST /synthesize   build a schedule, return its calendar prefix
    POST /cell         experiment-cell read-through (store-backed)

Errors are always the JSON envelope ``{"error": {"code", "message",
"status"}}`` with the matching HTTP status — a stack trace never crosses
the wire (unexpected exceptions become a 500 envelope and a server-side
log line).

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set.  Every
request's declared body is read before routing, so a 404 or 405 leaves the
connection at the next request; a body that cannot be read — a
non-numeric or negative ``Content-Length`` (400) or one above
:data:`MAX_BODY_BYTES` (413) — stays unread, and that reply carries
``Connection: close`` and ends the connection with a bounded lingering
close: half-close, drop what the client still sends (at most
:data:`LINGER_BYTES`, for at most :data:`LINGER_SECONDS`), then close.
Closing with unread bytes queued would reset the connection, and a client
still sending its body could see the reset instead of the reply.
"""

from __future__ import annotations

import json
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from repro.serve.service import SchedulingService, ServiceError
from repro.utils.logging import get_logger

__all__ = ["make_server", "RequestHandler", "MAX_BODY_BYTES", "LINGER_BYTES", "LINGER_SECONDS"]

_log = get_logger("serve.app")

#: largest request body accepted (a schedule query is a few hundred bytes;
#: anything near this limit is a mistake or abuse).
MAX_BODY_BYTES = 1 * 1024 * 1024
#: after a reply that leaves the body unread, drop at most this many bytes
#: the client still sends (a body of up to twice MAX_BODY_BYTES drains
#: whole) ...
LINGER_BYTES = 2 * 1024 * 1024
#: ... for at most this many seconds, then close
LINGER_SECONDS = 2.0


class RequestHandler(BaseHTTPRequestHandler):
    """One request: parse, route, serialize, observe.  The service instance
    hangs off the server (see :func:`make_server`)."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # headers and body go out in two sends; with Nagle's algorithm on, the
    # body would wait for the client's delayed ACK of the headers (~40 ms)
    disable_nagle_algorithm = True
    #: set when a reply leaves the request body unread (see finish)
    body_unread = False

    @property
    def service(self) -> SchedulingService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        # route access logs through the package logger instead of stderr
        _log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The declared request body, read whole before routing so that
        every reply leaves a keep-alive connection at the next request.  A
        body that cannot be read (a bad or oversized ``Content-Length``)
        stays unread, so the reply closes the connection."""
        declared = self.headers.get("Content-Length")
        if declared is None:
            return b""
        declared = declared.strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = self.body_unread = True
            raise ServiceError(
                400, "bad_request", f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = self.body_unread = True
            raise ServiceError(413, "body_too_large", f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    def finish(self) -> None:
        super().finish()
        if self.body_unread:
            self._linger()

    def _linger(self) -> None:
        """Half-close, then read and drop what the client still sends until
        it closes or :data:`LINGER_BYTES` or :data:`LINGER_SECONDS` run
        out: a close with unread bytes queued sends a reset, which can
        reach a client still sending its body before it reads the reply."""
        sock = self.connection
        deadline = time.monotonic() + LINGER_SECONDS
        drained = 0
        try:
            sock.shutdown(socket.SHUT_WR)
            while drained < LINGER_BYTES:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                sock.settimeout(remaining)
                chunk = sock.recv(64 * 1024)
                if not chunk:
                    break
                drained += len(chunk)
        except OSError:  # a timeout, or the client reset first
            pass

    @staticmethod
    def _parse_body(raw: bytes) -> Dict[str, object]:
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(400, "bad_json", f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ServiceError(400, "bad_request", "request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        started = time.perf_counter()
        try:
            status, body = 200, self._route(method, path)
        except ServiceError as exc:
            status, body = exc.status, _encode(exc.payload())
        except Exception:
            # never leak a traceback to the client
            _log.exception("unhandled error serving %s %s", method, path)
            internal = ServiceError(500, "internal", "internal server error")
            status, body = internal.status, _encode(internal.payload())
        # counted before the reply goes out: a client that has read the whole
        # reply may scrape /metrics next, and must find this request in it
        self.service.metrics.observe_request(path, status, time.perf_counter() - started)
        try:
            self._send_json(status, body)
        except ConnectionError:  # client went away mid-reply: counted once, above
            pass

    def _route(self, method: str, path: str) -> bytes:
        raw = self._read_body()
        route = _ROUTES.get(path)
        if route is None:
            raise ServiceError(404, "not_found", f"no such endpoint: {path}")
        allowed, handler, needs_body = route
        if method != allowed:
            raise ServiceError(405, "method_not_allowed", f"{path} only accepts {allowed}")
        payload = self._parse_body(raw) if needs_body else None
        return handler(self.service, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")


def _encode(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


#: path -> (method, handler(service, payload) -> body, needs_body)
_ROUTES: Dict[str, Tuple[str, Callable[[SchedulingService, Optional[Dict]], bytes], bool]] = {
    "/healthz": ("GET", lambda svc, _body: _encode(svc.health()), False),
    "/metrics": ("GET", lambda svc, _body: _encode(svc.metrics_snapshot()), False),
    "/workloads": ("GET", lambda svc, _body: _encode(svc.workloads()), False),
    "/algorithms": ("GET", lambda svc, _body: _encode(svc.algorithms()), False),
    "/evaluate": ("POST", lambda svc, body: svc.evaluate_json(body), True),
    "/validate": ("POST", lambda svc, body: svc.validate_json(body), True),
    "/report": ("POST", lambda svc, body: svc.report_json(body), True),
    "/synthesize": ("POST", lambda svc, body: _encode(svc.synthesize(body)), True),
    "/cell": ("POST", lambda svc, body: _encode(svc.cell(body)), True),
}


def make_server(
    service: SchedulingService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve threading HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address[1]`` — the test harness and the smoke job both
    do).  The caller owns the serve loop: ``serve_forever()`` to block, or a
    daemon thread around it for in-process tests; ``shutdown()`` +
    ``server_close()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), RequestHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server
