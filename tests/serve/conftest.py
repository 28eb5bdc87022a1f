"""Fixtures for the serving-layer harness: an in-process server + client.

The server under test is a real :class:`~http.server.ThreadingHTTPServer`
on an ephemeral localhost port, built by :func:`repro.serve.make_server`
around a fresh :class:`~repro.serve.SchedulingService` — exactly the stack
``repro serve`` runs, minus the argparse shell.  The client is a tiny
``urllib`` wrapper returning ``(status, parsed_json)`` and never raising on
4xx/5xx, so fault tests read the envelope directly.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from typing import Dict, Optional, Tuple

import pytest

from repro.serve import SchedulingService, TraceCache, make_server

#: ``serve_forever`` polls for shutdown this often; the default 0.5 s would
#: make every server teardown wait out a full poll.
POLL_INTERVAL = 0.05


class ServeClient:
    """HTTP client for one test server: ``get``/``post`` → (status, json)."""

    def __init__(self, port: int) -> None:
        self.base = f"http://127.0.0.1:{port}"

    def _request(self, req: urllib.request.Request) -> Tuple[int, Dict]:
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as err:
            body = err.read().decode("utf-8")
            try:
                return err.code, json.loads(body)
            except json.JSONDecodeError:
                return err.code, {"raw": body}

    def get(self, path: str) -> Tuple[int, Dict]:
        return self._request(urllib.request.Request(self.base + path))

    def post(self, path: str, payload: Optional[Dict] = None, raw: Optional[bytes] = None) -> Tuple[int, Dict]:
        data = raw if raw is not None else json.dumps(payload or {}).encode("utf-8")
        req = urllib.request.Request(
            self.base + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._request(req)


@pytest.fixture
def serve_stack():
    """Factory: ``serve_stack(**service_kwargs)`` → (service, server, client).

    Each call starts a fresh threaded server on an ephemeral port and
    registers it for teardown; tests needing a non-default cache, store or
    config pass the corresponding :class:`SchedulingService` kwargs.
    """
    started = []

    def build(**kwargs):
        kwargs.setdefault("cache", TraceCache())
        service = SchedulingService(**kwargs)
        server = make_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True
        )
        thread.start()
        started.append((server, thread))
        return service, server, ServeClient(server.server_address[1])

    yield build

    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def service_client(serve_stack):
    """The common case: one default-config service and its client."""
    service, _server, client = serve_stack()
    return service, client


@pytest.fixture(scope="module")
def module_client():
    """One default server shared by a whole module (for big matrices)."""
    server = make_server(SchedulingService(cache=TraceCache()), port=0)
    thread = threading.Thread(target=server.serve_forever, args=(POLL_INTERVAL,), daemon=True)
    thread.start()
    yield ServeClient(server.server_address[1])
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
