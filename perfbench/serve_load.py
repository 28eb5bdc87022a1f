"""The ``serve`` workload: a closed loop of keep-alive clients against
``repro-holiday serve`` running in a process of its own.

Each of :data:`CLIENTS` threads holds one HTTP/1.1 connection and sends its
next request of the shared, seeded :class:`~harness.ServePlan` as soon as
the previous reply has been read; a request is timed from send until its
whole body has been read.  Response bodies are checked against the goldens
after the timed phase.  The server's own counters are scraped from
``/metrics`` before and after the timed phase, so handler time, cache and
store hit ratios and evictions come from the differences.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness

#: closed-loop clients, one keep-alive connection each (``nproc`` = 2 here).
CLIENTS = 2
QUERY_ENDPOINTS = ("/report", "/evaluate", "/validate", "/cell")
REQUEST_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 60.0


class Server:
    """One ``repro-holiday serve --port 0 --store <fresh file>`` process.

    With ``spans_out`` the server runs under ``serve_launcher.py``, which
    installs the layer spans first and writes their summary there on exit.
    """

    def __init__(self, workdir: Path, spans_out: Optional[Path] = None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        serve_args = ["serve", "--port", "0", "--store", str(workdir / "serve.sqlite")]
        if spans_out is None:
            self.cmd = [sys.executable, "-m", "repro.cli"] + serve_args
        else:
            launcher = harness.BENCH_DIR / "serve_launcher.py"
            self.cmd = [sys.executable, str(launcher), str(spans_out)] + serve_args
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "127.0.0.1", 0
        self._stderr = None

    def start(self) -> float:
        """Start the server; returns seconds until it is bound and has
        answered its first ``/healthz``."""
        env = dict(os.environ, PYTHONPATH=str(harness.SRC), PYTHONUNBUFFERED="1")
        self._stderr = open(self.workdir / "server.log", "wb")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, stdout=subprocess.PIPE, stderr=self._stderr, cwd=harness.ROOT, env=env,
        )
        line = self._read_line_containing("listening on http://", began + STARTUP_TIMEOUT_S)
        address = line.split("http://", 1)[1].strip()
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        status, _ = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return time.perf_counter() - began

    def _read_line_containing(self, marker: str, deadline: float) -> str:
        out = self.proc.stdout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not report its address in time")
            ready, _, _ = select.select([out], [], [], remaining)
            if not ready:
                continue
            line = out.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(f"server exited early:\n{self.log_tail()}")
            if marker in line:
                return line

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, object]:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def log_tail(self) -> str:
        try:
            return (self.workdir / "server.log").read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """Interrupt the server (the CLI shuts down cleanly on Ctrl-C) and
        wait for it; kill it if it does not exit."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        elif self.proc is not None:
            self.proc.communicate()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None


def closed_loop(server: Server, plan: harness.ServePlan, seconds: float):
    """Drive ``plan`` for ``seconds`` from :data:`CLIENTS` keep-alive clients.

    Returns ``(samples, elapsed)`` with one ``(index, seconds, status, body)``
    per request sent, in plan order.
    """
    lock = threading.Lock()
    cursor = [0]
    samples: List[Tuple[int, float, Optional[int], bytes]] = []
    deadline = time.perf_counter() + seconds
    headers = {"Content-Type": "application/json"}

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(plan) or time.perf_counter() >= deadline:
                        return
                    cursor[0] = i + 1
                path, payload = plan.request(i)
                body = json.dumps(payload).encode("utf-8")
                start = time.perf_counter()
                try:
                    conn.request("POST", path, body=body, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                    status: Optional[int] = response.status
                except (OSError, http.client.HTTPException) as exc:
                    # a timeout or a dropped connection: counted as failed;
                    # the next request reconnects
                    status, data = None, repr(exc).encode("utf-8")
                    conn.close()
                samples.append((i, time.perf_counter() - start, status, data))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    elapsed = time.perf_counter() - began
    samples.sort()
    return samples, elapsed


def response_ok(golden: Dict[str, Dict[str, str]], path: str, payload: Dict[str, object],
                body: bytes) -> bool:
    """Does a 200 body equal what the library path produces (its golden)?"""
    key = harness.pair_key(payload["workload"], payload["algorithm"])
    answer = json.loads(body)
    if path == "/cell":
        expected = harness.packed_lookup(golden["cell"][key], payload["seed"])
        return harness.record_digest(answer["record"]) == expected
    if path == "/evaluate":
        expected = harness.packed_lookup(golden["evaluate"][key], payload["seed"] - 1)
    else:
        expected = golden[path.lstrip("/")][key]
    return harness.digest(harness.canonical(answer)) == expected


def count_failures(plan: harness.ServePlan, samples, golden) -> int:
    failed = 0
    for i, _seconds, status, body in samples:
        path, payload = plan.request(i)
        try:
            ok = status == 200 and response_ok(golden, path, payload, body)
        except (KeyError, TypeError, ValueError):  # malformed body or no golden
            ok = False
        if not ok:
            failed += 1
            print(f"request {i} {path} failed (status {status})", file=sys.stderr)
    return failed


def _delta(after: Dict, before: Dict, *path: str) -> float:
    for key in path[:-1]:
        after, before = after.get(key, {}), before.get(key, {})
    return after.get(path[-1], 0) - before.get(path[-1], 0)


def counter_metrics(before: Dict, after: Dict, samples) -> Dict[str, float]:
    """The ``serve.*`` per-layer metrics from two ``/metrics`` scrapes."""
    handled = sum(_delta(after, before, "latency", ep, "count") for ep in QUERY_ENDPOINTS)
    handler_s = sum(_delta(after, before, "latency", ep, "total_seconds") for ep in QUERY_ENDPOINTS)
    client_s = sum(s[1] for s in samples)
    hits = _delta(after, before, "trace_cache", "hits")
    misses = _delta(after, before, "trace_cache", "misses")
    store_hits = _delta(after, before, "store", "hits")
    store_misses = _delta(after, before, "store", "misses")
    handler_ms = 1e3 * handler_s / handled if handled else 0.0
    requests = max(len(samples), 1)
    return {
        "serve.handler_ms": handler_ms,
        "serve.wire_ms": 1e3 * client_s / requests - handler_ms,
        "serve.trace_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.trace_cache.lookups": (hits + misses) / requests,
        "serve.trace_cache.evictions": _delta(after, before, "trace_cache", "evictions") / requests,
        "serve.store.hit_ratio": (
            store_hits / (store_hits + store_misses) if store_hits + store_misses else 0.0),
    }


def measured_phase(workdir: Path, seed: int, seconds: float, golden,
                   spans_out: Optional[Path] = None) -> Dict[str, object]:
    """Start a server, run the closed loop against it, stop it."""
    plan = harness.ServePlan(seed)
    server = Server(workdir, spans_out)
    try:
        setup_s = server.start()
        before = server.metrics()
        samples, elapsed = closed_loop(server, plan, seconds)
        after = server.metrics()
        peak = server.peak_rss_mib()
    finally:
        server.stop()
    answered = sum(1 for s in samples if s[2] == 200)
    return {
        "setup_s": setup_s,
        "latencies": [s[1] for s in samples],
        "attempted": len(samples),
        "failed": count_failures(plan, samples, golden),
        "answered": answered,
        "elapsed": elapsed,
        "peak_rss_mib": peak,
        "counters": counter_metrics(before, after, samples),
        "spans": json.loads(spans_out.read_text()) if spans_out is not None else None,
    }
