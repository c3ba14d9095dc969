"""Demo-scale JSON-over-HTTP surface for the query service.

A deliberately dependency-free endpoint on the stdlib's threading
``http.server`` — enough to demo and load-test the compiled index from
``curl``, not a production frontend (that is a later scaling PR; this
module is the seam it will replace).

Endpoints:

* ``GET /v1/lookup?ip=<address-or-prefix>`` — point longest-prefix
  match; 200 with ``{"found": false}`` on a miss, 400 on malformed
  queries.
* ``POST /v1/batch`` — body ``{"queries": ["…", …]}``; answers aligned
  with the input, malformed entries in-band per row.
* ``GET /v1/snapshot`` — current index generation metadata plus
  query/cache counters.
* ``GET /v1/status`` — liveness/identity view: worker pid, uptime,
  generation, plus the service info (fleet-wide rows when served by
  the supervisor's control server).
* ``GET /v1/metrics`` — Prometheus text exposition of the process
  registry (the merged fleet registry on the control server).

Both telemetry handlers snapshot the registry first and render/write
from the plain snapshot dict — no registry or service lock is ever
held across socket I/O, so a slow scraper can never stall lookups or
a swap (regression-tested in ``tests/test_serving_stress.py``).

Anything else is a 404; bodies are ``application/json`` except
``/v1/metrics`` (``text/plain``).

:class:`StatusHTTPServer` is the supervisor-side control-plane server:
the SO_REUSEPORT fleet port is kernel-load-balanced, so no single
worker can answer for the fleet — the supervisor binds a *separate*
port and serves fleet-wide ``/v1/status`` + ``/v1/metrics`` from
callables provided by :class:`~repro.serving.fleet.ServingFleet`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import render_prometheus
from repro.serving.service import QueryError, SiblingQueryService

#: Largest accepted ``POST /v1/batch`` body, a denial-of-accident guard.
MAX_BODY_BYTES = 4 * 1024 * 1024


class ManagedHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server with an explicit start/close lifecycle.

    :meth:`start` runs ``serve_forever`` in a background thread and
    returns ``self``; :meth:`close` stops that thread (if any), joins
    it, and releases the listening socket.  Used as a context manager
    the server closes on exit, so tests and embedders never leak
    sockets or rely on daemon-thread teardown.
    """

    daemon_threads = True

    #: Thread-name prefix for the serve thread.
    thread_prefix = "managed-http"

    _serve_thread: threading.Thread | None = None

    def start(self) -> "ManagedHTTPServer":
        """Serve in a background thread; returns ``self`` for chaining."""
        if self._serve_thread is not None and self._serve_thread.is_alive():
            raise RuntimeError("server already started")
        # Daemon: an embedder that exits without close() must not hang
        # the interpreter on a live accept loop.
        self._serve_thread = threading.Thread(
            target=self.serve_forever,
            name=f"{self.thread_prefix}-{self.server_address[1]}",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop serving (if started), join the thread, release the socket.

        Idempotent; safe on a server that was bound but never started
        (``shutdown`` is only called when the serve thread is live, so
        close never blocks on the never-set shutdown event).  A serve
        thread that fails to stop within the join timeout raises
        :class:`RuntimeError` — the socket is still released, but the
        wedged thread must not be silently leaked.
        """
        thread = self._serve_thread
        if thread is not None and thread.is_alive():
            self.shutdown()
            thread.join(timeout=10)
            if thread.is_alive():
                self._serve_thread = None
                self.server_close()
                raise RuntimeError(
                    f"serve thread {thread.name!r} did not stop within 10s"
                )
        self._serve_thread = None
        self.server_close()

    def __exit__(self, *exc_info) -> None:
        self.close()


class SiblingHTTPServer(ManagedHTTPServer):
    """The data-plane server: owns the query service reference."""

    thread_prefix = "sibling-http"

    def __init__(self, address, service: SiblingQueryService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        self.started_at = time.monotonic()
        #: Extra identity keys (e.g. the fleet worker slot) merged into
        #: this server's ``/v1/status`` worker view.
        self.worker_info: dict = {}
        #: name → zero-arg callable; each is invoked per ``/v1/status``
        #: request and its JSON-able result merged in as a top-level key
        #: (the seam ``repro watch`` uses to surface its loop state).
        self.status_extras: dict = {}
        self._serve_thread: threading.Thread | None = None
        super().__init__(address, SiblingRequestHandler)


class SiblingRequestHandler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` endpoints onto the service."""

    server: SiblingHTTPServer

    #: HTTP/1.1 so keep-alive clients reuse their connection instead of
    #: paying a reconnect per query (every response carries an explicit
    #: Content-Length, which persistent connections require).
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Dispatch ``/v1/lookup``, ``/v1/snapshot``, ``/v1/status``,
        and ``/v1/metrics``."""
        url = urlparse(self.path)
        if url.path == "/v1/lookup":
            query = parse_qs(url.query).get("ip", [])
            if len(query) != 1:
                self._reply(400, {"error": "exactly one ip= parameter required"})
                return
            self._answer(lambda: self.server.service.lookup(query[0]))
        elif url.path == "/v1/snapshot":
            self._answer(self.server.service.snapshot_info)
        elif url.path == "/v1/status":
            self._answer(self._status_payload)
        elif url.path == "/v1/metrics":
            service = self.server.service
            service.observe_gauges()
            # Snapshot under per-metric locks, render and write from
            # the plain dict — nothing shared is held across the socket.
            text = render_prometheus(service.registry.snapshot())
            self._reply_text(200, text)
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    def _status_payload(self) -> dict:
        """One worker's ``/v1/status`` view (``fleet`` is the
        supervisor's business — ``None`` here)."""
        service = self.server.service
        worker = {
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self.server.started_at,
            "generation": service.generation,
        }
        worker.update(self.server.worker_info)
        payload = {
            "fleet": None,
            "worker": worker,
            "service": service.status(),
        }
        for name, provider in self.server.status_extras.items():
            payload[name] = provider()
        return payload

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Dispatch ``/v1/batch``.

        Error replies sent *before* the request body has been read
        close the connection — leftover body bytes on a persistent
        (HTTP/1.1) connection would be parsed as the next request line.
        """
        if urlparse(self.path).path != "/v1/batch":
            self.close_connection = True
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self.close_connection = True
            self._reply(400, {"error": "Content-Length required"})
            return
        if length < 0:
            self.close_connection = True
            self._reply(400, {"error": "negative Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._reply(400, {"error": f"body too large (> {MAX_BODY_BYTES} bytes)"})
            return
        body = self.rfile.read(length)
        if len(body) < length:
            # Client died mid-body: the connection's framing is gone, so
            # any reply must not be followed by another request on it.
            self.close_connection = True
            self._reply(400, {"error": "truncated request body"})
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, bad UTF-8 and integer
            # literals over the int-digit limit; RecursionError, bodies
            # nested deeper than the decoder's stack.
            self._reply(400, {"error": f"malformed JSON body: {exc}"})
            return
        queries = payload.get("queries") if isinstance(payload, dict) else None
        if not isinstance(queries, list):
            self._reply(400, {"error": 'body must be {"queries": [...]}'})
            return
        self._answer(
            lambda: {"results": self.server.service.batch(queries)}
        )

    # -- plumbing ------------------------------------------------------------

    def _answer(self, produce) -> None:
        """Run *produce*, mapping QueryError → 400 and success → 200."""
        try:
            body = produce()
        except QueryError as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(200, body)

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self._send(status, "application/json", data)

    def _reply_text(self, status: int, text: str) -> None:
        self._send(status, "text/plain; version=0.0.4", text.encode("utf-8"))

    def _send(self, status: int, content_type: str, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Respect the server's ``quiet`` flag instead of spamming stderr."""
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)


class StatusHTTPServer(ManagedHTTPServer):
    """Control-plane server: fleet-wide ``/v1/status`` + ``/v1/metrics``.

    *status_provider* returns the JSON-able status dict;
    *metrics_provider* returns already-rendered Prometheus text.  Both
    are called per request — the fleet supervisor's providers do live
    seq-echoed round-trips to every worker, so a scrape here reflects
    the fleet *now*, not the monitor's last poll.
    """

    thread_prefix = "status-http"

    def __init__(self, address, status_provider, metrics_provider, quiet: bool = True):
        self.status_provider = status_provider
        self.metrics_provider = metrics_provider
        self.quiet = quiet
        self._serve_thread: threading.Thread | None = None
        super().__init__(address, StatusRequestHandler)


class StatusRequestHandler(BaseHTTPRequestHandler):
    """Two read-only control endpoints; anything else is a 404."""

    server: StatusHTTPServer

    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        """Serve ``/v1/status`` (JSON) and ``/v1/metrics`` (text)."""
        path = urlparse(self.path).path
        try:
            if path == "/v1/status":
                data = json.dumps(self.server.status_provider()).encode("utf-8")
                content_type = "application/json"
            elif path == "/v1/metrics":
                data = self.server.metrics_provider().encode("utf-8")
                content_type = "text/plain; version=0.0.4"
            else:
                data = json.dumps({"error": f"unknown path {path!r}"}).encode(
                    "utf-8"
                )
                self._send(404, "application/json", data)
                return
        except Exception as exc:  # supervisor races (stopping fleet, dead pipe)
            data = json.dumps({"error": str(exc)}).encode("utf-8")
            self._send(503, "application/json", data)
            return
        self._send(200, content_type, data)

    def _send(self, status: int, content_type: str, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)


def make_server(
    service: SiblingQueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
) -> SiblingHTTPServer:
    """Bind (but do not start) the HTTP server; ``port=0`` picks a free
    ephemeral port (``server.server_address`` tells which)."""
    return SiblingHTTPServer((host, port), service, quiet=quiet)


def serve_forever(service: SiblingQueryService, host: str, port: int) -> None:
    """Blocking convenience used by ``python -m repro serve``."""
    with make_server(service, host, port, quiet=False) as server:
        bound_host, bound_port = server.server_address[:2]
        print(f"serving sibling lookups on http://{bound_host}:{bound_port}/v1/")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
