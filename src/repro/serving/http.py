"""JSON-over-HTTP surface for the query service, on one asyncio loop.

Each server runs a stdlib :mod:`asyncio` loop in one daemon thread.
:class:`HTTPProtocol` parses request heads by hand, frames every
request on ``Content-Length`` whatever the method, answers ``Expect:
100-continue``, keeps connections alive and sends each response with
one ``transport.write`` on a ``TCP_NODELAY`` socket.  Broken framing
(truncated or oversized heads, a bad ``Content-Length``, any
``Transfer-Encoding``) gets a 4xx and a close; a connection past
:data:`MAX_CONNECTIONS` gets a 503 with ``Retry-After: 1``.

Endpoints (JSON unless noted; anything else is a 404):

* ``GET /v1/lookup?ip=<address-or-prefix>`` — point longest-prefix
  match; ``{"found": false}`` on a miss, 400 on a malformed query.
* ``POST /v1/batch`` — body ``{"queries": [...]}``; rows aligned with
  the input, malformed entries in-band.
* ``GET /v1/snapshot`` — generation metadata plus query/cache counters.
* ``GET /v1/status`` — worker pid, uptime, generation, service info.
* ``GET /v1/metrics`` — Prometheus text of the process registry.

Lookups and batches write the service's cached answer bytes.  Telemetry
renders from a registry snapshot, so no lock is held while a response
is written (``tests/test_serving_stress.py``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import sys
import threading
import time
from http import HTTPStatus
from urllib.parse import parse_qs

from repro.obs.metrics import render_prometheus
from repro.serving.service import QueryError, SiblingQueryService

#: Largest accepted request body, a denial-of-accident guard.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Largest accepted request line plus headers.
MAX_HEAD_BYTES = 64 * 1024

#: Open connections one server holds; a new connection past it is shed.
MAX_CONNECTIONS = 512

JSON = b"application/json"
TEXT = b"text/plain; version=0.0.4"

_STATUS_LINES = {s: b"HTTP/1.1 %d %s\r\n" % (s, s.phrase.encode()) for s in HTTPStatus}


def _error(message: str) -> bytes:
    return json.dumps({"error": message}).encode()


class HTTPError(Exception):
    """Lost framing: ``args`` are the (status, message) to answer, then close."""


class HTTPProtocol(asyncio.Protocol):
    """One connection: HTTP/1.1 framing around ``server.respond``.

    ``respond(method, target, body)`` returns ``(status, body,
    content_type)``; pipelined requests are answered in order.
    """

    def __init__(self, server: "SiblingHTTPServer"):
        self.server = server
        self.transport = None
        self.buffer = bytearray()
        self.continued = False  # "100 Continue" sent for the pending request

    def connection_made(self, transport) -> None:
        self.transport = transport
        if len(self.server.connections) >= MAX_CONNECTIONS:
            self.server.shed.inc()
            self._send(503, _error("too many open connections"), close=True,
                       extra=b"Retry-After: 1\r\n")
            return
        transport.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.connections.add(transport)

    def connection_lost(self, exc) -> None:
        self.server.connections.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._drain()

    def eof_received(self) -> bool:
        """The client stopped sending: reject any partial request."""
        if self.buffer and not self.transport.is_closing():
            part = "body" if b"\r\n\r\n" in self.buffer else "head"
            self._send(400, _error(f"truncated request {part}"), close=True)
        return False

    def _drain(self) -> None:
        """Answer every complete request in the buffer, in order."""
        while self.buffer and not self.transport.is_closing():
            try:
                request = self._next_request()
            except HTTPError as exc:
                status, message = exc.args
                self._send(status, _error(message), close=True)
                return
            if request is None:
                return
            method, target, body, close = request
            self._send(*self.server.respond(method, target, body), close=close)

    def _next_request(self):
        """Pop ``(method, target, body, close)`` off the buffer, or
        return ``None`` until the whole request has arrived."""
        buffer = self.buffer
        end = buffer.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES + 4)
        if end < 0:
            if len(buffer) >= MAX_HEAD_BYTES + 4:
                raise HTTPError(431, "request head too large")
            return None
        request_line, *lines = buffer[:end].decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HTTPError(400, f"malformed request line {request_line[:80]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in lines:
            name, colon, value = line.partition(":")
            if not colon or not name or name != name.strip():
                raise HTTPError(400, f"malformed header line {line[:80]!r}")
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise HTTPError(400, "conflicting Content-Length headers")
            headers[name] = value
        if "transfer-encoding" in headers:
            raise HTTPError(411, "Transfer-Encoding unsupported; send Content-Length")
        length = headers.get("content-length", "" if method == "POST" else "0")
        if not length:
            raise HTTPError(400, "Content-Length required")
        if not (length.isascii() and length.isdigit()):
            raise HTTPError(400, f"bad Content-Length {length[:20]!r}")
        if len(length) > 9 or int(length) > MAX_BODY_BYTES:
            raise HTTPError(400, f"body too large (> {MAX_BODY_BYTES} bytes)")
        start, stop = end + 4, end + 4 + int(length)
        if len(buffer) < stop:
            if (not self.continued and version != "HTTP/1.0"
                    and headers.get("expect", "").lower() == "100-continue"):
                self.continued = True
                self.transport.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            return None
        body = bytes(buffer[start:stop])
        del buffer[:stop]
        self.continued = False
        connection = headers.get("connection", "").lower()
        return method, target, body, version == "HTTP/1.0" or connection == "close"

    def _send(self, status: int, body: bytes, content_type: bytes = JSON,
              close: bool = False, extra: bytes = b"") -> None:
        """Write one whole response, then close if asked to."""
        self.transport.write(b"".join((
            _STATUS_LINES[status],
            b"Content-Type: %s\r\nContent-Length: %d\r\n" % (content_type, len(body)),
            extra,
            b"Connection: close\r\n\r\n" if close else b"\r\n",
            body,
        )))
        if close:
            self.transport.close()
        if status >= 400 and not self.server.quiet:
            peer = self.transport.get_extra_info("peername") or ("-",)
            print(f"{peer[0]} {status} {body[:200].decode()}", file=sys.stderr)


class SiblingHTTPServer:
    """A bound listening socket serving one query service from one
    asyncio loop thread.

    The constructor binds (``port=0`` picks a free port;
    ``server_address`` tells which).  :meth:`start` runs the loop in a
    daemon thread and returns ``self``; :meth:`close` stops the loop,
    joins the thread and releases the socket.  Used as a context
    manager the server closes on exit.
    """

    def __init__(self, address, service: SiblingQueryService, quiet: bool = True):
        self.service = service
        #: ``False`` logs every 4xx/5xx answer to stderr.
        self.quiet = quiet
        self.started_at = time.monotonic()
        #: name → zero-arg callable; each is invoked per ``/v1/status``
        #: request and its JSON-able result merged in as a top-level key
        #: (the seam ``repro watch`` uses to surface its loop state).
        self.status_extras: dict = {}
        self.socket = socket.create_server(address)
        self.server_address = self.socket.getsockname()
        #: Transports of the open (not shed) connections.
        self.connections: set = set()
        self.shed = service.registry.counter("serve.shed_connections")
        self._stopped: asyncio.Future | None = None
        self._serve_thread: threading.Thread | None = None

    def start(self) -> "SiblingHTTPServer":
        """Serve in a background thread; returns ``self`` for chaining."""
        if self._serve_thread is not None and self._serve_thread.is_alive():
            raise RuntimeError("server already started")
        loop = asyncio.new_event_loop()
        self._stopped = loop.create_future()
        # Daemon: an embedder that exits without close() must not hang
        # the interpreter on a live accept loop.
        name = f"sibling-http-{self.server_address[1]}"
        self._serve_thread = threading.Thread(
            target=self._run, args=(loop,), name=name, daemon=True
        )
        self._serve_thread.start()
        return self

    def _run(self, loop: asyncio.AbstractEventLoop) -> None:
        try:
            server = loop.run_until_complete(
                loop.create_server(lambda: HTTPProtocol(self), sock=self.socket))
            loop.run_until_complete(self._stopped)
            server.close()
            for transport in list(self.connections):
                transport.abort()
            loop.run_until_complete(asyncio.sleep(0))  # deliver connection_lost
        finally:
            loop.close()

    def close(self) -> None:
        """Stop serving (if started), join the thread, release the socket.

        Idempotent; safe on a server that was bound but never started.
        A serve thread that fails to stop within the join timeout
        raises :class:`RuntimeError` rather than being silently leaked;
        its loop releases the socket once it does stop.
        """
        thread, self._serve_thread = self._serve_thread, None
        if thread is not None and thread.is_alive():
            stopped = self._stopped
            with contextlib.suppress(RuntimeError):  # its loop already closed
                stopped.get_loop().call_soon_threadsafe(stopped.set_result, None)
            thread.join(timeout=10)
            if thread.is_alive():
                raise RuntimeError(
                    f"serve thread {thread.name!r} did not stop within 10s"
                )
        self.socket.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def respond(self, method: str, target: str, body: bytes) -> tuple:
        """Route one request; QueryError → 400, unknown routes → 404."""
        path, _, query = target.partition("?")
        service = self.service
        try:
            if method == "GET" and path == "/v1/lookup":
                ips = parse_qs(query).get("ip", [])
                if len(ips) != 1:
                    raise QueryError("exactly one ip= parameter required")
                return 200, service.lookup_json(ips[0]), JSON
            if method == "POST" and path == "/v1/batch":
                return 200, service.batch_json(_batch_queries(body)), JSON
            if method == "GET" and path == "/v1/snapshot":
                return 200, json.dumps(service.snapshot_info()).encode(), JSON
            if method == "GET" and path == "/v1/status":
                return 200, json.dumps(self._status_payload()).encode(), JSON
            if method == "GET" and path == "/v1/metrics":
                service.observe_gauges()
                text = render_prometheus(service.registry.snapshot())
                return 200, text.encode(), TEXT
        except QueryError as exc:
            return 400, _error(str(exc)), JSON
        return 404, _error(f"unknown path {path!r}"), JSON

    def _status_payload(self) -> dict:
        """The ``/v1/status`` view: this process, its service, extras."""
        service = self.service
        uptime = time.monotonic() - self.started_at
        worker = {"pid": os.getpid(), "uptime_seconds": uptime,
                  "generation": service.generation}
        payload = {"worker": worker, "service": service.snapshot_info()}
        for name, provider in self.status_extras.items():
            payload[name] = provider()
        return payload


def _batch_queries(body: bytes) -> list:
    """The ``queries`` list of a ``/v1/batch`` body."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bad UTF-8 and integer
        # literals over the int-digit limit; RecursionError, bodies
        # nested deeper than the decoder's stack.
        raise QueryError(f"malformed JSON body: {exc}") from None
    queries = payload.get("queries") if isinstance(payload, dict) else None
    if not isinstance(queries, list):
        raise QueryError('body must be {"queries": [...]}')
    return queries


def make_server(service: SiblingQueryService, host: str = "127.0.0.1",
                port: int = 8080, quiet: bool = True) -> SiblingHTTPServer:
    """Bind (but do not start) the HTTP server; ``port=0`` picks a free
    ephemeral port (``server.server_address`` tells which)."""
    return SiblingHTTPServer((host, port), service, quiet=quiet)


def serve_forever(service: SiblingQueryService, host: str, port: int) -> None:
    """Blocking convenience used by ``python -m repro serve``."""
    with make_server(service, host, port, quiet=False) as server:
        bound_host, bound_port = server.server_address[:2]
        print(f"serving sibling lookups on http://{bound_host}:{bound_port}/v1/")
        try:
            server.start()._serve_thread.join()
        except KeyboardInterrupt:
            print("\nshutting down")
