"""Open-loop HTTP/1.1 load from one client thread over keep-alive sockets.

The schedule is generated up front from a seed: Poisson arrivals at a
given rate (``rate=None`` makes every request due at once — the
back-to-back leg), a point/batch/snapshot mix, and Zipf(1.1) popularity
over a target list.  Requests are pre-encoded to bytes; one thread
drives all connections through a selector, so the client spends as
little CPU as possible next to the server on the same host.  Each
connection carries one request at a time; a due request waits for the
next idle connection.  Latency runs from the request's *due* time, so
queueing behind a stalled server is charged to the server, and the
lateness of each send (send time minus due time) is kept as the
generator's own validity check.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from urllib.parse import quote

#: Request-kind shares of the mixed traffic.
MIX = (("point", 0.80), ("batch", 0.15), ("snapshot", 0.05))
BATCH_SIZE = 16
ZIPF_S = 1.1
#: A leg still running after this long counts its unanswered requests failed.
LEG_TIMEOUT = 60.0


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the leg starts
    kind: str
    queries: tuple[str, ...]
    wire: bytes


def encode(kind: str, queries: tuple[str, ...]) -> bytes:
    """The exact request bytes a keep-alive client sends."""
    if kind == "point":
        return (
            f"GET /v1/lookup?ip={quote(queries[0])} HTTP/1.1\r\n"
            "Host: bench\r\n\r\n"
        ).encode("ascii")
    if kind == "batch":
        body = json.dumps({"queries": list(queries)}).encode("utf-8")
        return (
            "POST /v1/batch HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
    return b"GET /v1/snapshot HTTP/1.1\r\nHost: bench\r\n\r\n"


def schedule(
    targets: list[str], count: int, rate: "float | None", seed: int
) -> list[Request]:
    """*count* seeded requests; ``rate=None`` makes all due at t=0."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(targets))]
    total = sum(weights)
    cumulative, running = [], 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)

    def pick() -> str:
        return targets[min(bisect_right(cumulative, rng.random()), len(targets) - 1)]

    requests, clock = [], 0.0
    for _ in range(count):
        if rate is not None:
            clock += rng.expovariate(rate)
        roll = rng.random()
        if roll < MIX[0][1]:
            kind, queries = "point", (pick(),)
        elif roll < MIX[0][1] + MIX[1][1]:
            kind, queries = "batch", tuple(pick() for _ in range(BATCH_SIZE))
        else:
            kind, queries = "snapshot", ()
        requests.append(Request(clock, kind, queries, encode(kind, queries)))
    return requests


@dataclass
class LegResult:
    """Outcome of one leg: per-request latency, lateness and status."""

    elapsed: float = 0.0
    latency: dict[int, float] = field(default_factory=dict)  # slot -> s, ok only
    late: list[float] = field(default_factory=list)  # seconds, every send
    statuses: dict[str, int] = field(default_factory=dict)
    bodies: dict[int, bytes] = field(default_factory=dict)  # sampled, by index

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values())

    @property
    def ok(self) -> int:
        return self.statuses.get("200", 0)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


class _Connection:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = b""
        self.slot: "int | None" = None  # schedule index in flight

    def response(self) -> "tuple[int, bytes] | None":
        """A complete buffered response (status, body), if any."""
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body = self.buffer[head_end + 4:end]
        self.buffer = self.buffer[end:]
        return int(head[0].split()[1]), body


def run_leg(
    address, requests: list[Request], connections: int, sample_every: int = 0
) -> LegResult:
    """Replay *requests* open loop; returns the leg's records.

    Every ``sample_every``-th response body is kept for the caller's
    answer check (0 keeps none).  A connection error fails the request
    in flight and the connection is re-opened for the next one.
    """
    result = LegResult()
    selector = selectors.DefaultSelector()
    pool = [_Connection(address) for _ in range(connections)]
    idle = list(pool)
    for connection in pool:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    following = 0
    in_flight = 0
    epoch = time.perf_counter()
    deadline = epoch + LEG_TIMEOUT

    def finish(connection, status: str, body: "bytes | None") -> None:
        nonlocal in_flight
        slot = connection.slot
        connection.slot = None
        in_flight -= 1
        idle.append(connection)
        result.statuses[status] = result.statuses.get(status, 0) + 1
        if status == "200":
            result.latency[slot] = time.perf_counter() - epoch - requests[slot].due
            if sample_every and slot % sample_every == 0:
                result.bodies[slot] = body

    def reopen(connection) -> None:
        selector.unregister(connection.sock)
        connection.sock.close()
        fresh = _Connection(address)
        connection.sock, connection.buffer = fresh.sock, b""
        selector.register(connection.sock, selectors.EVENT_READ, connection)

    try:
        while following < len(requests) or in_flight:
            now = time.perf_counter()
            if now > deadline:
                break
            while idle and following < len(requests):
                request = requests[following]
                if epoch + request.due > now:
                    break
                connection = idle.pop()
                connection.slot = following
                result.late.append(now - epoch - request.due)
                try:
                    connection.sock.sendall(request.wire)
                except OSError:
                    in_flight += 1
                    finish(connection, "transport", None)
                    reopen(connection)
                else:
                    in_flight += 1
                following += 1
            if following < len(requests) and idle:
                wait = max(0.0, epoch + requests[following].due - time.perf_counter())
            else:
                wait = 0.5  # only a response can make progress
            for key, _ in selector.select(timeout=wait):
                connection = key.data
                try:
                    chunk = connection.sock.recv(262144)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    if connection.slot is not None:
                        finish(connection, "transport", None)
                    reopen(connection)
                    continue
                connection.buffer += chunk
                answer = connection.response()
                if answer is not None and connection.slot is not None:
                    finish(connection, str(answer[0]), answer[1])
    finally:
        result.elapsed = time.perf_counter() - epoch
        # Requests never sent or never answered before the deadline fail.
        unanswered = len(requests) - result.attempted
        if unanswered > 0:
            result.statuses["timeout"] = unanswered
        for connection in pool:
            selector.unregister(connection.sock)
            connection.sock.close()
        selector.close()
    return result


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)
