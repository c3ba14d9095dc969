"""The hand-written HTTP/1.1 framing of ``serving/http.py``.

Most tests feed :class:`HTTPProtocol` bytes directly through a fake
transport, with no socket and no event loop: the handlers are
synchronous, so every response is written before ``data_received``
returns.  The properties check that framing does not depend on how
the stream is chunked, that malformed input is rejected with a 4xx
and a close rather than a hang or an exception, and that the cached
batch bytes equal ``json.dumps`` of the decoded rows.  The socket
tests pin the regressions and the behaviours ``BaseHTTPRequestHandler``
used to provide: ``Expect: 100-continue``, ``Connection: close``,
HTTP/1.0, percent-encoded queries, keep-alive latency, and load
shedding.
"""

import datetime
import json
import socket
import statistics
import time
from http.client import HTTPConnection
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nettypes.prefix import Prefix
from repro.obs.metrics import MetricsRegistry
from repro.publish import PublishedPair
from repro.serving import http
from repro.serving.http import HTTPProtocol, make_server
from repro.serving.index import SiblingLookupIndex
from repro.serving.service import QueryError, SiblingQueryService

SNAPSHOT = datetime.date(2024, 9, 11)
PAIRS = [
    PublishedPair(Prefix.parse(v4), Prefix.parse(v6), jaccard, 3, 4, 5, True, None)
    for v4, v6, jaccard in (
        ("192.0.2.0/24", "2001:db8::/32", 1.0),
        ("198.51.100.0/24", "2001:db8:1::/48", 0.75),
        ("198.51.100.128/25", "2001:db8:2::/48", 0.5),
    )
]
HITS = ["192.0.2.9", "198.51.100.200", "2001:db8::1", "2001:db8:2::7"]
MISSES = ["203.0.113.5", "2001:db9::1"]
BAD = ["not-an-ip", "", "1.2.3.4/99"]


def _service() -> SiblingQueryService:
    index = SiblingLookupIndex.from_pairs(PAIRS, SNAPSHOT)
    return SiblingQueryService(index, registry=MetricsRegistry())


@pytest.fixture(scope="module")
def server():
    """A bound, never started server: only its ``respond`` is used."""
    with make_server(_service(), port=0) as bound:
        yield bound


class FakeSocket:
    def setsockopt(self, *option):
        pass


class FakeTransport:
    """Records writes and closes; its socket takes any option."""

    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def write(self, data):
        assert not self.closed, "write after close"
        self.written += data

    def close(self):
        self.closed = True

    abort = close

    def is_closing(self):
        return self.closed

    def get_extra_info(self, name, default=None):
        return FakeSocket() if name == "socket" else default


def _connect(server):
    transport = FakeTransport()
    protocol = HTTPProtocol(server)
    protocol.connection_made(transport)
    return protocol, transport


def _feed(server, chunks, eof=False):
    protocol, transport = _connect(server)
    for chunk in chunks:
        if transport.closed:
            break
        protocol.data_received(chunk)
    if eof and not transport.closed:
        if not protocol.eof_received():
            transport.close()
    protocol.connection_lost(None)
    return transport


def parse_responses(data: bytes) -> list:
    """``(status, headers, body)`` per response in *data*, in order."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head {data[:80]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        assert len(rest) >= length, "short response body"
        responses.append((int(status_line.split(" ")[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


def _get(target, headers=""):
    return f"GET {target} HTTP/1.1\r\nHost: t\r\n{headers}\r\n".encode()


def _post(target, body: bytes, headers=""):
    return (
        f"POST {target} HTTP/1.1\r\nHost: t\r\n{headers}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


# Requests whose answers do not depend on time or counters.
REQUESTS = st.one_of(
    st.sampled_from(HITS + MISSES + BAD).map(lambda ip: _get(f"/v1/lookup?ip={ip}")),
    st.lists(st.sampled_from(HITS + MISSES + BAD), max_size=5).map(
        lambda queries: _post("/v1/batch", json.dumps({"queries": queries}).encode())
    ),
    st.just(_post("/v1/batch", b"{not json")),
    st.just(_get("/v2/nothing")),
    st.just(_get("/v1/lookup?ip=1.2.3.4", "Content-Length: 3\r\n") + b"abc"),
)


@given(
    requests=st.lists(REQUESTS, min_size=1, max_size=6),
    cuts=st.lists(st.integers(min_value=0, max_value=4000), max_size=12),
)
def test_chunking_never_changes_the_responses(server, requests, cuts):
    stream = b"".join(requests)
    whole = _feed(server, [stream])
    bounds = [0, *sorted({cut % (len(stream) + 1) for cut in cuts}), len(stream)]
    chunked = _feed(server, [stream[a:b] for a, b in zip(bounds, bounds[1:])])
    assert chunked.written == whole.written
    responses = parse_responses(bytes(whole.written))
    assert len(responses) == len(requests)
    assert not whole.closed


@given(garbage=st.binary(max_size=300), prefix=st.sampled_from([b"", b"GET / HTTP/1.1\r\n"]))
def test_arbitrary_bytes_never_raise_or_hang(server, garbage, prefix):
    transport = _feed(server, [prefix + garbage], eof=True)
    assert transport.closed
    for status, _, _ in parse_responses(bytes(transport.written)):
        assert status in (200, 400, 404, 411, 431)


@given(request=st.lists(REQUESTS, min_size=1, max_size=1), data=st.data())
def test_truncated_requests_are_rejected_at_eof(server, request, data):
    stream = request[0]
    cut = data.draw(st.integers(min_value=1, max_value=len(stream) - 1))
    transport = _feed(server, [stream[:cut]], eof=True)
    assert transport.closed
    [(status, headers, body)] = parse_responses(bytes(transport.written))
    assert status == 400 and headers["connection"] == "close"
    assert json.loads(body)["error"].startswith("truncated request")


def _not_a_length(text: str) -> bool:
    value = text.strip()
    return "\r" not in text and "\n" not in text and not (
        value.isascii() and value.isdigit()
    )


BAD_LENGTHS = st.one_of(
    st.integers(max_value=-1).map(str),
    st.text(min_size=1, max_size=12).filter(_not_a_length),
    st.integers(min_value=http.MAX_BODY_BYTES + 1).map(str),
    st.just("9" * 5000),
)


@given(length=BAD_LENGTHS, method=st.sampled_from(["GET", "POST"]))
def test_bad_content_length_is_400_and_close(server, length, method):
    head = f"{method} /v1/batch HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    transport = _feed(server, [head.encode("utf-8") + b'{"queries": []}'])
    assert transport.closed
    [(status, headers, _)] = parse_responses(bytes(transport.written))
    assert status == 400 and headers["connection"] == "close"


def test_missing_content_length_on_post_is_400_and_close(server):
    transport = _feed(server, [b"POST /v1/batch HTTP/1.1\r\n\r\n"])
    [(status, _, body)] = parse_responses(bytes(transport.written))
    assert status == 400 and transport.closed
    assert json.loads(body)["error"] == "Content-Length required"


@given(size=st.integers(min_value=0, max_value=3000))
def test_oversized_head_is_431_and_close(server, size):
    with mock.patch.object(http, "MAX_HEAD_BYTES", 1024):
        head = _get("/v1/lookup?ip=192.0.2.9", f"X-Pad: {'p' * size}\r\n")
        transport = _feed(server, [head])
    [(status, headers, _)] = parse_responses(bytes(transport.written))
    if len(head) <= 1024 + 4:
        assert status == 200 and not transport.closed
    else:
        assert status == 431 and headers["connection"] == "close"
        assert transport.closed


def test_transfer_encoding_is_411_and_close(server):
    request = (
        b"POST /v1/batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n"
    )
    transport = _feed(server, [request])
    [(status, headers, _)] = parse_responses(bytes(transport.written))
    assert status == 411 and headers["connection"] == "close"
    assert transport.closed


QUERY_ENTRIES = st.one_of(
    st.sampled_from(HITS + MISSES + BAD),
    st.text(max_size=20),
)


@given(queries=st.lists(QUERY_ENTRIES, max_size=8))
def test_batch_json_equals_json_dumps_of_rows(server, queries):
    service = server.service
    encoded = service.batch_json(queries)
    assert encoded == json.dumps({"results": service.batch(queries)}).encode()
    rows = json.loads(encoded)["results"]
    for query, row in zip(queries, rows):
        if "error" not in row:
            assert row == service.lookup(query)


@given(
    queries=st.lists(QUERY_ENTRIES, max_size=4),
    intruder=st.one_of(st.integers(), st.none(), st.lists(st.text(), max_size=2)),
    position=st.integers(min_value=0, max_value=4),
)
def test_batch_json_rejects_non_string_entries(server, queries, intruder, position):
    queries.insert(position, intruder)
    with pytest.raises(QueryError):
        server.service.batch_json(queries)
    with pytest.raises(QueryError):
        server.service.batch(queries)


def test_expect_100_continue(server):
    body = json.dumps({"queries": HITS * 40}).encode()  # over 1 KiB
    protocol, transport = _connect(server)
    protocol.data_received(
        b"POST /v1/batch HTTP/1.1\r\nExpect: 100-continue\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    )
    assert bytes(transport.written) == b"HTTP/1.1 100 Continue\r\n\r\n"
    protocol.data_received(body[:100])
    protocol.data_received(body[100:])
    final = bytes(transport.written).removeprefix(b"HTTP/1.1 100 Continue\r\n\r\n")
    [(status, _, answer)] = parse_responses(final)
    assert status == 200 and len(json.loads(answer)["results"]) == len(HITS) * 40


def test_connection_close_and_http10_close_after_response(server):
    for request in (
        _get("/v1/lookup?ip=192.0.2.9", "Connection: close\r\n"),
        b"GET /v1/lookup?ip=192.0.2.9 HTTP/1.0\r\n\r\n",
    ):
        transport = _feed(server, [request + _get("/v1/lookup?ip=192.0.2.9")])
        [(status, headers, _)] = parse_responses(bytes(transport.written))
        assert status == 200 and headers["connection"] == "close"
        assert transport.closed


def test_percent_encoded_ipv6_query(server):
    transport = _feed(server, [_get("/v1/lookup?ip=2001%3Adb8%3A%3A1")])
    [(status, _, body)] = parse_responses(bytes(transport.written))
    answer = json.loads(body)
    assert status == 200 and answer["found"] is True
    assert answer["query"] == "2001:db8::1"
    assert answer["matched_prefix"] == "2001:db8::/32"


# -- over real sockets ------------------------------------------------------


def _read_until_closed(sock) -> bytes:
    sock.settimeout(5)
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def test_get_with_body_keeps_pipelined_framing():
    """A GET carrying a body, then a pipelined GET: two responses."""
    with make_server(_service(), port=0) as server:
        server.start()
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(
                b"GET /v1/snapshot HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n\r\n"
                b"xxxxxxxx"
                + _get("/v1/lookup?ip=192.0.2.9", "Connection: close\r\n")
            )
            responses = parse_responses(_read_until_closed(sock))
    assert [status for status, _, _ in responses] == [200, 200]
    assert json.loads(responses[1][2])["found"] is True


def test_keepalive_requests_do_not_stall():
    """Ten keep-alive ``/v1/status`` requests: no Nagle/delayed-ACK wait."""
    with make_server(_service(), port=0) as server:
        server.start()
        connection = HTTPConnection(*server.server_address, timeout=5)
        try:
            durations = []
            for _ in range(10):
                began = time.perf_counter()
                connection.request("GET", "/v1/status")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["worker"]["pid"] > 0
                durations.append(time.perf_counter() - began)
        finally:
            connection.close()
    assert statistics.median(durations) < 0.010, durations


def test_connections_over_the_cap_are_shed(monkeypatch):
    monkeypatch.setattr(http, "MAX_CONNECTIONS", 2)
    service = _service()
    with make_server(service, port=0) as server:
        server.start()
        held = [HTTPConnection(*server.server_address, timeout=5) for _ in range(2)]
        try:
            for connection in held:
                connection.request("GET", "/v1/lookup?ip=192.0.2.9")
                assert connection.getresponse().read()
            # Shed at accept: the answer comes before any request.
            with socket.create_connection(server.server_address, timeout=5) as sock:
                [(status, headers, body)] = parse_responses(_read_until_closed(sock))
            assert status == 503 and headers["retry-after"] == "1"
            assert headers["connection"] == "close" and b"error" in body
            # The held connections still serve.
            held[0].request("GET", "/v1/lookup?ip=192.0.2.9")
            assert held[0].getresponse().status == 200
        finally:
            for connection in held:
                connection.close()
    assert service.registry.counter("serve.shed_connections").value == 1
