"""Serving subsystem: compiled index vs oracles, cache, service.

The LPM contract is enforced three ways on randomized scenarios: the
compiled :class:`SiblingLookupIndex` must agree bit-for-bit with the
:class:`PatriciaTrie` reference oracle *and* with the brute-force
:func:`scan_lookup` baseline, for both families, nested prefixes, and
misses.
"""

import datetime
import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from repro.nettypes.prefix import Prefix, PrefixError
from repro.nettypes.trie import PatriciaTrie
from repro.publish import PublishedPair
from repro.serving.cache import LruCache
from repro.serving.http import make_server
from repro.serving.index import (
    LookupResult,
    SiblingLookupIndex,
    parse_query,
    scan_lookup,
)
from repro.serving.service import MAX_BATCH, QueryError, SiblingQueryService

SNAPSHOT = datetime.date(2024, 9, 11)

ROV_STATUSES = (None, "both valid", "valid + not found", "both invalid")


def random_prefix(rng: random.Random, version: int) -> Prefix:
    """A random prefix with realistic length mix (incl. >/64 IPv6)."""
    if version == 4:
        length = rng.choice((8, 12, 16, 20, 22, 24, 24, 25, 28, 32))
    else:
        length = rng.choice((20, 29, 32, 32, 40, 44, 48, 48, 56, 64, 80, 128))
    bits = 32 if version == 4 else 128
    value = rng.getrandbits(length) << (bits - length) if length else 0
    return Prefix(version, value, length)


def random_scenario(seed: int, n_pairs: int = 120):
    """A randomized published list with nesting and shared prefixes."""
    rng = random.Random(seed)
    v4_pool = [random_prefix(rng, 4) for _ in range(n_pairs // 2)]
    v6_pool = [random_prefix(rng, 6) for _ in range(n_pairs // 2)]
    # Force nesting: add subnets of existing pool members.
    for pool, version in ((v4_pool, 4), (v6_pool, 6)):
        for _ in range(n_pairs // 4):
            parent = rng.choice(pool)
            if parent.length < parent.bits - 2:
                pool.append(
                    next(iter(parent.subnets(parent.length + rng.randint(1, 2))))
                )
    pairs = []
    for _ in range(n_pairs):
        pairs.append(
            PublishedPair(
                v4_prefix=rng.choice(v4_pool),
                v6_prefix=rng.choice(v6_pool),
                jaccard=rng.random(),
                shared_domains=rng.randint(1, 50),
                v4_domains=rng.randint(1, 60),
                v6_domains=rng.randint(1, 60),
                same_org=rng.choice((None, True, False)),
                rov_status=rng.choice(ROV_STATUSES),
            )
        )
    return rng, pairs


def trie_oracles(index: SiblingLookupIndex):
    """Per-family PatriciaTrie mapping prefix → pair positions."""
    by_prefix: dict[Prefix, list[int]] = {}
    for position, pair in enumerate(index.pairs):
        for prefix in (pair.v4_prefix, pair.v6_prefix):
            by_prefix.setdefault(prefix, []).append(position)
    return {
        version: PatriciaTrie.from_items(
            version,
            (
                (prefix, tuple(positions))
                for prefix, positions in by_prefix.items()
                if prefix.version == version
            ),
        )
        for version in (4, 6)
    }


def random_queries(rng: random.Random, index: SiblingLookupIndex, count: int):
    """Hit-biased random queries: addresses and prefixes, both families."""
    stored = [
        prefix
        for pair in index.pairs
        for prefix in (pair.v4_prefix, pair.v6_prefix)
    ]
    queries = []
    for _ in range(count):
        version = rng.choice((4, 6))
        if rng.random() < 0.6:
            # Somewhere inside a stored prefix (a hit, possibly nested).
            base = rng.choice([p for p in stored if p.version == version])
            value = base.value | rng.getrandbits(base.host_bits)
        else:
            value = rng.getrandbits(32 if version == 4 else 128)
        if rng.random() < 0.3:
            length = rng.randint(0, 32 if version == 4 else 128)
            queries.append(Prefix.from_address(version, value, length))
        else:
            queries.append(Prefix.host(version, value))
    return queries


class TestIndexVsOracles:
    @pytest.mark.parametrize("seed", (1, 2, 3, 20250728))
    def test_lpm_matches_trie_and_scan(self, seed):
        rng, pairs = random_scenario(seed)
        index = SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
        tries = trie_oracles(index)
        hits = misses = 0
        for query in random_queries(rng, index, 300):
            got = index.lookup(query)
            expected = tries[query.version].lookup(query)
            brute = scan_lookup(index.pairs, query)
            if expected is None:
                assert got is None and brute is None
                misses += 1
                continue
            hits += 1
            oracle_prefix, oracle_positions = expected
            assert got.matched == oracle_prefix == brute.matched
            assert got.pairs == tuple(
                index.pairs[position] for position in oracle_positions
            )
            assert set(got.pairs) == set(brute.pairs)
            # Bit-identical similarity values out of all three paths.
            assert [p.jaccard for p in got.pairs] == [
                index.pairs[i].jaccard for i in oracle_positions
            ]
        assert hits > 20 and misses > 5, "scenario must exercise both outcomes"

    @pytest.mark.parametrize("seed", (7, 11))
    def test_covering_matches_trie(self, seed):
        rng, pairs = random_scenario(seed)
        index = SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
        tries = trie_oracles(index)
        for query in random_queries(rng, index, 150):
            got = index.covering(query)
            expected = tries[query.version].covering(query)
            assert [r.matched for r in got] == [prefix for prefix, _ in expected]
            for result, (_, positions) in zip(got, expected):
                assert result.pairs == tuple(
                    index.pairs[position] for position in positions
                )

    def test_shared_prefix_returns_all_pairs_in_table_order(self):
        v4 = Prefix.parse("198.51.100.0/24")
        pairs = [
            PublishedPair(v4, Prefix.parse("2001:db8:2::/48"), 0.5, 1, 2, 2, None, None),
            PublishedPair(v4, Prefix.parse("2001:db8:1::/48"), 0.5, 1, 2, 2, None, None),
        ]
        index = SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
        result = index.lookup("198.51.100.9")
        assert [str(p.v6_prefix) for p in result.pairs] == [
            "2001:db8:1::/48",
            "2001:db8:2::/48",
        ]

    def test_prefix_query_never_matches_longer_prefix(self):
        pairs = [
            PublishedPair(
                Prefix.parse("192.0.2.0/28"),
                Prefix.parse("2001:db8::/48"),
                1.0, 1, 1, 1, None, None,
            )
        ]
        index = SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
        assert index.lookup("192.0.2.0/24") is None       # /24 ⊅ covered by /28
        assert index.lookup("192.0.2.0/28") is not None   # exact
        assert index.lookup("192.0.2.5") is not None      # address inside

    def test_batch_alignment_and_malformed_entries(self):
        _, pairs = random_scenario(5, n_pairs=40)
        index = SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
        target = pairs[0].v4_prefix
        results = index.batch([str(target), "not-an-ip", "203.0.113.9"])
        assert isinstance(results[0], LookupResult)
        assert results[1] is None
        assert len(results) == 3

    def test_from_siblings(self, tiny_detection):
        siblings, _ = tiny_detection
        index = SiblingLookupIndex.from_siblings(siblings)
        assert len(index) == len(siblings)
        assert index.snapshot == siblings.date
        some = next(iter(siblings))
        result = index.lookup(some.v4_prefix)
        assert result is not None
        assert any(p.v6_prefix == some.v6_prefix for p in result.pairs)
        assert {p.jaccard for p in index} == {
            p.similarity for p in siblings
        }

    def test_parse_query_errors(self):
        with pytest.raises(PrefixError):
            parse_query("not-an-ip")
        with pytest.raises(PrefixError):
            parse_query("192.0.2.0/99")
        assert parse_query(" 192.0.2.1 ").value == Prefix.parse("192.0.2.1").value

    def test_stats_shape(self):
        _, pairs = random_scenario(9, n_pairs=30)
        index = SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
        stats = index.stats()
        assert stats["pairs"] == len(index)
        assert stats["snapshot"] == SNAPSHOT.isoformat()
        assert stats["v4_prefixes"] == index.prefix_count(4)
        assert stats["v4_lengths"] == sorted(stats["v4_lengths"], reverse=True)


class TestLruCache:
    def test_eviction_order(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_disabled_cache(self):
        cache = LruCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_stats_and_clear(self):
        cache = LruCache(maxsize=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1  # counters survive clear

    def test_rejects_negative_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=-1)


class TestService:
    @pytest.fixture()
    def indexes(self):
        _, pairs_a = random_scenario(101, n_pairs=40)
        _, pairs_b = random_scenario(202, n_pairs=40)
        return (
            SiblingLookupIndex.from_pairs(pairs_a, SNAPSHOT),
            SiblingLookupIndex.from_pairs(
                pairs_b, SNAPSHOT + datetime.timedelta(days=1)
            ),
        )

    def test_lookup_shape_and_cache_hits(self, indexes):
        index, _ = indexes
        service = SiblingQueryService(index)
        query = str(index.pairs[0].v4_prefix)
        first = service.lookup(query)
        again = service.lookup(query)
        assert first == again
        assert first["found"] and first["snapshot"] == SNAPSHOT.isoformat()
        assert service.snapshot_info()["cache"]["hits"] == 1
        assert service.snapshot_info()["queries"] == 2

    def test_empty_service_raises(self):
        service = SiblingQueryService()
        with pytest.raises(QueryError, match="no index"):
            service.lookup("192.0.2.1")
        with pytest.raises(QueryError):
            service.batch(["192.0.2.1"])
        assert service.snapshot_info()["index"] is None

    def test_malformed_query_raises(self, indexes):
        service = SiblingQueryService(indexes[0])
        with pytest.raises(QueryError):
            service.lookup("not-an-ip")

    def test_hot_swap_interleaved(self, indexes):
        index_a, index_b = indexes
        service = SiblingQueryService(index_a)
        # Pick a query whose answer differs across generations.
        query = str(index_a.pairs[0].v4_prefix)
        answer_a = service.lookup(query)
        assert answer_a["snapshot"] == index_a.snapshot.isoformat()
        previous = service.swap(index_b)
        assert previous is index_a
        assert service.generation == 2
        answer_b = service.lookup(query)
        assert answer_b["snapshot"] == index_b.snapshot.isoformat()
        # The cached generation-1 answer must not leak into generation 2.
        assert answer_b == service.lookup(query)
        expected = index_b.lookup(query)
        assert answer_b["found"] == (expected is not None)
        # Swap back: answers revert, cache cannot serve generation 2.
        service.swap(index_a)
        assert service.lookup(query) == answer_a
        assert service.snapshot_info()["swaps"] == 2
        assert service.snapshot_info()["generation"] == 3

    def test_swap_clears_cache(self, indexes):
        index_a, index_b = indexes
        service = SiblingQueryService(index_a)
        service.lookup(str(index_a.pairs[0].v4_prefix))
        assert service.snapshot_info()["cache"]["size"] == 1
        service.swap(index_b)
        assert service.snapshot_info()["cache"]["size"] == 0

    def test_batch_in_band_errors(self, indexes):
        service = SiblingQueryService(indexes[0])
        results = service.batch(["not-an-ip", str(indexes[0].pairs[0].v4_prefix)])
        assert results[0]["found"] is False and "error" in results[0]
        assert results[1]["found"] is True
        with pytest.raises(QueryError, match="strings"):
            service.batch([42])
        with pytest.raises(QueryError, match="too large"):
            service.batch(["192.0.2.1"] * (MAX_BATCH + 1))

    def test_batch_never_mixes_generations(self, indexes):
        index_a, index_b = indexes
        service = SiblingQueryService(index_a)
        queries = [str(pair.v4_prefix) for pair in index_a.pairs[:20]]
        stop = threading.Event()

        def swapper():
            position = 0
            while not stop.is_set():
                service.swap(index_b if position % 2 == 0 else index_a)
                position += 1

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            for _ in range(50):
                snapshots = {
                    row["snapshot"] for row in service.batch(queries)
                }
                assert len(snapshots) == 1, "batch mixed two generations"
        finally:
            stop.set()
            thread.join()

    def test_caller_mutation_cannot_poison_cache(self, indexes):
        service = SiblingQueryService(indexes[0])
        query = str(indexes[0].pairs[0].v4_prefix)
        first = service.lookup(query)
        assert first["found"]
        first["found"] = "mutated"
        first["extra"] = True
        second = service.lookup(query)
        assert second["found"] is True and "extra" not in second

    def test_concurrent_lookups_during_swaps(self, indexes):
        index_a, index_b = indexes
        service = SiblingQueryService(index_a, cache_size=64)
        queries = [str(pair.v4_prefix) for pair in index_a.pairs[:10]]
        snapshots = {index_a.snapshot.isoformat(), index_b.snapshot.isoformat()}
        failures = []

        def worker():
            for _ in range(200):
                answer = service.lookup(queries[_ % len(queries)])
                if answer["snapshot"] not in snapshots:
                    failures.append(answer)

        def swapper():
            for position in range(50):
                service.swap(index_b if position % 2 == 0 else index_a)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


@pytest.fixture(scope="module")
def http_server():
    """A live HTTP server over a small fixed index."""
    _, pairs = random_scenario(77, n_pairs=30)
    index = SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
    service = SiblingQueryService(index)
    with make_server(service, port=0) as server:
        server.start()
        yield f"http://127.0.0.1:{server.server_address[1]}", index


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.load(response)


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.load(response)


class TestHttp:
    def test_lookup_hit_and_miss(self, http_server):
        base, index = http_server
        target = index.pairs[0].v4_prefix
        status, body = _get(f"{base}/v1/lookup?ip={target}")
        assert status == 200 and body["found"]
        assert body["matched_prefix"] == str(target) or body["pairs"]
        status, body = _get(f"{base}/v1/lookup?ip=0.255.255.255")
        assert status == 200 and body["found"] is False

    def test_lookup_malformed_is_400(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/v1/lookup?ip=not-an-ip")
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/v1/lookup")
        assert excinfo.value.code == 400

    def test_batch(self, http_server):
        base, index = http_server
        queries = [str(index.pairs[0].v4_prefix), "bogus", "0.255.255.255"]
        status, body = _post(f"{base}/v1/batch", {"queries": queries})
        assert status == 200
        results = body["results"]
        assert len(results) == 3
        assert results[0]["found"] is True
        assert results[1]["found"] is False and "error" in results[1]

    def test_batch_malformed_body_is_400(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/v1/batch", {"nope": []})
        assert excinfo.value.code == 400
        # Undecodable, nested past the decoder's recursion limit, and an
        # integer literal past the int-digit limit (a plain ValueError).
        for body in (b"{not json", b"[" * 100_000, b"9" * 5_000):
            request = urllib.request.Request(
                f"{base}/v1/batch", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error.startswith("malformed JSON body"), error

    def test_batch_negative_content_length_is_400(self, http_server):
        import http.client

        base, _ = http_server
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            connection.putrequest("POST", "/v1/batch")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_snapshot(self, http_server):
        base, index = http_server
        status, body = _get(f"{base}/v1/snapshot")
        assert status == 200
        assert body["generation"] == 1
        assert body["index"]["pairs"] == len(index)
        assert "cache" in body

    def test_unknown_path_is_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/v2/lookup?ip=1.2.3.4")
        assert excinfo.value.code == 404


class TestServerLifecycle:
    """The start()/close() API for embedders (``repro watch``, tests)."""

    def _service(self):
        _, pairs = random_scenario(5, n_pairs=3)
        return SiblingQueryService(
            SiblingLookupIndex.from_pairs(pairs, SNAPSHOT)
        )

    def test_close_is_idempotent_and_releases_port(self):
        server = make_server(self._service(), port=0).start()
        port = server.server_address[1]
        status, _ = _get(f"http://127.0.0.1:{port}/v1/snapshot")
        assert status == 200
        server.close()
        server.close()  # idempotent
        # The port is released: a new server can bind it immediately.
        with make_server(self._service(), port=port) as reuse:
            reuse.start()
            status, _ = _get(f"http://127.0.0.1:{port}/v1/snapshot")
            assert status == 200

    def test_double_start_raises(self):
        with make_server(self._service(), port=0) as server:
            server.start()
            with pytest.raises(RuntimeError):
                server.start()

    def test_close_without_start_does_not_block(self):
        # Bound but never started: close() must not wait on the
        # never-set shutdown event.
        make_server(self._service(), port=0).close()

    def test_keepalive_connection_is_reused(self):
        import http.client

        with make_server(self._service(), port=0) as server:
            server.start()
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=5)
            try:
                for _ in range(3):
                    connection.request("GET", "/v1/snapshot")
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                    assert response.getheader("Connection") != "close"
            finally:
                connection.close()

    def test_serve_thread_is_daemon(self):
        # An embedder that exits without close() must not hang the
        # interpreter on a live accept loop.
        with make_server(self._service(), port=0) as server:
            server.start()
            assert server._serve_thread is not None
            assert server._serve_thread.daemon is True

    def test_close_surfaces_wedged_serve_thread(self):
        # A serve thread that outlives the join timeout must raise, not
        # be silently leaked — but the socket is still released.
        class _WedgedThread:
            name = "wedged-serve-thread"

            def is_alive(self):
                return True

            def join(self, timeout=None):
                pass

        server = make_server(self._service(), port=0).start()
        port = server.server_address[1]
        real_thread = server._serve_thread
        server._serve_thread = _WedgedThread()
        with pytest.raises(RuntimeError, match="did not stop"):
            server.close()
        # shutdown() did stop the real serve loop, and server_close()
        # released the port despite the raise.
        real_thread.join(timeout=10)
        assert not real_thread.is_alive()
        with make_server(self._service(), port=port) as reuse:
            reuse.start()
            status, _ = _get(f"http://127.0.0.1:{port}/v1/snapshot")
            assert status == 200

    def test_post_short_body_is_400_and_closes_connection(self):
        # A client that dies mid-body leaves the connection unframed:
        # the server must answer 400 and hang up rather than block on
        # rfile.read() or parse stale bytes as the next request line.
        import socket

        with make_server(self._service(), port=0) as server:
            server.start()
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    b"POST /v1/batch HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Length: 100\r\n"
                    b"\r\n"
                    b'{"queries": ['
                )
                sock.shutdown(socket.SHUT_WR)  # EOF before the full body
                sock.settimeout(5)
                response = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:  # EOF: the server closed the connection
                        break
                    response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"truncated request body" in response
