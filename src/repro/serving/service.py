"""The stateful query façade: caching, batching, snapshot hot-swap.

:class:`SiblingLookupIndex` is immutable by design; this module owns
the *mutable* part of serving.  A :class:`SiblingQueryService` holds a
reference to the current index generation, memoises each answer's
encoded JSON in an :class:`~repro.serving.cache.LruCache`, and lets a
publisher :meth:`~SiblingQueryService.swap` in a freshly compiled
snapshot atomically — in-flight queries finish against the generation
they started on (they hold a plain object reference), new queries see
the new one, and the answer cache is cleared in the same critical
section so no stale answer can ever be served against a newer
generation.

Every service instance reports into a :class:`~repro.obs.metrics.
MetricsRegistry` (the process default unless one is injected):
lookup/batch counters and latency histograms, cache hits/misses, swap
count and swap critical-section latency, plus gauges for generation,
generation age, and uptime refreshed by :meth:`~SiblingQueryService.
observe_gauges`.  Metric updates happen strictly *outside* the service
lock — telemetry can never extend the swap critical section.  See
``docs/OBSERVABILITY.md`` for the catalog.

This is the seam the ``repro watch`` daemon publishes into
(:class:`repro.analysis.watch.SnapshotWatcher`) and the HTTP layer
(:mod:`repro.serving.http`) reads from.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Iterable, Sequence

from repro.nettypes.prefix import PrefixError
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from repro.obs.tracing import get_registry
from repro.serving.cache import LruCache
from repro.serving.index import SiblingLookupIndex

#: Refuse pathologically large batch requests instead of stalling.
MAX_BATCH = 10_000


class QueryError(ValueError):
    """A client-side problem: malformed query text or batch shape.

    The HTTP layer maps this to a 400; the CLI to exit code 2.
    """


class SiblingQueryService:
    """Point/batch sibling lookups over a hot-swappable index.

    >>> import datetime
    >>> from repro.nettypes.prefix import Prefix
    >>> from repro.publish import PublishedPair
    >>> pair = PublishedPair(
    ...     Prefix.parse("192.0.2.0/24"), Prefix.parse("2001:db8::/32"),
    ...     1.0, 3, 3, 3, True, None)
    >>> index = SiblingLookupIndex.from_pairs([pair], datetime.date(2024, 9, 11))
    >>> service = SiblingQueryService(index)
    >>> service.lookup("192.0.2.9")["matched_prefix"]
    '192.0.2.0/24'
    >>> service.lookup("203.0.113.9")["found"]
    False
    """

    def __init__(
        self,
        index: SiblingLookupIndex | None = None,
        cache_size: int = 4096,
        registry: MetricsRegistry | None = None,
    ):
        self._lock = threading.Lock()
        self._index = index
        self._cache = LruCache(maxsize=cache_size)
        self._generation = 0 if index is None else 1
        self._queries = 0
        self._swaps = 0
        self._started_monotonic = time.monotonic()
        self._last_swap_monotonic = self._started_monotonic
        self._registry = registry if registry is not None else get_registry()
        # Handles resolved once; hot paths touch only per-metric locks.
        self._m_lookups = self._registry.counter("serve.lookups")
        self._m_lookup_seconds = self._registry.histogram("serve.lookup_seconds")
        self._m_batches = self._registry.counter("serve.batches")
        self._m_batch_items = self._registry.counter("serve.batch_items")
        self._m_batch_size = self._registry.histogram(
            "serve.batch_size", bounds=DEFAULT_COUNT_BUCKETS
        )
        self._m_cache_hits = self._registry.counter("serve.cache_hits")
        self._m_cache_misses = self._registry.counter("serve.cache_misses")
        self._m_query_errors = self._registry.counter("serve.query_errors")
        self._m_swaps = self._registry.counter("serve.swaps")
        self._m_swap_seconds = self._registry.histogram("serve.swap_seconds")
        self._m_attach_seconds = self._registry.histogram("serve.attach_seconds")

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this service reports into."""
        return self._registry

    @classmethod
    def from_archive(cls, path, cache_size: int = 4096) -> "SiblingQueryService":
        """Service over the newest generation of a ``.sparch`` archive.

        Cold start is an ``mmap`` attach — no pair objects are
        materialized, no index is recompiled; see
        :mod:`repro.storage.index_io` and
        ``benchmarks/bench_archive_coldstart.py``.
        """
        from repro.storage.index_io import load_mapped_index

        return cls(load_mapped_index(path), cache_size=cache_size)

    def swap_from_archive(self, path):
        """Hot-swap to the newest generation of the archive at *path*.

        The publisher-side refresh: after ``detect --archive`` (or an
        archived ``detect-series``) appended a new generation, the
        serving process *remaps* — attaches the new generation
        zero-copy and :meth:`swap`-s it in atomically.  The previous
        index is returned still-usable (its mapping is only released
        when the caller closes or drops it); in-flight queries finish
        on the generation they started with, exactly as with an
        in-memory swap.
        """
        from repro.storage.index_io import load_mapped_index

        attach_start = time.perf_counter()
        index = load_mapped_index(path)
        self._m_attach_seconds.observe(time.perf_counter() - attach_start)
        return self.swap(index)

    # -- publishing ----------------------------------------------------------

    def swap(self, index: SiblingLookupIndex) -> SiblingLookupIndex | None:
        """Atomically publish *index* as the serving generation.

        Returns the previous index (``None`` on first publish).  The
        answer cache is cleared under the same lock, so observers can
        never mix answers from two generations.  Metrics record the
        critical-section latency from outside it.
        """
        start = time.perf_counter()
        with self._lock:
            previous = self._index
            self._index = index
            self._generation += 1
            self._swaps += 1
            self._cache.clear()
        self._last_swap_monotonic = time.monotonic()
        self._m_swaps.inc()
        self._m_swap_seconds.observe(time.perf_counter() - start)
        return previous

    @property
    def index(self) -> SiblingLookupIndex | None:
        """The current generation (plain read; safe from any thread)."""
        return self._index

    @property
    def generation(self) -> int:
        """Monotonic publish counter (0 = nothing published yet)."""
        return self._generation

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this service instance was constructed."""
        return time.monotonic() - self._started_monotonic

    @property
    def generation_age_seconds(self) -> float:
        """Seconds since the last swap (construction if never swapped)."""
        return time.monotonic() - self._last_swap_monotonic

    # -- queries -------------------------------------------------------------

    def lookup(self, query: str) -> dict:
        """Answer one point query as a fresh dict (:meth:`lookup_json`,
        decoded)."""
        return json.loads(self.lookup_json(query))

    def lookup_json(self, query: str) -> bytes:
        """Answer one point query as its encoded JSON object.

        Raises :class:`QueryError` for malformed query text and when no
        index has been published yet.
        """
        start = time.perf_counter()
        with self._lock:
            index = self._index
            generation = self._generation
            self._queries += 1
        self._m_lookups.inc()
        try:
            answer = self._answer_on(index, generation, query)
        except QueryError:
            self._m_query_errors.inc()
            raise
        self._m_lookup_seconds.observe(time.perf_counter() - start)
        return answer

    def _answer_on(
        self, index: SiblingLookupIndex | None, generation: int, query: str
    ) -> bytes:
        """Answer *query* against one pinned (index, generation) pair;
        a cache hit returns the stored bytes without re-encoding."""
        if index is None:
            raise QueryError("no index published yet")
        text = query.strip()
        # Keyed by generation: a lookup that raced with a swap can at
        # worst insert a dead old-generation entry (evicted by LRU),
        # never serve a stale answer under the new generation's key.
        key = (generation, text)
        cached = self._cache.get(key)
        if cached is not None:
            self._m_cache_hits.inc()
            return cached
        self._m_cache_misses.inc()
        try:
            result = index.lookup(text)
        except PrefixError as exc:
            raise QueryError(str(exc)) from exc
        answer = {"query": text, "found": False} if result is None else result.as_dict()
        answer["snapshot"] = index.snapshot.isoformat()
        data = json.dumps(answer).encode()
        self._cache.put(key, data)
        return data

    def batch(self, queries: "Iterable[str] | Sequence[str]") -> list[dict]:
        """Answer many point queries; :meth:`batch_json`'s rows, decoded."""
        return json.loads(self.batch_json(queries))["results"]

    def batch_json(self, queries: "Iterable[str] | Sequence[str]") -> bytes:
        """Answer many point queries as ``{"results": [...]}`` bytes,
        aligned with the input order.

        Unlike :meth:`lookup`, malformed entries produce an in-band
        ``{"found": false, "error": ...}`` row so one bad line cannot
        fail a bulk job.  The whole batch is answered against the
        generation current at entry — a concurrent :meth:`swap` never
        mixes two snapshots within one response.  Raises
        :class:`QueryError` only for whole-request problems (no index,
        non-string entries, oversize batch).  The bytes equal
        ``json.dumps({"results": rows}).encode()``.
        """
        items = list(queries)
        if len(items) > MAX_BATCH:
            raise QueryError(f"batch too large: {len(items)} > {MAX_BATCH}")
        with self._lock:
            index = self._index
            generation = self._generation
            self._queries += len(items)
        self._m_batches.inc()
        self._m_batch_items.inc(len(items))
        self._m_batch_size.observe(len(items))
        if index is None:
            raise QueryError("no index published yet")
        parts = []
        for query in items:
            if not isinstance(query, str):
                raise QueryError(f"batch entries must be strings, got {query!r}")
            try:
                parts.append(self._answer_on(index, generation, query))
            except QueryError as exc:
                row = {"query": query.strip(), "found": False, "error": str(exc)}
                parts.append(json.dumps(row).encode())
        return b'{"results": [' + b", ".join(parts) + b"]}"

    # -- introspection -------------------------------------------------------

    def observe_gauges(self) -> None:
        """Refresh the service gauges in the registry.

        Gauges are sampled, not event-driven — callers (the
        ``/v1/metrics`` handler) refresh them right before snapshotting
        the registry.
        """
        self._registry.gauge("serve.generation").set(self._generation)
        self._registry.gauge("serve.generation_age_seconds").set(
            self.generation_age_seconds
        )
        self._registry.gauge("serve.uptime_seconds").set(self.uptime_seconds)
        self._registry.gauge("serve.cache_size").set(
            self._cache.stats()["size"]
        )

    def snapshot_info(self) -> dict:
        """Current generation metadata + service counters (the
        ``/v1/snapshot`` payload and the ``service`` block of
        ``/v1/status``)."""
        index = self._index
        info: dict = {
            "generation": self._generation,
            "swaps": self._swaps,
            "queries": self._queries,
            "uptime_seconds": self.uptime_seconds,
            "generation_age_seconds": self.generation_age_seconds,
            "cache": self._cache.stats(),
        }
        if index is None:
            info["index"] = None
        else:
            info["index"] = index.stats()
        return info

    def __repr__(self) -> str:
        index = self._index
        state = "empty" if index is None else index.snapshot.isoformat()
        return (
            f"SiblingQueryService({state}, generation={self._generation}, "
            f"queries={self._queries})"
        )
