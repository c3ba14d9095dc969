"""A small, thread-safe LRU answer cache.

Sibling lookups are heavily skewed in practice (a blocklist consumer
resolves the same hot prefixes over and over), so the query service
memoises encoded answers keyed by the normalized query text.  The
cache is deliberately generic — plain ``key → value`` with
least-recently-used eviction — because the hot-swap logic in
:mod:`repro.serving.service` handles invalidation by clearing it
wholesale whenever a new index snapshot is published.

``functools.lru_cache`` is not usable here: it is bound to a function,
cannot be cleared selectively per service instance without also
dropping sizing configuration, and exposes no eviction counter for the
``/v1/snapshot`` stats payload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

_MISSING = object()


class LruCache:
    """Bounded mapping with least-recently-used eviction.

    ``maxsize=0`` disables caching entirely (every :meth:`get` misses,
    :meth:`put` is a no-op) so callers never need a separate code path.
    All operations take an internal lock; the cache may be shared by
    threads (a server loop, a publisher, embedders).

    >>> cache = LruCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)          # evicts "b", the least recently used
    >>> cache.get("b") is None
    True
    >>> cache.stats()["evictions"]
    1
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, default=None):
        """The cached value (refreshing its recency), else *default*."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh *key*, evicting the oldest entry when full."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe the
        service lifetime, not one index generation)."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus current occupancy."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
