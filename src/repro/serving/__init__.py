"""Serving: the compiled sibling-prefix lookup subsystem.

Detection (``core/``) produces a :class:`~repro.core.siblings.SiblingSet`
per snapshot; this package turns that output into something a consumer
can *query at interactive rates*:

* :mod:`repro.serving.index` — :class:`SiblingLookupIndex`, an immutable
  compiled index answering longest-prefix-match point queries and
  covering-prefix queries by binary search over packed network keys.
* :mod:`repro.serving.cache` — the LRU answer cache.
* :mod:`repro.serving.service` — :class:`SiblingQueryService`, the
  stateful façade adding batch APIs, caching, and atomic snapshot
  hot-swap for longitudinal runs.
* :mod:`repro.serving.http` — the JSON endpoint on one asyncio loop
  (``/v1/lookup``, ``/v1/batch``, ``/v1/snapshot``) behind
  ``python -m repro serve``.

See ``docs/SERVING.md`` for the index layout and the HTTP surface; an
index persists as a generation of the ``.sparch`` archive
(:mod:`repro.storage.index_io`, ``docs/STORAGE.md``).
"""

from repro.serving.cache import LruCache
from repro.serving.index import LookupResult, SiblingLookupIndex
from repro.serving.service import QueryError, SiblingQueryService

__all__ = [
    "LookupResult",
    "LruCache",
    "QueryError",
    "SiblingLookupIndex",
    "SiblingQueryService",
]
