"""Serving: the compiled sibling-prefix lookup subsystem.

Detection (``core/``) produces a :class:`~repro.core.siblings.SiblingSet`
per snapshot; this package turns that output into something a consumer
can *query at interactive rates*:

* :mod:`repro.serving.index` — :class:`SiblingLookupIndex`, an immutable
  compiled index answering longest-prefix-match point queries and
  covering-prefix queries by binary search over packed network keys.
* :mod:`repro.serving.codec` — a versioned, checksummed binary format so
  indexes are built once and memory-loaded fast.
* :mod:`repro.serving.cache` — the LRU answer cache.
* :mod:`repro.serving.service` — :class:`SiblingQueryService`, the
  stateful façade adding batch APIs, caching, and atomic snapshot
  hot-swap for longitudinal runs.
* :mod:`repro.serving.http` — the JSON endpoint on one asyncio loop
  (``/v1/lookup``, ``/v1/batch``, ``/v1/snapshot``) behind
  ``python -m repro serve``.
* :mod:`repro.serving.fleet` — :class:`ServingFleet`, the
  multi-process scale-out tier: N ``SO_REUSEPORT`` worker processes
  mmap-attached to one ``.sparch`` archive, with supervised restarts
  and fleet-wide atomic generation swaps (``repro serve --workers N``).

See ``docs/SERVING.md`` for the index layout, the binary format, and
the HTTP surface.
"""

from repro.serving.cache import LruCache
from repro.serving.codec import CodecError, load_index, save_index
from repro.serving.index import LookupResult, SiblingLookupIndex
from repro.serving.service import QueryError, SiblingQueryService


def __getattr__(name: str):
    # The fleet brings asyncio and multiprocessing; a process that only
    # detects (and imports serving.index) never loads them.
    if name in ("FleetError", "ServiceSource", "ServingFleet"):
        from repro.serving import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CodecError",
    "FleetError",
    "LookupResult",
    "LruCache",
    "QueryError",
    "ServiceSource",
    "ServingFleet",
    "SiblingLookupIndex",
    "SiblingQueryService",
    "load_index",
    "save_index",
]
