"""The compiled, immutable sibling lookup index.

:class:`SiblingLookupIndex` compiles a published sibling-pair list into
a read-only structure answering two query shapes:

* **longest-prefix match** — "which sibling pair covers this address
  (or this prefix)?", the blocklist/geolocation-transfer primitive;
* **covering enumeration** — every stored prefix containing a query,
  shortest first, for consumers that want the whole nesting chain.

Layout.  Per family the stored prefixes are grouped by prefix length,
longest first, and every group lives in a handful of flat buffers:

* **narrow keys** — one ``u64`` buffer holding the sorted network keys
  (:attr:`~repro.nettypes.prefix.Prefix.network_key` — the network bits
  right-aligned, so a /24 is a 24-bit integer) of every group at most 64
  bits long: all of IPv4 and every routed IPv6 length;
* **wide keys** — 16-byte big-endian keys for the rare IPv6 groups
  longer than /64, read through :class:`_WideKeys`;
* **postings** — one ``u32`` buffer of pair-table positions, with a
  ``u64`` offsets buffer aligned with the concatenated keys;
* **groups** — the ``[length, count]`` list that cuts the key buffers
  into groups.

These are exactly the buffers a ``.sparch`` archive stores
(:mod:`repro.storage.index_io`): :meth:`SiblingLookupIndex.from_pairs`
compiles into fresh arrays, and an archive attach hands the same class
``mmap`` views.  One :class:`_FamilyIndex` probes both.  A point query
masks the address once per populated length — longest first — and
binary-searches the group's keys; the first hit *is* the longest match,
because equal keys at equal lengths are exactly containment.  With
≤ 32 (v4) / ≤ 128 (v6) possible lengths and far fewer populated ones in
practice, a lookup costs a handful of ``bisect`` calls regardless of how
many pairs are stored, where a scan of the pair list
(:func:`scan_lookup`) pays O(pairs) per query.

The index is deliberately immutable: publishing a new detection
snapshot means compiling a fresh index and atomically swapping it into
the :class:`~repro.serving.service.SiblingQueryService`.
:class:`~repro.nettypes.trie.PatriciaTrie` remains the mutable
reference oracle; ``tests/test_serving.py`` cross-checks every answer
against it and against :func:`scan_lookup` on randomized scenarios.
"""

from __future__ import annotations

import datetime
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.siblings import SiblingSet, pair_order
from repro.nettypes.addr import MAX_LENGTH, format_address
from repro.nettypes.prefix import Prefix, PrefixError
from repro.publish import PublishedPair

#: Keys at most this many network bits live in the ``u64`` buffer.
_NARROW_BITS = 64

#: Bytes per wide (``> /64`` IPv6) key.
_WIDE_KEY_BYTES = 16


@dataclass(frozen=True, slots=True)
class LookupResult:
    """The answer to one point query.

    ``matched`` is the longest stored prefix containing the query and
    ``pairs`` every published sibling pair that prefix appears in
    (deterministic table order).
    """

    query: str
    version: int
    matched: Prefix
    pairs: tuple[PublishedPair, ...]

    def as_dict(self) -> dict:
        """JSON-able form, the shape the HTTP endpoints return."""
        return {
            "query": self.query,
            "version": self.version,
            "found": True,
            "matched_prefix": str(self.matched),
            "pairs": [pair.as_row() for pair in self.pairs],
        }


class _WideKeys:
    """Bisectable view over 16-byte big-endian keys (IPv6 ``> /64``)."""

    __slots__ = ("_view", "_start", "_count")

    def __init__(self, view: memoryview, start: int, count: int):
        self._view = view
        self._start = start
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, position: int) -> int:
        offset = (self._start + position) * _WIDE_KEY_BYTES
        return int.from_bytes(
            self._view[offset:offset + _WIDE_KEY_BYTES], "big"
        )


class _FamilyIndex:
    """One family's (IPv4 or IPv6) search structure over flat buffers.

    *narrow*, *wide*, *postings* and *offsets* are any bytes-like
    objects in the layout the module docstring describes — fresh arrays
    from :meth:`compile` or ``mmap`` views of an archive segment — and
    *groups* the ``[length, count]`` list, longest length first.  A hit
    returns its posting list as a ``u32`` view slice.
    """

    __slots__ = ("version", "bits", "groups", "lengths", "size", "narrow",
                 "wide", "postings", "offsets", "_probes")

    def __init__(
        self,
        version: int,
        groups: Iterable[Sequence[int]],
        narrow,
        wide,
        postings,
        offsets,
    ):
        self.version = version
        self.bits = MAX_LENGTH[version]
        self.groups = tuple((int(length), int(count)) for length, count in groups)
        #: Populated prefix lengths, longest first (LPM probe order).
        self.lengths = tuple(length for length, _count in self.groups)
        self.narrow = memoryview(narrow).cast("B").cast("Q")
        self.wide = memoryview(wide).cast("B")
        self.postings = memoryview(postings).cast("B").cast("I")
        self.offsets = memoryview(offsets).cast("B").cast("Q")
        #: Per group in probe order: (length, keys sequence, global base).
        self._probes: list[tuple[int, Sequence[int], int]] = []
        narrow_base = wide_base = base = 0
        for length, count in self.groups:
            if length <= _NARROW_BITS:
                keys: Sequence[int] = self.narrow[narrow_base:narrow_base + count]
                narrow_base += count
            else:
                keys = _WideKeys(self.wide, wide_base, count)
                wide_base += count
            self._probes.append((length, keys, base))
            base += count
        self.size = base
        if len(self.offsets) != base + 1:
            raise ValueError(
                f"family {version} offsets segment holds "
                f"{len(self.offsets)} entries, expected {base + 1}"
            )

    @classmethod
    def compile(
        cls, version: int, by_length: dict[int, dict[int, list[int]]]
    ) -> "_FamilyIndex":
        """Pack ``{length: {key: [pair positions]}}`` into the buffers."""
        groups = []
        narrow = array("Q")
        wide = bytearray()
        postings = array("I")
        offsets = array("Q", [0])
        for length in sorted(by_length, reverse=True):
            group = by_length[length]
            keys = sorted(group)
            groups.append((length, len(keys)))
            if length <= _NARROW_BITS:
                narrow.extend(keys)
            else:
                for key in keys:
                    wide += key.to_bytes(_WIDE_KEY_BYTES, "big")
            for key in keys:
                postings.extend(group[key])
                offsets.append(len(postings))
        return cls(version, groups, narrow, wide, postings, offsets)

    def lookup(self, value: int, max_length: int | None = None):
        """LPM for integer address *value*: ``(prefix, posting)`` or None.

        *max_length* bounds the match (prefix queries may only be
        covered by prefixes at most as long as themselves).
        """
        for length, keys, base in self._probes:
            if max_length is not None and length > max_length:
                continue
            key = value >> (self.bits - length) if length else 0
            position = bisect_left(keys, key)
            if position < len(keys) and keys[position] == key:
                prefix = Prefix.from_network_key(self.version, key, length)
                start = self.offsets[base + position]
                end = self.offsets[base + position + 1]
                return prefix, self.postings[start:end]
        return None

    def covering(self, value: int, max_length: int):
        """Every stored prefix containing *value*, shortest first."""
        found = []
        for length, keys, base in reversed(self._probes):
            if length > max_length:
                continue
            key = value >> (self.bits - length) if length else 0
            position = bisect_left(keys, key)
            if position < len(keys) and keys[position] == key:
                prefix = Prefix.from_network_key(self.version, key, length)
                start = self.offsets[base + position]
                end = self.offsets[base + position + 1]
                found.append((prefix, self.postings[start:end]))
        return found


class SiblingLookupIndex:
    """Compiled, immutable lookup index over a published sibling list.

    Build one with :meth:`from_pairs` (a :class:`PublishedPair` list,
    e.g. from :func:`repro.publish.read_csv`) or :meth:`from_siblings`
    (a raw detection :class:`~repro.core.siblings.SiblingSet`), then
    query it from any thread — the structure is never mutated.

    >>> import datetime
    >>> pair = PublishedPair(
    ...     Prefix.parse("192.0.2.0/24"), Prefix.parse("2001:db8::/32"),
    ...     1.0, 3, 3, 3, True, None)
    >>> index = SiblingLookupIndex.from_pairs([pair], datetime.date(2024, 9, 11))
    >>> index.lookup("192.0.2.77").matched
    Prefix('192.0.2.0/24')
    >>> index.lookup("2001:db8:beef::1").pairs[0].jaccard
    1.0
    >>> index.lookup("203.0.113.9") is None
    True
    """

    def __init__(
        self,
        pairs: tuple[PublishedPair, ...],
        snapshot: datetime.date,
        families: dict[int, _FamilyIndex],
    ):
        self.pairs = pairs
        self.snapshot = snapshot
        self._families = families

    # -- construction --------------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[PublishedPair],
        snapshot: datetime.date,
    ) -> "SiblingLookupIndex":
        """Compile *pairs* (deterministically sorted) into an index."""
        table = tuple(sorted(pairs, key=pair_order))
        by_family: dict[int, dict[int, dict[int, list[int]]]] = {4: {}, 6: {}}
        for position, pair in enumerate(table):
            for prefix in (pair.v4_prefix, pair.v6_prefix):
                group = by_family[prefix.version].setdefault(prefix.length, {})
                group.setdefault(prefix.network_key, []).append(position)
        families = {
            version: _FamilyIndex.compile(version, by_length)
            for version, by_length in by_family.items()
        }
        return cls(table, snapshot, families)

    @classmethod
    def from_siblings(cls, siblings: SiblingSet) -> "SiblingLookupIndex":
        """Compile a raw detection result (no org/ROV enrichment)."""
        return cls.from_pairs(
            (
                PublishedPair(
                    v4_prefix=pair.v4_prefix,
                    v6_prefix=pair.v6_prefix,
                    jaccard=pair.similarity,
                    shared_domains=len(pair.shared_domains),
                    v4_domains=pair.v4_domain_count,
                    v6_domains=pair.v6_domain_count,
                    same_org=None,
                    rov_status=None,
                )
                for pair in siblings
            ),
            siblings.date,
        )

    # -- point queries -------------------------------------------------------

    def lookup(self, query: "str | Prefix") -> LookupResult | None:
        """Longest-prefix match for an address or prefix query.

        Accepts text (``"1.2.3.4"``, ``"2001:db8::/32"``) or a parsed
        :class:`Prefix`.  A bare address behaves as its host prefix; a
        prefix query matches stored prefixes at most as long as itself.
        Returns ``None`` on a miss; raises
        :class:`~repro.nettypes.prefix.PrefixError` on malformed text.
        """
        prefix = parse_query(query) if isinstance(query, str) else query
        hit = self._families[prefix.version].lookup(prefix.value, prefix.length)
        if hit is None:
            return None
        matched, posting = hit
        return LookupResult(
            query=str(query),
            version=prefix.version,
            matched=matched,
            pairs=tuple(self.pairs[position] for position in posting),
        )

    def lookup_address(self, version: int, value: int) -> LookupResult | None:
        """LPM for a bare integer address (no text parsing, no
        :class:`Prefix` allocation on the probe path)."""
        hit = self._families[version].lookup(value)
        if hit is None:
            return None
        matched, posting = hit
        return LookupResult(
            query=format_address(version, value),
            version=version,
            matched=matched,
            pairs=tuple(self.pairs[position] for position in posting),
        )

    def covering(self, query: "str | Prefix") -> list[LookupResult]:
        """Every stored prefix containing the query, shortest first."""
        prefix = parse_query(query) if isinstance(query, str) else query
        return [
            LookupResult(
                query=str(query),
                version=prefix.version,
                matched=matched,
                pairs=tuple(self.pairs[position] for position in posting),
            )
            for matched, posting in self._families[prefix.version].covering(
                prefix.value, prefix.length
            )
        ]

    def batch(self, queries: Iterable[str]) -> list[LookupResult | None]:
        """Point-lookup many queries; aligned with the input order.

        Malformed entries yield ``None`` (exactly like a miss) so one
        bad row cannot poison a bulk transfer job; use :meth:`lookup`
        when the distinction matters.
        """
        results: list[LookupResult | None] = []
        for query in queries:
            try:
                results.append(self.lookup(query))
            except PrefixError:
                results.append(None)
        return results

    # -- introspection -------------------------------------------------------

    def prefix_count(self, version: int) -> int:
        """Distinct stored prefixes for one family."""
        return self._families[version].size

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[PublishedPair]:
        yield from self.pairs

    def stats(self) -> dict:
        """JSON-able shape/size summary (the ``/v1/snapshot`` payload)."""
        return {
            "snapshot": self.snapshot.isoformat(),
            "pairs": len(self.pairs),
            "v4_prefixes": self.prefix_count(4),
            "v6_prefixes": self.prefix_count(6),
            "v4_lengths": list(self._families[4].lengths),
            "v6_lengths": list(self._families[6].lengths),
        }

    def __repr__(self) -> str:
        return (
            f"SiblingLookupIndex({self.snapshot.isoformat()}, "
            f"pairs={len(self.pairs)}, v4={self.prefix_count(4)}, "
            f"v6={self.prefix_count(6)})"
        )


def scan_lookup(
    pairs: Iterable[PublishedPair], query: "str | Prefix"
) -> LookupResult | None:
    """Brute-force LPM in one pass over an uncompiled pair stream.

    The O(pairs)-per-query path: ``repro lookup FILE.csv`` answers
    through it while streaming the export, and it is the second oracle
    for the equivalence tests and the comparison leg of
    ``benchmarks/bench_serving_lookup.py``.  The hits keep stream order.
    """
    prefix = Prefix.parse(query) if isinstance(query, str) else query
    matched: Prefix | None = None
    hits: list[PublishedPair] = []
    for pair in pairs:
        stored = pair.v4_prefix if prefix.version == 4 else pair.v6_prefix
        if stored.length <= prefix.length and stored.contains(prefix):
            if matched is None or stored.length > matched.length:
                matched, hits = stored, [pair]
            elif stored == matched:
                hits.append(pair)
    if matched is None:
        return None
    return LookupResult(
        query=str(query),
        version=prefix.version,
        matched=matched,
        pairs=tuple(hits),
    )


def parse_query(text: str) -> Prefix:
    """Parse a user-supplied query string into a :class:`Prefix`.

    Thin wrapper that normalizes the error type story for callers that
    surface messages to users (CLI, HTTP): any malformed input raises
    :class:`~repro.nettypes.prefix.PrefixError` with a clear message.
    """
    try:
        return Prefix.parse(text.strip())
    except PrefixError:
        raise
    except ValueError as exc:  # AddressError subclasses ValueError
        raise PrefixError(f"malformed query {text!r}: {exc}") from exc


__all__ = [
    "LookupResult",
    "SiblingLookupIndex",
    "parse_query",
    "scan_lookup",
]
