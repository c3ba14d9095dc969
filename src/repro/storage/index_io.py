"""Compiled lookup indexes inside the archive: write once, mmap forever.

A :class:`~repro.serving.index.SiblingLookupIndex` already keeps each
family in flat buffers (see :mod:`repro.serving.index`); this module
writes those buffers as they are into per-generation archive segments
and attaches to them zero-copy:

* **keys** — ``index.v{4,6}.keys``, the native ``u64`` narrow keys, and
  ``index.v{4,6}.wide``, the 16-byte big-endian keys of IPv6 groups
  longer than /64;
* **postings** — ``index.v{4,6}.postings``, the family-global ``u32``
  pair-table positions, and ``index.v{4,6}.offsets``, the ``u64``
  offsets aligned with the concatenated keys;
* **groups** — the ``[length, count]`` list, stored in the generation's
  ``index`` meta;
* **records** — one fixed 44-byte record per pair
  (:func:`pack_records`), decoded *lazily*: :class:`MappedPairTable`
  materializes a :class:`~repro.publish.PublishedPair` only for the
  records a query actually returns.

:func:`attach_index` hands the segment views to the same family class a
fresh compile builds, so the mapped and in-memory indexes run one probe
loop.  Cold start costs one manifest parse — no pair objects, no sort,
no group compilation — which is what
``benchmarks/bench_archive_coldstart.py`` measures against parsing and
compiling a CSV export.  Answers are bit-identical to the in-memory
index (``tests/test_storage_archive.py`` property-tests this).
"""

from __future__ import annotations

import datetime
import pathlib
import struct
from typing import Iterable, Iterator, Sequence

from repro.nettypes.prefix import Prefix, PrefixError
from repro.publish import PublishedPair
from repro.serving.index import SiblingLookupIndex, _FamilyIndex
from repro.storage.archive import ArchiveReader, Generation
from repro.storage.format import ArchiveFormatError

#: Manifest meta kind for these segments.
KIND = "index"

#: One pair record (big-endian): IPv4 value/length, IPv6 value (16
#: bytes)/length, jaccard as an IEEE double, the three domain counts,
#: tri-state ``same_org`` (-1 = unknown) and a slot in the generation's
#: ROV-status table (255 = none).
_RECORD = struct.Struct(">IB16sBdIIIbB")
RECORD_SIZE = _RECORD.size

_NO_ROV = 255
_SAME_ORG = {None: -1, False: 0, True: 1}
_SAME_ORG_BACK = {-1: None, 0: False, 1: True}


def pack_records(pairs: Iterable[PublishedPair]) -> tuple[bytes, list[str]]:
    """Pack *pairs* into the fixed-width record layout.

    Returns ``(records, rov_table)`` — the concatenated 44-byte records
    and the ROV-status string table they index into.
    """
    rov_table: list[str] = []
    rov_slots: dict[str, int] = {}
    body = bytearray()
    for pair in pairs:
        if pair.rov_status is not None and pair.rov_status not in rov_slots:
            if len(rov_table) >= _NO_ROV:
                raise ArchiveFormatError(
                    "too many distinct ROV statuses (max 255)"
                )
            rov_slots[pair.rov_status] = len(rov_table)
            rov_table.append(pair.rov_status)
        body += _RECORD.pack(
            pair.v4_prefix.value,
            pair.v4_prefix.length,
            pair.v6_prefix.value.to_bytes(16, "big"),
            pair.v6_prefix.length,
            pair.jaccard,
            pair.shared_domains,
            pair.v4_domains,
            pair.v6_domains,
            _SAME_ORG[pair.same_org],
            _NO_ROV if pair.rov_status is None else rov_slots[pair.rov_status],
        )
    return bytes(body), rov_table


def decode_record(
    buffer, position: int, rov_table: Sequence[str]
) -> PublishedPair:
    """Decode record *position* from any bytes-like *buffer*.

    Records decode straight out of an ``mmap`` view, one at a time; an
    invalid prefix or ROV slot raises
    :class:`~repro.storage.format.ArchiveFormatError`.
    """
    (
        v4_value,
        v4_length,
        v6_bytes,
        v6_length,
        jaccard,
        shared,
        v4_domains,
        v6_domains,
        same_org_code,
        rov_slot,
    ) = _RECORD.unpack_from(buffer, position * _RECORD.size)
    try:
        v4_prefix = Prefix(4, v4_value, v4_length)
        v6_prefix = Prefix(6, int.from_bytes(v6_bytes, "big"), v6_length)
    except PrefixError as exc:
        raise ArchiveFormatError(
            f"invalid prefix in record {position}: {exc}"
        ) from exc
    if rov_slot != _NO_ROV and rov_slot >= len(rov_table):
        raise ArchiveFormatError(
            f"record {position} references unknown ROV slot"
        )
    return PublishedPair(
        v4_prefix=v4_prefix,
        v6_prefix=v6_prefix,
        jaccard=jaccard,
        shared_domains=shared,
        v4_domains=v4_domains,
        v6_domains=v6_domains,
        same_org=_SAME_ORG_BACK.get(same_org_code),
        rov_status=None if rov_slot == _NO_ROV else rov_table[rov_slot],
    )


def index_segments(index: SiblingLookupIndex) -> tuple[dict, dict]:
    """Encode a compiled *index* into archive segments.

    Returns ``(segments, meta)`` for
    :meth:`~repro.storage.archive.ArchiveWriter.append_generation`.
    Each family's buffers are written as they are, so the mapped reader
    does no recompilation.
    """
    records, rov_table = pack_records(index.pairs)
    segments: dict[str, bytes] = {"index.records": records}
    families_meta: dict[str, list] = {}
    for version in (4, 6):
        family = index._families[version]
        segments[f"index.v{version}.keys"] = family.narrow.tobytes()
        segments[f"index.v{version}.wide"] = family.wide.tobytes()
        segments[f"index.v{version}.postings"] = family.postings.tobytes()
        segments[f"index.v{version}.offsets"] = family.offsets.tobytes()
        families_meta[str(version)] = [list(group) for group in family.groups]
    meta = {
        "snapshot": index.snapshot.isoformat(),
        "pairs": len(index.pairs),
        "rov_statuses": rov_table,
        "families": families_meta,
    }
    return segments, meta


def append_index(
    path: "str | pathlib.Path", index: SiblingLookupIndex
) -> int:
    """Append *index* as a new archive generation at *path*; returns gid.

    Creates the archive if missing.  This is the minimal publisher a
    server needs: commit a new compiled generation (footer protocol
    makes it atomic for readers), then
    :meth:`~repro.serving.service.SiblingQueryService.swap_from_archive`.
    Full detection runs archive richer generations (sibling lists,
    substrate state) via :mod:`repro.analysis.pipeline`.
    """
    from repro.storage.archive import ArchiveWriter

    segments, meta = index_segments(index)
    with ArchiveWriter.open(path) as writer:
        return writer.append_generation(
            index.snapshot.isoformat(), segments, {KIND: meta}
        )


class MappedPairTable(Sequence):
    """Lazy pair table over a mapped record segment.

    Quacks like the ``pairs`` tuple of an in-memory index —
    ``len()``, indexing, iteration — but decodes a
    :class:`~repro.publish.PublishedPair` from its 44 bytes only when
    asked, so attaching a million-pair archive allocates nothing up
    front and a lookup materializes exactly the pairs it returns.
    """

    __slots__ = ("_records", "_count", "_rov_table")

    def __init__(self, records: memoryview, count: int, rov_table: Sequence[str]):
        if len(records) != count * RECORD_SIZE:
            raise ArchiveFormatError(
                f"index records segment holds {len(records)} bytes, "
                f"expected {count * RECORD_SIZE} for {count} pairs"
            )
        self._records = records
        self._count = count
        self._rov_table = tuple(rov_table)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, position):
        if isinstance(position, slice):
            return tuple(
                self[index] for index in range(*position.indices(self._count))
            )
        if position < 0:
            position += self._count
        if not 0 <= position < self._count:
            raise IndexError(position)
        return decode_record(self._records, position, self._rov_table)

    def __iter__(self) -> Iterator:
        for position in range(self._count):
            yield self[position]


class MappedSiblingIndex(SiblingLookupIndex):
    """A :class:`~repro.serving.index.SiblingLookupIndex` over the
    ``mmap``-ed segments of an archive generation.

    Its families are the ones a fresh compile builds, over segment views
    instead of arrays, so queries run the same code and give the same
    answers; keys, postings and pair records stay in the page cache and
    pairs materialize per answer.  All this class adds is ownership of
    the :class:`~repro.storage.archive.ArchiveReader` it was loaded
    through (:func:`load_mapped_index`): :meth:`close` it — or simply
    drop it — only after its answers are no longer in use.
    """

    _reader: "ArchiveReader | None" = None

    def close(self) -> None:
        """Release the owned archive mapping, if any (idempotent).

        Drops the internal view-holding structures first — an ``mmap``
        refuses to close while exported buffers exist — so a closed
        index answers no further queries.
        """
        self.pairs = ()
        self._families = {}
        if self._reader is not None:
            self._reader.close()
            self._reader = None


def attach_index(
    reader: ArchiveReader, generation: "Generation | None" = None
) -> MappedSiblingIndex:
    """Attach to a generation's index segments (newest if omitted).

    No decompression, no recompilation: the returned index serves
    straight from *reader*'s mapping, which must outlive it.
    """
    if generation is None:
        generation = reader.latest(KIND)
        if generation is None:
            raise ArchiveFormatError(
                f"{reader._buffer.path} holds no compiled index generation"
            )
    meta = generation.meta[KIND]
    try:
        snapshot = datetime.date.fromisoformat(meta["snapshot"])
        count = int(meta["pairs"])
        rov_table = list(meta["rov_statuses"])
        families_meta = meta["families"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveFormatError(f"malformed index metadata: {exc}") from exc
    pairs = MappedPairTable(
        generation.segment("index.records"), count, rov_table
    )
    families = {}
    for version in (4, 6):
        views = [
            generation.segment(f"index.v{version}.{name}")
            for name in ("keys", "wide", "postings", "offsets")
        ]
        try:
            families[version] = _FamilyIndex(
                version, families_meta[str(version)], *views
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveFormatError(f"malformed index family: {exc}") from exc
    return MappedSiblingIndex(pairs, snapshot, families)


def load_mapped_index(path: "str | pathlib.Path") -> MappedSiblingIndex:
    """Open *path* and attach to its newest compiled index generation.

    The returned index owns the reader: dropping (or :meth:`closing
    <MappedSiblingIndex.close>`) it releases the mapping.  This is the
    ``repro serve --archive`` cold-start path.
    """
    reader = ArchiveReader.open(path)
    try:
        index = attach_index(reader)
    except ArchiveFormatError:
        reader.close()
        raise
    index._reader = reader
    return index


__all__ = [
    "KIND",
    "MappedPairTable",
    "MappedSiblingIndex",
    "append_index",
    "attach_index",
    "index_segments",
    "load_mapped_index",
]
