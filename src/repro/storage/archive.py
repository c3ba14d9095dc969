"""The ``.sparch`` snapshot archive: append-only writer, mmap reader.

An archive is one file holding a *series* of detection artifacts — per
date ("generation"): the detected sibling list, the compiled lookup
index, and optionally the columnar substrate state — plus the interned
domain pool shared by every generation.  The physical layout is defined
in :mod:`repro.storage.format` and specified byte-for-byte in
``docs/STORAGE.md``; this module owns the manifest (what lives where)
and the two access paths:

* :class:`ArchiveWriter` — opens (or creates) an archive and *appends*:
  new page-aligned segments, then a new manifest, then a new footer.
  Existing bytes are never rewritten, so readers attached to an older
  generation stay valid, and a torn append is detected (footer/manifest
  CRC) rather than silently served.
* :class:`ArchiveReader` — ``mmap``s the file, validates footer and
  manifest CRCs without copying, and hands out :class:`memoryview`
  slices per segment.  Segment CRCs are validated lazily on first
  access (and cached), so attaching to a multi-gigabyte archive costs
  one manifest parse, not a full file read — the cold-start property
  ``benchmarks/bench_archive_coldstart.py`` measures.

The manifest is UTF-8 JSON::

    {"format_version": 1, "byte_order": "little",
     "pool": {"segments": [{"name": "pool.0", "count": 412}], "count": 412},
     "generations": [
        {"gid": 1, "date": "2024-09-11",
         "annotator_signature": "...", "index_signature": "...",
         "meta": {"siblings": {...}, "index": {...}, "state": {...}},
         "segments": {"siblings.records": [offset, length, crc32], ...}}]}

Round-trip example (the segment payload comes back bit-identical,
through a real file and ``mmap``):

>>> import tempfile, pathlib
>>> with tempfile.TemporaryDirectory() as tmp:
...     path = pathlib.Path(tmp) / "demo.sparch"
...     with ArchiveWriter.open(path) as writer:
...         gid = writer.append_generation(
...             "2024-09-11", {"demo.blob": b"\\x01\\x02\\x03"}, {"kind": "demo"})
...     with ArchiveReader.open(path) as reader:
...         generation = reader.generations[-1]
...         (generation.date, bytes(generation.segment("demo.blob")))
('2024-09-11', b'\\x01\\x02\\x03')
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from typing import Iterable

from repro.obs.tracing import trace
from repro.storage.format import (
    FOOTER,
    PAGE_SIZE,
    ArchiveFormatError,
    MappedBuffer,
    align_up,
    check_header,
    crc32_view,
    pack_footer,
    pack_header,
    read_footer,
    scan_last_footer,
)

#: Conventional file extension, used by CLI help text only.
EXTENSION = ".sparch"


class Generation:
    """One archived date: its manifest entry plus lazy segment views.

    Handed out by :class:`ArchiveReader`; all attribute access is
    read-only.  ``meta`` holds the per-kind JSON metadata the encoders
    in :mod:`repro.storage.index_io` / :mod:`repro.storage.substrate_io`
    recorded at write time.
    """

    __slots__ = ("gid", "date", "meta", "annotator_signature",
                 "index_signature", "_reader", "_segments")

    def __init__(self, reader: "ArchiveReader", entry: dict):
        self._reader = reader
        self.gid = int(entry["gid"])
        self.date = str(entry["date"])
        self.meta = dict(entry.get("meta", {}))
        self.annotator_signature = entry.get("annotator_signature")
        self.index_signature = entry.get("index_signature")
        self._segments = {
            name: tuple(desc) for name, desc in entry["segments"].items()
        }

    def segment(self, name: str) -> memoryview:
        """CRC-validated zero-copy view of one named segment."""
        try:
            offset, length, crc = self._segments[name]
        except KeyError:
            raise ArchiveFormatError(
                f"generation {self.gid} ({self.date}) has no segment "
                f"{name!r}; it holds {sorted(self._segments)}"
            ) from None
        return self._reader._segment_view(name, offset, length, crc)

    def segment_names(self) -> list[str]:
        """The names of every segment this generation recorded."""
        return sorted(self._segments)


class ArchiveReader:
    """Zero-copy, CRC-checked view of a ``.sparch`` archive.

    Construction maps the file and validates header, footer, and
    manifest checksums (over the mapping — no copies).  Segment
    payloads are validated once, lazily, on first access.  Keep the
    reader open for as long as any returned :class:`memoryview` (or any
    mapped index built from one) is alive.
    """

    def __init__(self, buffer: MappedBuffer, recover: bool = False):
        self._buffer = buffer
        self._validated: set[str] = set()
        view = buffer.view
        self.page_size = check_header(view)
        #: File size at the last committed footer — ``len(view)`` for an
        #: untorn archive, smaller when :attr:`recovered` a torn tail.
        self.committed_end = len(view)
        #: Whether a torn tail was skipped to reach the manifest.
        self.recovered = False
        try:
            offset, length, crc = read_footer(view)
            if crc32_view(view[offset:offset + length]) != crc:
                raise ArchiveFormatError(
                    "archive manifest checksum mismatch: file is corrupt"
                )
        except ArchiveFormatError:
            if not recover:
                raise
            found = scan_last_footer(view)
            if found is None:
                raise ArchiveFormatError(
                    "no committed generation to recover: the archive has "
                    "no valid footer anywhere"
                ) from None
            offset, length, crc, self.committed_end = found
            self.recovered = self.committed_end != len(view)
        manifest_view = view[offset:offset + length]
        try:
            manifest = json.loads(bytes(manifest_view).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArchiveFormatError(f"malformed archive manifest: {exc}") from exc
        byte_order = manifest.get("byte_order")
        if byte_order != sys.byteorder:
            raise ArchiveFormatError(
                f"archive written on a {byte_order}-endian host cannot be "
                f"mapped on this {sys.byteorder}-endian host"
            )
        self.manifest = manifest
        try:
            self.generations = [
                Generation(self, entry) for entry in manifest["generations"]
            ]
            self._pool_entries = list(manifest["pool"]["segments"])
            self.pool_count = int(manifest["pool"]["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveFormatError(f"malformed archive manifest: {exc}") from exc

    @classmethod
    def open(
        cls, path: "str | pathlib.Path", recover: bool = False
    ) -> "ArchiveReader":
        """Map *path* and validate its manifest; raises
        :class:`ArchiveFormatError` on anything suspect.

        With ``recover=True`` a torn tail (crash mid-append) is skipped
        by scanning backward for the last committed footer instead of
        rejecting the archive; :attr:`recovered` reports whether that
        happened and :attr:`committed_end` where the commit ends.  The
        mapped file is *not* modified — truncation is the writer's job.
        """
        with trace("archive.attach"):
            buffer = MappedBuffer(path)
            try:
                return cls(buffer, recover=recover)
            except ArchiveFormatError:
                buffer.close()
                raise

    # -- access ---------------------------------------------------------------

    def _segment_view(
        self, name: str, offset: int, length: int, crc: int
    ) -> memoryview:
        view = self._buffer.view
        if offset < 0 or offset + length > len(view):
            raise ArchiveFormatError(
                f"segment {name!r} extends past end of archive"
            )
        segment = view[offset:offset + length]
        key = f"{name}@{offset}"
        if key not in self._validated:
            if crc32_view(segment) != crc:
                raise ArchiveFormatError(
                    f"segment {name!r} checksum mismatch: archive is corrupt"
                )
            self._validated.add(key)
        return segment

    def pool_names(self) -> list[str]:
        """The interned domain pool, gid order, across all pool segments."""
        names: list[str] = []
        for entry in self._pool_entries:
            descriptor = entry["segment"]
            payload = self._segment_view(
                entry["name"], descriptor[0], descriptor[1], descriptor[2]
            )
            if len(payload):
                names.extend(bytes(payload).decode("utf-8").split("\n"))
            else:
                # Legacy archives written before append_pool rejected
                # empty names: a single "" joins to a zero-length
                # payload.  (Two or more empty names still produce the
                # "\n" separators, so only count == 1 can land here.)
                names.extend([""] * int(entry.get("count", 0)))
        if len(names) != self.pool_count:
            raise ArchiveFormatError(
                f"domain pool holds {len(names)} names but the manifest "
                f"promises {self.pool_count}"
            )
        return names

    def latest(self, kind: str) -> Generation | None:
        """The newest generation whose ``meta`` records *kind*."""
        for generation in reversed(self.generations):
            if kind in generation.meta:
                return generation
        return None

    def generations_by_date(self, kind: str) -> dict[str, Generation]:
        """ISO date → newest generation recording *kind* for that date."""
        by_date: dict[str, Generation] = {}
        for generation in self.generations:
            if kind in generation.meta:
                by_date[generation.date] = generation
        return by_date

    def verify(self) -> int:
        """Eagerly CRC-check every segment; returns the count checked.

        The lazy per-access validation means a never-read segment's
        corruption goes unnoticed; operators can run this as a scrub.
        """
        checked = 0
        for generation in self.generations:
            for name in generation.segment_names():
                generation.segment(name)
                checked += 1
        for entry in self._pool_entries:
            descriptor = entry["segment"]
            self._segment_view(
                entry["name"], descriptor[0], descriptor[1], descriptor[2]
            )
            checked += 1
        return checked

    def close(self) -> None:
        """Release the underlying mapping (idempotent)."""
        self._buffer.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ArchiveWriter:
    """Append-only ``.sparch`` writer.

    Opening an existing archive loads its manifest; opening a missing
    path creates a fresh archive.  Appends accumulate in the file
    immediately (segments are written as they arrive), but the new
    manifest + footer land only on :meth:`commit` — a crash mid-append
    leaves the previous footer bytes intact *behind* the partial tail,
    and the reader rejects the torn tail via the footer/manifest CRC.
    Use as a context manager; the normal exit path commits.
    """

    def __init__(self, path: "str | pathlib.Path", manifest: dict, end: int):
        self.path = pathlib.Path(path)
        self._manifest = manifest
        self._end = end  # next byte to append at (pre-alignment)
        self._committed_end = end
        self._file = open(self.path, "r+b")
        self._dirty = False
        self._next_gid = 1 + max(
            (int(e["gid"]) for e in manifest["generations"]), default=0
        )

    @classmethod
    def open(
        cls, path: "str | pathlib.Path", recover: bool = True
    ) -> "ArchiveWriter":
        """Open *path* for appending, creating a fresh archive if absent.

        Recovery is the *default*: a torn tail left by a crash between
        segment writes and :meth:`commit` (or by a truncated copy) is
        located by the backward footer scan and the file is truncated
        back to the committed end before appending resumes — so kill -9
        at any point costs only the uncommitted tail, never the archive.
        Pass ``recover=False`` to reject a torn archive instead (the
        conservative mode ``repro archive verify`` relies on).
        """
        path = pathlib.Path(path)
        if not path.exists():
            manifest = {
                "format_version": 1,
                "byte_order": sys.byteorder,
                "page_size": PAGE_SIZE,
                "pool": {"segments": [], "count": 0},
                "generations": [],
            }
            path.write_bytes(pack_header())
            writer = cls(path, manifest, PAGE_SIZE)
            writer._dirty = True  # force a manifest+footer even if empty
            return writer
        try:
            with ArchiveReader.open(path, recover=recover) as reader:
                manifest = reader.manifest
                # Appends go after the current manifest; the old footer
                # bytes are simply abandoned inside the next alignment gap.
                end = reader.committed_end
                torn = reader.recovered
            restarted = False
        except ArchiveFormatError:
            if not recover:
                raise
            # No committed footer anywhere.  If the header is intact
            # this is a crash before the *first* commit — nothing was
            # ever durable, so restart the archive empty.  Anything
            # else (bad magic, foreign file) stays an error.
            with MappedBuffer(path) as buffer:
                check_header(buffer.view)
            manifest = {
                "format_version": 1,
                "byte_order": sys.byteorder,
                "page_size": PAGE_SIZE,
                "pool": {"segments": [], "count": 0},
                "generations": [],
            }
            end, torn, restarted = PAGE_SIZE, True, True
        writer = cls(path, manifest, end)
        if restarted:
            writer._dirty = True  # restarted empty: commit a footer
        if torn:
            # Drop the torn tail now so a crash *during this session*
            # cannot stack a second torn region behind the first.
            writer._file.truncate(end)
            writer._file.flush()
            os.fsync(writer._file.fileno())
        return writer

    # -- appending ------------------------------------------------------------

    def _append_segment(self, payload) -> list:
        """Write one page-aligned segment; returns [offset, length, crc]."""
        offset = align_up(self._end)
        self._file.seek(offset)
        self._file.write(payload)
        self._end = offset + len(payload)
        self._dirty = True
        return [offset, len(payload), crc32_view(payload)]

    def append_pool(self, names: Iterable[str]) -> int:
        """Append new interned domain names (gid order continues).

        Callers pass only the names *beyond* the archive's current
        ``pool.count`` — gids are positional, so the archived pool must
        stay a prefix of the writer's pool.  Returns the new count.
        """
        names = list(names)
        if names:
            if any("\n" in name for name in names):
                raise ArchiveFormatError(
                    "domain names must not contain newlines"
                )
            if any(not name for name in names):
                # An all-empty batch joins to a zero-length payload the
                # reader's count check would reject — refuse up front.
                raise ArchiveFormatError("domain names must not be empty")
            payload = "\n".join(names).encode("utf-8")
            pool = self._manifest["pool"]
            entry_name = f"pool.{len(pool['segments'])}"
            pool["segments"].append(
                {
                    "name": entry_name,
                    "count": len(names),
                    "segment": self._append_segment(payload),
                }
            )
            pool["count"] = int(pool["count"]) + len(names)
        return int(self._manifest["pool"]["count"])

    def append_generation(
        self,
        date: str,
        segments: dict,
        meta: dict,
        annotator_signature: "str | None" = None,
        index_signature: "str | None" = None,
    ) -> int:
        """Append one generation (segments + manifest entry); returns gid.

        *segments* maps segment name → bytes-like payload; *meta* is the
        JSON-able metadata the matching decoder needs (keyed by kind:
        ``"siblings"``, ``"index"``, ``"state"``).
        """
        with trace("archive.append", items=len(segments)):
            descriptors = {
                name: self._append_segment(payload)
                for name, payload in segments.items()
            }
        gid = self._next_gid
        self._next_gid += 1
        self._manifest["generations"].append(
            {
                "gid": gid,
                "date": date,
                "annotator_signature": annotator_signature,
                "index_signature": index_signature,
                "meta": meta,
                "segments": descriptors,
            }
        )
        self._dirty = True
        return gid

    @property
    def pool_count(self) -> int:
        """How many domain names the archive's pool currently holds."""
        return int(self._manifest["pool"]["count"])

    @property
    def generation_dates(self) -> list[str]:
        """ISO dates of every generation already in the manifest."""
        return [str(e["date"]) for e in self._manifest["generations"]]

    def has_generation(
        self,
        date: str,
        kind: str,
        annotator_signature: "str | None" = None,
    ) -> bool:
        """Whether a generation for *date* already records *kind*.

        With *annotator_signature*, the generation must also match it —
        the idempotence check appenders use: a date whose routing
        changed since it was archived does *not* count as present, so
        the recomputed generation is appended and (being newest) wins
        on read.
        """
        for entry in self._manifest["generations"]:
            if (
                str(entry["date"]) == date
                and kind in entry.get("meta", {})
                and (
                    annotator_signature is None
                    or entry.get("annotator_signature") == annotator_signature
                )
            ):
                return True
        return False

    # -- durability -----------------------------------------------------------

    def commit(self) -> None:
        """Write the new manifest + footer and fsync (idempotent)."""
        if not self._dirty:
            return
        with trace("archive.commit"):
            payload = json.dumps(self._manifest, separators=(",", ":")).encode(
                "utf-8"
            )
            offset = align_up(self._end)
            self._file.seek(offset)
            self._file.write(payload)
            self._file.write(
                pack_footer(offset, len(payload), crc32_view(payload))
            )
            self._end = offset + len(payload) + FOOTER.size
            self._file.truncate(self._end)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._committed_end = self._end
            self._dirty = False

    def close(self) -> None:
        """Commit pending appends and release the file handle."""
        if self._file.closed:
            return
        try:
            self.commit()
        finally:
            self._file.close()

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    def abort(self) -> None:
        """Discard uncommitted appends and close.

        Readers locate the manifest through the *last 32 bytes*, so an
        uncommitted tail would render the file unreadable; truncating
        back to the committed footer keeps every committed generation
        servable.  (A fresh never-committed archive stays footer-less
        and is rejected cleanly on open.)
        """
        if self._file.closed:
            return
        try:
            self._file.truncate(self._committed_end)
            self._file.flush()
        finally:
            self._file.close()

    def __del__(self):  # pragma: no cover - defensive
        if hasattr(self, "_file") and not self._file.closed:
            self._file.close()
