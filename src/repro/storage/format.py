"""Low-level ``.sparch`` on-disk primitives: pages, CRCs, mmap views.

The persistent snapshot archive (:mod:`repro.storage.archive`) is built
on the byte-level machinery defined here:

* **page alignment** — every archive segment starts on a
  :data:`PAGE_SIZE` boundary so a reader can hand out ``mmap``-backed
  :class:`memoryview` slices that cast cleanly to typed arrays
  (``view.cast("Q")`` etc.) and fault in only the pages a query
  touches;
* **checksums** — :func:`crc32_view` computes a CRC-32 over any buffer
  *without copying it*, which is what lets the archive reader validate
  multi-megabyte segments straight out of the page cache;
* **mapped files** — :class:`MappedBuffer` wraps ``open`` + ``mmap``
  behind one context manager and exposes the file as a read-only
  :class:`memoryview`.

File skeleton (all fixed-width integers little-endian, the native
order of every platform this repo targets — the manifest records the
writer's byte order and readers refuse a mismatch rather than decode
byte-swapped arrays)::

    offset          size   field
    0               8      magic  b"SPARCH1\\n"
    8               2      format version (currently 1)
    10              2      reserved (zero)
    12              4      page size P (4096)
    16              P-16   zero padding to the first page boundary
    P * k           ...    segments, each starting on a page boundary
    align(P)        M      manifest: UTF-8 JSON describing every segment
    EOF-32          32     footer: magic b"SPFOOT1\\n", manifest offset
                           (u64), manifest length (u64), manifest
                           CRC-32 (u32), reserved (u32)

Readers find the manifest through the footer (fixed size, at EOF), so
appending new segments + a new manifest + a new footer never rewrites
existing bytes — old generations stay mapped and valid.  Every failure
mode raises :class:`ArchiveFormatError`; loaders must reject rather
than guess.

>>> align_up(0)
0
>>> align_up(1)
4096
>>> align_up(4096)
4096
>>> crc32_view(memoryview(b"sibling")) == crc32_view(b"sibling")
True
"""

from __future__ import annotations

import mmap
import pathlib
import struct
import zlib

MAGIC = b"SPARCH1\n"
FOOTER_MAGIC = b"SPFOOT1\n"
FORMAT_VERSION = 1

#: Segment alignment; also the header's reserved prefix size.
PAGE_SIZE = 4096

#: The fixed 16-byte preamble at offset 0 (rest of page 0 is zero).
HEADER = struct.Struct("<8sHHI")

#: The fixed 32-byte trailer at EOF.
FOOTER = struct.Struct("<8sQQII")


class ArchiveFormatError(ValueError):
    """Raised when an archive file is malformed, corrupt, truncated, or
    from an unsupported format version."""


def align_up(offset: int, page: int = PAGE_SIZE) -> int:
    """Round *offset* up to the next multiple of *page*.

    >>> align_up(4097)
    8192
    """
    return (offset + page - 1) // page * page


def crc32_view(buffer) -> int:
    """CRC-32 of any bytes-like *buffer* without copying it.

    ``zlib.crc32`` accepts the buffer protocol directly, so passing a
    ``mmap``-backed :class:`memoryview` checksums straight out of the
    page cache — the no-copy validation path of the archive reader.

    >>> crc32_view(b"") == 0
    True
    """
    return zlib.crc32(buffer) & 0xFFFFFFFF


def pack_header(page_size: int = PAGE_SIZE) -> bytes:
    """The file's first *page_size* bytes: preamble + zero padding."""
    head = HEADER.pack(MAGIC, FORMAT_VERSION, 0, page_size)
    return head + b"\x00" * (page_size - len(head))


def pack_footer(manifest_offset: int, manifest_length: int, crc: int) -> bytes:
    """The fixed 32-byte trailer pointing at the current manifest."""
    return FOOTER.pack(FOOTER_MAGIC, manifest_offset, manifest_length, crc, 0)


def check_header(view) -> int:
    """Validate the preamble of a mapped archive; returns the page size."""
    if len(view) < HEADER.size + FOOTER.size:
        raise ArchiveFormatError(
            "truncated archive: shorter than header + footer"
        )
    magic, version, _reserved, page_size = HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ArchiveFormatError(
            f"not a snapshot archive (bad magic {bytes(magic)!r})"
        )
    if version != FORMAT_VERSION:
        raise ArchiveFormatError(
            f"unsupported archive format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if page_size <= 0 or page_size % 8:
        raise ArchiveFormatError(f"invalid archive page size {page_size}")
    return page_size


def read_footer(view) -> tuple[int, int, int]:
    """Validate the trailer; returns (manifest offset, length, CRC-32)."""
    magic, offset, length, crc, _reserved = FOOTER.unpack_from(
        view, len(view) - FOOTER.size
    )
    if magic != FOOTER_MAGIC:
        raise ArchiveFormatError(
            "archive has no valid footer (torn append or truncation); "
            "reopen with recover=True (or `repro archive repair`) to "
            "truncate back to the last committed generation"
        )
    if offset + length > len(view) - FOOTER.size:
        raise ArchiveFormatError("archive footer points past end of file")
    return offset, length, crc


def _footer_at(view, position: int) -> "tuple[int, int, int] | None":
    """Parse and validate a footer candidate ending the commit at
    *position*; ``None`` unless magic, adjacency, and manifest CRC all
    hold."""
    if position < PAGE_SIZE or position + FOOTER.size > len(view):
        return None
    magic, offset, length, crc, _reserved = FOOTER.unpack_from(view, position)
    if magic != FOOTER_MAGIC:
        return None
    # The commit protocol writes manifest then footer back to back, so
    # a genuine footer sits immediately after the manifest it points at.
    # Adjacency rejects stale magic bytes that survive inside segment
    # payloads or alignment gaps.
    if offset < PAGE_SIZE or offset + length != position:
        return None
    if crc32_view(view[offset:offset + length]) != crc:
        return None
    return offset, length, crc


#: Backward-scan chunk size; overlapped by ``len(FOOTER_MAGIC) - 1`` so
#: a magic straddling a chunk boundary is still found.
_SCAN_CHUNK = 1 << 20


def scan_last_footer(view) -> "tuple[int, int, int, int] | None":
    """Find the newest committed footer anywhere in *view*.

    The recovery primitive behind ``ArchiveReader.open(..., recover=True)``:
    a crash between segment writes and :func:`pack_footer` leaves a torn
    tail *after* the last committed footer, so scanning backward for the
    newest ``FOOTER_MAGIC`` whose manifest adjacency and CRC both check
    out recovers every committed generation.  Returns ``(manifest
    offset, manifest length, crc, committed end)`` — *committed end* is
    the file size the last successful :meth:`ArchiveWriter.commit`
    truncated to — or ``None`` when no valid footer exists (never
    committed, or corrupted beyond the commit protocol's guarantees).
    """
    # Fast path: an untorn archive ends in its footer.
    tail = len(view) - FOOTER.size
    parsed = _footer_at(view, tail)
    if parsed is not None:
        return (*parsed, len(view))
    overlap = len(FOOTER_MAGIC) - 1
    high = len(view)  # exclusive search bound for magic start positions
    while high > PAGE_SIZE:
        low = max(PAGE_SIZE, high - _SCAN_CHUNK)
        chunk = bytes(view[low:min(high + overlap, len(view))])
        found = chunk.rfind(FOOTER_MAGIC)
        while found != -1:
            parsed = _footer_at(view, low + found)
            if parsed is not None:
                return (*parsed, low + found + FOOTER.size)
            found = chunk.rfind(FOOTER_MAGIC, 0, found)
        high = low
    return None


class MappedBuffer:
    """A read-only ``mmap`` of one file behind a :class:`memoryview`.

    The attach primitive: the archive reader keeps one of these open
    for the lifetime of every view it hands out.  Closing is
    idempotent; views must not be used after :meth:`close`.
    """

    def __init__(self, path: "str | pathlib.Path"):
        self.path = pathlib.Path(path)
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise ArchiveFormatError(
                f"cannot open {self.path}: {exc}"
            ) from exc
        try:
            if self.path.stat().st_size == 0:
                raise ArchiveFormatError(f"{self.path} is empty")
            self._mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ArchiveFormatError:
            self._file.close()
            raise
        except (OSError, ValueError) as exc:
            self._file.close()
            raise ArchiveFormatError(
                f"cannot map {self.path}: {exc}"
            ) from exc
        self.view = memoryview(self._mmap)

    def __len__(self) -> int:
        return len(self.view)

    def close(self) -> None:
        """Release the view, the mapping, and the file descriptor.

        If derived views are still referenced — e.g. held alive by an
        in-flight exception traceback — the mapping itself cannot be
        closed yet; it is left for the garbage collector to finalize
        once those references die, while the descriptor closes now.
        """
        if self._mmap is not None:
            self.view.release()
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._file.close()
            self._mmap = None

    def __enter__(self) -> "MappedBuffer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "ArchiveFormatError",
    "FOOTER",
    "FOOTER_MAGIC",
    "FORMAT_VERSION",
    "HEADER",
    "MAGIC",
    "MappedBuffer",
    "PAGE_SIZE",
    "align_up",
    "check_header",
    "crc32_view",
    "pack_footer",
    "pack_header",
    "read_footer",
    "scan_last_footer",
]
