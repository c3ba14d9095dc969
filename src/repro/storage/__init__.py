"""Persistent snapshot archive: the ``.sparch`` on-disk format.

The detection pipeline is fast but not free; a production service must
not recompute interned pools, columnar substrate state, and compiled
lookup indexes on every process start.  This package persists all three
into a single versioned, CRC-checked, page-aligned archive file that
readers attach to via ``mmap``.  It is the repo's one binary artifact:
``detect --archive`` publishes into it, ``lookup`` and ``serve
--archive`` answer from it.

* :mod:`repro.storage.format` — byte-level primitives (pages, CRCs,
  header/footer, :class:`~repro.storage.format.MappedBuffer`).
* :mod:`repro.storage.archive` — the append-only
  :class:`~repro.storage.archive.ArchiveWriter` and the zero-copy
  :class:`~repro.storage.archive.ArchiveReader` over the manifest of
  per-date *generations*.
* :mod:`repro.storage.index_io` — compiled
  :class:`~repro.serving.index.SiblingLookupIndex` blobs and the
  44-byte pair record layout; the mapped load path serves
  longest-prefix-match lookups straight from the page cache without
  materializing Python pair objects up front.
* :mod:`repro.storage.substrate_io` — the columnar substrate's interned
  pool, CSR posting lists and packed Step-3 counters, plus per-date
  sibling sets, so ``detect_series`` resumes a partially-built series
  instead of recomputing it.

The full byte-level specification lives in ``docs/STORAGE.md``.
"""

from repro.storage.archive import ArchiveReader, ArchiveWriter
from repro.storage.format import ArchiveFormatError

__all__ = ["ArchiveFormatError", "ArchiveReader", "ArchiveWriter"]
