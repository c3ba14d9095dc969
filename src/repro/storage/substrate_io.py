"""Columnar substrate state and sibling sets inside the archive.

Two encoders/decoders, both keyed off the archive's shared interned
domain pool (gids are positions into it, so the pool segments must be
restored into — or adopted by — the substrate before anything here is
decoded):

* **sibling sets** (kind ``"siblings"``) — one fixed 38-byte record
  per pair (prefixes, bit-exact similarity double, family domain
  counts) plus a CSR of shared-domain gids, enough to rebuild the
  exact :class:`~repro.core.siblings.SiblingSet` a detection run
  produced.  This is what lets ``detect_series(..., archive=...)``
  return already-archived dates without recomputing them.
* **columnar state** (kind ``"state"``) — the full persistent
  :class:`~repro.core.substrate._ColumnarState` of the *newest*
  archived date: prefix row tables, group sizes, per-row CSR posting
  lists, the per-domain membership transpose (tombstones included, so
  future delta patching continues exactly where the archived run
  stopped), and the packed Step-3 counter.  Restoring it skips the
  interning, CSR build, *and* the full Step-3 accumulation — the
  resume path pays only Steps 1-2 on the resume date.

Safety: every state generation records the
:meth:`~repro.core.domainsets.PrefixDomainIndex.content_signature` of
the index it describes.  :func:`restore_state` only attaches when the
freshly rebuilt index hashes to the same signature; any mismatch (a
changed scenario, annotator, or date grid) falls back to a full
rebuild rather than serving stale counters.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from typing import Callable, Iterable

from repro.core.kernels import sorted_columns
from repro.core.siblings import SiblingPair, SiblingSet, pair_order
from repro.core.substrate import _ColumnarState
from repro.nettypes.prefix import Prefix
from repro.storage.archive import Generation
from repro.storage.format import ArchiveFormatError

#: Per-pair sibling record: v4 value/length, v6 value (16B)/length,
#: similarity double, v4/v6 domain counts.
_SIBLING_RECORD = struct.Struct("<IB16sBdII")

#: v4 prefix row record / v6 prefix row record.
_V4_PREFIX = struct.Struct("<IB")
_V6_PREFIX = struct.Struct("<16sB")

#: Tombstoned dom position marker in the ``state.dom_gids`` segment.
_NO_DOMAIN = 0xFFFFFFFF

_LOW32 = 0xFFFFFFFF

#: Manifest meta kinds.
SIBLINGS_KIND = "siblings"
STATE_KIND = "state"


def _csr(lists: Iterable[Iterable[int]], typecode: str) -> tuple[bytes, bytes]:
    """Flatten integer lists into (data, u64 offsets) native segments."""
    data = array(typecode)
    offsets = array("Q", [0])
    for items in lists:
        data.extend(items)
        offsets.append(len(data))
    return data.tobytes(), offsets.tobytes()


def _bytes(generation: Generation, name: str, typecode: str) -> memoryview:
    """Segment *name*, checked to hold whole *typecode* items."""
    raw = generation.segment(name)
    itemsize = array(typecode).itemsize
    if len(raw) % itemsize:
        raise ArchiveFormatError(
            f"segment {name!r} holds {len(raw)} bytes, not a multiple of "
            f"its {itemsize}-byte items"
        )
    return raw


def _view(generation: Generation, name: str, typecode: str) -> memoryview:
    """Segment *name* as a zero-copy *typecode* view."""
    return _bytes(generation, name, typecode).cast(typecode)


def _column(generation: Generation, name: str, typecode: str) -> array:
    """Segment *name* copied into an owned ``array(typecode)``."""
    column = array(typecode)
    column.frombytes(_bytes(generation, name, typecode))
    return column


def _check_offsets(offsets, data_length: int, name: str) -> None:
    """CSR *offsets* must start at 0, never decrease, and end at the data."""
    if (
        not offsets
        or offsets[0] != 0
        or offsets[-1] != data_length
        or list(offsets) != sorted(offsets)
    ):
        raise ArchiveFormatError(f"segment {name!r} holds malformed CSR offsets")


def _csr_views(generation: Generation, name: str, typecode: str):
    """The (data, offsets) cast views of one CSR segment pair."""
    data = _view(generation, f"{name}_data", typecode)
    offsets = _view(generation, f"{name}_offsets", "Q")
    _check_offsets(offsets, len(data), f"{name}_offsets")
    return data, offsets


def _csr_lists(generation: Generation, name: str, typecode: str) -> list[list[int]]:
    """Decode one CSR segment pair back into a list of lists."""
    data, offsets = _csr_views(generation, name, typecode)
    return [
        list(data[offsets[row]:offsets[row + 1]])
        for row in range(len(offsets) - 1)
    ]


def annotator_digest(annotator) -> str:
    """Stable hex digest of a :class:`~repro.bgp.routeviews.
    PrefixAnnotator`'s content.

    :meth:`~repro.bgp.routeviews.PrefixAnnotator.signature` returns
    nested frozensets — content-equal but not serializable and with no
    stable iteration order.  The archive needs a *textual* identity to
    store per generation, so it hashes each RIB's sorted
    :meth:`~repro.bgp.rib.Rib.route_text` (cached per RIB mutation
    count), a ``--`` line after each, and the missing-annotation
    fraction; equal signatures produce equal digests on any host or run.
    """
    import hashlib

    digest = hashlib.sha256()
    for rib in (annotator.primary, annotator.fallback):
        digest.update(rib.route_text())
        digest.update(b"--\n")
    digest.update(repr(annotator.missing_fraction).encode("ascii"))
    return digest.hexdigest()


# -- sibling sets -------------------------------------------------------------


def siblings_segments(
    siblings: SiblingSet, intern: Callable[[str], int]
) -> tuple[dict, dict]:
    """Encode one detection result into archive segments.

    *intern* maps a domain name to its pool gid (the
    :meth:`~repro.core.substrate.DomainPool.intern` of the archive's
    pool); every shared domain is interned, in sorted order so new gids
    do not follow the hash-seeded set order, and the caller's pool —
    which it must persist via
    :meth:`~repro.storage.archive.ArchiveWriter.append_pool` — covers
    all gids written here.
    """
    records = bytearray()
    gid_lists: list[list[int]] = []
    ordered = sorted(siblings, key=pair_order)
    for pair in ordered:
        records += _SIBLING_RECORD.pack(
            pair.v4_prefix.value,
            pair.v4_prefix.length,
            pair.v6_prefix.value.to_bytes(16, "big"),
            pair.v6_prefix.length,
            pair.similarity,
            pair.v4_domain_count,
            pair.v6_domain_count,
        )
        gid_lists.append(
            sorted(intern(domain) for domain in sorted(pair.shared_domains))
        )
    gids_data, gids_offsets = _csr(gid_lists, "I")
    segments = {
        "siblings.records": bytes(records),
        "siblings.gids_data": gids_data,
        "siblings.gids_offsets": gids_offsets,
    }
    meta = {"date": siblings.date.isoformat(), "pairs": len(ordered)}
    return segments, meta


def load_siblings(generation: Generation, pool_names: list[str]) -> SiblingSet:
    """Rebuild the exact :class:`SiblingSet` one generation archived."""
    import datetime

    meta = generation.meta[SIBLINGS_KIND]
    count = int(meta["pairs"])
    records = generation.segment("siblings.records")
    if len(records) != count * _SIBLING_RECORD.size:
        raise ArchiveFormatError(
            f"siblings records segment holds {len(records)} bytes, "
            f"expected {count * _SIBLING_RECORD.size}"
        )
    gids_data, gids_offsets = _csr_views(generation, "siblings.gids", "I")
    result = SiblingSet(datetime.date.fromisoformat(meta["date"]))
    for position in range(count):
        (
            v4_value,
            v4_length,
            v6_bytes,
            v6_length,
            similarity,
            v4_count,
            v6_count,
        ) = _SIBLING_RECORD.unpack_from(
            records, position * _SIBLING_RECORD.size
        )
        shared = frozenset(
            pool_names[gid]
            for gid in gids_data[gids_offsets[position]:gids_offsets[position + 1]]
        )
        result.add(
            SiblingPair(
                v4_prefix=Prefix(4, v4_value, v4_length),
                v6_prefix=Prefix(6, int.from_bytes(v6_bytes, "big"), v6_length),
                similarity=similarity,
                shared_domains=shared,
                v4_domain_count=v4_count,
                v6_domain_count=v6_count,
            )
        )
    return result


# -- columnar state -----------------------------------------------------------


def _row_gids(row: int, overlay: dict, data, offsets) -> list[int]:
    """One row's sorted domain gids: overlay if patched, else CSR.

    The same precedence as ``_ColumnarState.v4_gids`` but *without*
    populating its memo — exporting every row through the memoizing
    accessor would pin a frozenset per prefix into the live state for
    rows no query ever touched.
    """
    gids = overlay.get(row)
    if gids is None:
        if row + 1 >= len(offsets):
            return []
        return sorted(data[offsets[row]:offsets[row + 1]])
    return sorted(gids)


def state_segments(state: _ColumnarState) -> tuple[dict, dict]:
    """Encode one prepared columnar state into archive segments.

    The per-row CSR posting lists are re-derived row by row with the
    overlay taking precedence over the raw CSR arrays: a delta-patched
    state keeps churned rows only in its overlay, and that combined
    view is the one representation that is always current.  The
    restored state therefore has a complete CSR and an empty overlay —
    identical answers, canonical layout.
    """
    v4_rows = len(state.v4_prefixes)
    v6_rows = len(state.v6_prefixes)
    v4_prefix_records = b"".join(
        _V4_PREFIX.pack(prefix.value, prefix.length)
        for prefix in state.v4_prefixes
    )
    v6_prefix_records = b"".join(
        _V6_PREFIX.pack(prefix.value.to_bytes(16, "big"), prefix.length)
        for prefix in state.v6_prefixes
    )
    v4_csr_data, v4_csr_offsets = _csr(
        (
            _row_gids(
                row, state._v4_gid_sets, state.v4_post_data,
                state.v4_post_offsets,
            )
            for row in range(v4_rows)
        ),
        "I",
    )
    v6_csr_data, v6_csr_offsets = _csr(
        (
            _row_gids(
                row, state._v6_gid_sets, state.v6_post_data,
                state.v6_post_offsets,
            )
            for row in range(v6_rows)
        ),
        "I",
    )
    bases_data, bases_offsets = _csr(state.dom_bases, "Q")
    rows_data, rows_offsets = _csr(state.dom_rows, "I")
    # The counter serializes as sorted columns: u64 keys, u32 counts.
    if state.counts is not None:
        counts_keys, counts_vals = sorted_columns(state.counts)
        counts_key_bytes = counts_keys.tobytes()
        counts_val_bytes = counts_vals.tobytes()
        pair_count = len(state.counts)
    else:
        counts_key_bytes = b""
        counts_val_bytes = b""
        pair_count = 0
    segments = {
        "state.v4_prefixes": v4_prefix_records,
        "state.v6_prefixes": v6_prefix_records,
        "state.v4_sizes": state.v4_sizes.tobytes(),
        "state.v6_sizes": state.v6_sizes.tobytes(),
        "state.v4_csr_data": v4_csr_data,
        "state.v4_csr_offsets": v4_csr_offsets,
        "state.v6_csr_data": v6_csr_data,
        "state.v6_csr_offsets": v6_csr_offsets,
        "state.dom_bases_data": bases_data,
        "state.dom_bases_offsets": bases_offsets,
        "state.dom_rows_data": rows_data,
        "state.dom_rows_offsets": rows_offsets,
        "state.counts_keys": counts_key_bytes,
        "state.counts_vals": counts_val_bytes,
    }
    meta = {
        "v4_rows": v4_rows,
        "v6_rows": v6_rows,
        "positions": len(state.dom_bases),
        "pairs": pair_count,
        "has_counts": state.counts is not None,
    }
    return segments, meta


def state_dom_gids(state: _ColumnarState, gid_of: Callable[[str], int]) -> bytes:
    """The ``state.dom_gids`` segment: pool gid per dom position.

    Separate from :func:`state_segments` because mapping positions back
    to domains needs the intern pool, which the substrate owns.
    Tombstoned (free) positions record :data:`_NO_DOMAIN`.
    """
    gids = array("I", [_NO_DOMAIN] * len(state.dom_bases))
    for domain, position in state.dom_pos.items():
        gids[position] = gid_of(domain)
    return gids.tobytes()


def restore_state(generation: Generation, pool_names: list[str]) -> _ColumnarState:
    """Decode one archived columnar state back into a live object.

    The caller (:meth:`repro.core.substrate.ColumnarSubstrate.
    adopt_state`) is responsible for verifying the state belongs to the
    index it is attached to — this function only rebuilds the
    in-memory representation.  Malformed segments — misaligned
    lengths, broken CSR offsets, gids outside the pool, counter keys
    out of order or outside the row tables, zero counts — raise
    :class:`~repro.storage.format.ArchiveFormatError`.
    """
    meta = generation.meta[STATE_KIND]
    v4_rows = int(meta["v4_rows"])
    v6_rows = int(meta["v6_rows"])

    state = object.__new__(_ColumnarState)
    v4_records = generation.segment("state.v4_prefixes")
    if len(v4_records) != v4_rows * _V4_PREFIX.size:
        raise ArchiveFormatError("v4 prefix table size mismatch")
    state.v4_prefixes = [
        Prefix(4, *_V4_PREFIX.unpack_from(v4_records, row * _V4_PREFIX.size))
        for row in range(v4_rows)
    ]
    v6_records = generation.segment("state.v6_prefixes")
    if len(v6_records) != v6_rows * _V6_PREFIX.size:
        raise ArchiveFormatError("v6 prefix table size mismatch")
    state.v6_prefixes = []
    for row in range(v6_rows):
        value_bytes, length = _V6_PREFIX.unpack_from(
            v6_records, row * _V6_PREFIX.size
        )
        state.v6_prefixes.append(
            Prefix(6, int.from_bytes(value_bytes, "big"), length)
        )
    state.v4_row_of = {
        prefix: row << 32 for row, prefix in enumerate(state.v4_prefixes)
    }
    state.v6_row_of = {
        prefix: row for row, prefix in enumerate(state.v6_prefixes)
    }
    state.v4_sizes = _column(generation, "state.v4_sizes", "I")
    state.v6_sizes = _column(generation, "state.v6_sizes", "I")
    if len(state.v4_sizes) != v4_rows or len(state.v6_sizes) != v6_rows:
        raise ArchiveFormatError("size columns do not match the row tables")

    for family in ("v4", "v6"):
        data = _column(generation, f"state.{family}_csr_data", "I")
        offsets = _column(generation, f"state.{family}_csr_offsets", "Q")
        _check_offsets(offsets, len(data), f"state.{family}_csr_offsets")
        setattr(state, f"{family}_post_data", data)
        setattr(state, f"{family}_post_offsets", offsets)

    state.dom_bases = _csr_lists(generation, "state.dom_bases", "Q")
    state.dom_rows = _csr_lists(generation, "state.dom_rows", "I")
    dom_gids = _view(generation, "state.dom_gids", "I")
    if len(dom_gids) != len(state.dom_bases):
        raise ArchiveFormatError("dom_gids/dom_bases length mismatch")
    state.dom_pos = {}
    state.free_positions = []
    pool_size = len(pool_names)
    for position, gid in enumerate(dom_gids):
        if gid == _NO_DOMAIN:
            state.free_positions.append(position)
        elif gid < pool_size:
            state.dom_pos[pool_names[gid]] = position
        else:
            raise ArchiveFormatError(
                f"dom_gids entry {gid} is outside the {pool_size}-name pool"
            )

    keys = _view(generation, "state.counts_keys", "Q")
    vals = _view(generation, "state.counts_vals", "I")
    if len(keys) != len(vals):
        raise ArchiveFormatError("counter keys/values length mismatch")
    if meta.get("has_counts", True):
        previous = -1
        for key, count in zip(keys, vals):
            if (
                key <= previous
                or not count
                or key >> 32 >= v4_rows
                or key & _LOW32 >= v6_rows
            ):
                raise ArchiveFormatError(
                    f"counter entry {key:#x}={count} is out of order, zero "
                    "or outside the row tables"
                )
            previous = key
        state.counts = Counter(dict(zip(keys, vals)))
    else:
        state.counts = None
    state._v4_gid_sets = {}
    state._v6_gid_sets = {}
    return state


__all__ = [
    "SIBLINGS_KIND",
    "STATE_KIND",
    "annotator_digest",
    "load_siblings",
    "restore_state",
    "siblings_segments",
    "state_dom_gids",
    "state_segments",
]
