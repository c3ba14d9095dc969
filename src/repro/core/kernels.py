"""Batch operations for Steps 3-4 of the columnar substrate.

The columnar substrate (:mod:`repro.core.substrate`) reduces Steps 3-4
to integer batch operations over packed ``(v4_row << 32) | v6_row``
keys and ``array('I')`` size columns.  This module holds them:

* :func:`accumulate_rowlists` — Step-3 accumulation into a ``Counter``
  of shared-domain counts per packed key;
* :func:`patch_counts` — the incremental retract/add patch of that
  counter, with exact-zero keys eliminated;
* :func:`sorted_columns` — the counter as sorted u64 key / u32 count
  columns, the wire format :mod:`repro.storage.substrate_io` persists;
* :func:`select_scored` — Step-4 metric scoring, the best-match folds
  and the mode's keep predicate.

The persistent Step-3 counter is a plain :class:`collections.Counter`.
``Counter`` updates over lists of plain ints run at C speed; on the
stock scenarios that beats an array-library backend, whose import
alone costs more than Steps 3-4 (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from array import array
from collections import Counter

from repro.core.metrics import METRICS_FROM_COUNTS

_LOW32 = 0xFFFFFFFF


def kernel_name() -> str:
    """Name of the Step 3-4 implementation, as benchmark records show it."""
    return "python"


def accumulate_rowlists(dom_bases, dom_rows) -> Counter:
    """Step-3 accumulation over aligned per-domain (bases, rows) lists.

    *dom_bases* holds each domain's premultiplied v4 rows
    (``row << 32``), *dom_rows* the aligned v6 rows; the result counts
    every ``base | row`` combination in one flat pass.
    """
    packed: list[int] = []
    append = packed.append
    extend = packed.extend
    for bases, rows in zip(dom_bases, dom_rows):
        if len(bases) == 1:
            base = bases[0]
            if len(rows) == 1:
                append(base | rows[0])
            else:
                extend([base | row for row in rows])
        else:
            for base in bases:
                extend([base | row for row in rows])
    return Counter(packed)


def patch_counts(
    counts: Counter, retract: "Counter | None", add: "Counter | None"
) -> None:
    """Apply a delta to *counts* in place: subtract *retract*, add *add*.

    Keys whose count reaches exactly zero are deleted, so the counter
    (and its :func:`sorted_columns`) never carries dead pairs.  Either
    operand may be ``None``.
    """
    if retract is not None:
        for key, retracted in retract.items():
            remaining = counts[key] - retracted
            if remaining:
                counts[key] = remaining
            else:
                del counts[key]
    if add is not None:
        counts.update(add)


def sorted_columns(counts: Counter) -> tuple[array, array]:
    """``(keys, counts)`` sorted by key: u64 keys, u32 counts."""
    ordered = sorted(counts)
    return array("Q", ordered), array("I", (counts[key] for key in ordered))


def select_scored(
    counts: Counter,
    v4_sizes,
    v6_sizes,
    metric: str,
    want_v4: bool,
    want_v6: bool,
    need_both: bool,
    tie_epsilon: float,
):
    """Step-4 scoring: metric evaluation + best-match keep predicate.

    Scores every counted pair with *metric* against the per-row size
    columns, folds best-per-v4-row and best-per-v6-row, and applies the
    mode predicate within *tie_epsilon* of the best.  Returns
    ``(kept_keys, kept_values, scored)``: the surviving packed keys in
    ascending order and their similarities, plus how many pairs scored
    positive — the substrate materializes shared-domain sets only for
    the survivors.
    """
    metric_fn = METRICS_FROM_COUNTS[metric]
    best_v4: dict[int, float] = {}
    best_v6: dict[int, float] = {}
    best_v4_get = best_v4.get
    best_v6_get = best_v6.get
    scored: list[tuple[int, float]] = []
    scored_append = scored.append
    for key, shared in counts.items():
        a = key >> 32
        b = key & _LOW32
        value = metric_fn(shared, v4_sizes[a], v6_sizes[b])
        if value <= 0.0:
            continue
        scored_append((key, value))
        if value > best_v4_get(a, 0.0):
            best_v4[a] = value
        if value > best_v6_get(b, 0.0):
            best_v6[b] = value
    kept: list[tuple[int, float]] = []
    for key, value in scored:
        a = key >> 32
        b = key & _LOW32
        is_best_v4 = want_v4 and value >= best_v4[a] - tie_epsilon
        is_best_v6 = want_v6 and value >= best_v6[b] - tie_epsilon
        if need_both:
            keep = is_best_v4 and is_best_v6
        else:
            keep = is_best_v4 or is_best_v6
        if keep:
            kept.append((key, value))
    # Ascending packed-key order: the counter's own order depends on its
    # patch history, so sorting keeps downstream iteration (and any
    # float sum over it, e.g. mean similarity) identical between an
    # incremental and a full run.
    kept.sort(key=lambda pair: pair[0])
    return (
        [key for key, _ in kept],
        [value for _, value in kept],
        len(scored),
    )
