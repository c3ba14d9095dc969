"""Batch-operation kernels for Steps 3-4: numpy backend, python fallback.

The columnar substrate (:mod:`repro.core.substrate`) reduced Steps 3-4
to integer batch operations over contiguous buffers — packed
``(v4_row << 32) | v6_row`` u64 keys, CSR ``array`` posting lists,
``array('I')`` size columns.  This module is the *kernel seam* those
operations execute behind:

* the ``numpy`` kernel casts the buffers zero-copy into ndarrays and
  runs Step-3 accumulation as ``np.repeat`` expansion +
  ``np.unique(return_counts=True)``, the incremental retract/add merge
  as a sorted-array merge with zero-count elimination, and Step-4
  scoring as vectorized metric evaluation with ``np.maximum.at``
  best-match folds;
* the ``python`` kernel is the stdlib fallback — the exact
  ``Counter``-based loops the substrate shipped with.

Both kernels are **bit-identical**: every similarity is an IEEE-754
float64 produced by the same division of the same integers (exact in
both runtimes below 2**53 operands), and the best-match/tie arithmetic
is order-independent, so the hypothesis differential suite holds
{reference, columnar} x {python, numpy} to one output.

Selection happens at import: numpy importable -> ``numpy``, else
``python``.  The ``REPRO_KERNEL`` environment variable pins a kernel
(``REPRO_KERNEL=numpy`` without numpy installed raises
:class:`KernelUnavailableError` — a silent fallback would invalidate
benchmarks), and the CLI ``--kernel`` flag calls :func:`set_kernel`
per run.  :func:`set_kernel` also exports ``REPRO_KERNEL`` so child
processes spawned later re-select the same kernel.

Counter state crosses the seam as :class:`PairCounts` — a ``Counter``
on the python kernel, sorted key/count columns on numpy — with one
mapping-style API, so the substrate, the delta patch path, and the
archive round-trip never touch backend types.
"""

from __future__ import annotations

import abc
import os
from array import array
from collections import Counter
from typing import ClassVar, Iterable

from repro.core.metrics import METRICS_FROM_COUNTS

try:  # numpy is the optional [perf] extra; core stays stdlib-importable
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free CI
    _np = None

#: Environment variable that pins the kernel across processes.
KERNEL_ENV = "REPRO_KERNEL"

_LOW32 = 0xFFFFFFFF


class KernelUnavailableError(RuntimeError):
    """A requested kernel cannot run in this interpreter.

    Raised when ``REPRO_KERNEL=numpy`` (or ``set_kernel("numpy")``) is
    requested but numpy is not importable, or when an unknown kernel
    name is requested.  Never raised by automatic selection — with no
    explicit request the python fallback is always eligible.
    """


def numpy_available() -> bool:
    """Whether the numpy backend can run in this interpreter."""
    return _np is not None


def resolve_kernel_name(
    requested: str | None, numpy_ok: bool | None = None
) -> str:
    """Pick the kernel name for *requested* (``None``/empty = automatic).

    Pure selection logic, unit-testable without toggling imports:
    automatic selection prefers ``numpy`` when available and falls back
    to ``python`` cleanly; an explicit ``numpy`` request without numpy
    raises :class:`KernelUnavailableError` with install guidance.
    """
    if numpy_ok is None:
        numpy_ok = numpy_available()
    if not requested:
        return "numpy" if numpy_ok else "python"
    if requested not in ("python", "numpy"):
        raise KernelUnavailableError(
            f"unknown kernel {requested!r}; choose from ['numpy', 'python']"
        )
    if requested == "numpy" and not numpy_ok:
        raise KernelUnavailableError(
            "kernel 'numpy' requested (REPRO_KERNEL or --kernel) but numpy "
            "is not importable in this interpreter; install the [perf] "
            "extra (pip install 'repro-sibling-prefixes[perf]') or select "
            "the 'python' fallback"
        )
    return requested


class PairCounts(abc.ABC):
    """Step-3 counter state behind one mapping-style API.

    Keys are packed ``(v4_row << 32) | v6_row`` integers, values the
    shared-domain counts.  The python kernel backs this with a
    ``Counter``; the numpy kernel with sorted parallel columns.  Both
    expose enough of the mapping protocol (``keys``/``__getitem__``/
    ``items``/``len``/``in``) for ``dict(pair_counts)`` and the
    white-box tests to treat them interchangeably, plus the two seam
    operations the pipeline needs: :meth:`sorted_columns` (the archive
    wire format) and :meth:`patch` (the incremental retract/add merge).
    """

    __slots__ = ()

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of distinct packed pair keys with non-zero count."""

    @abc.abstractmethod
    def keys(self) -> Iterable[int]:
        """The packed pair keys as Python ints."""

    @abc.abstractmethod
    def items(self) -> Iterable[tuple[int, int]]:
        """``(packed_key, shared_count)`` pairs as Python ints."""

    @abc.abstractmethod
    def get(self, key: int, default: int = 0) -> int:
        """Count for *key*, or *default* when absent."""

    @abc.abstractmethod
    def sorted_columns(self) -> tuple:
        """``(keys, counts)`` columns sorted by key, both buffer-backed.

        Keys serialize as u64, counts as u32 — the kernel-neutral wire
        format :mod:`repro.storage.substrate_io` persists, so archives
        written under one kernel restore under the other.
        """

    @abc.abstractmethod
    def patch(self, retract: "PairCounts | None", add: "PairCounts | None") -> None:
        """Apply a delta in place: subtract *retract*, add *add*.

        Keys whose count reaches exactly zero are eliminated from the
        mapping (and from :meth:`sorted_columns`).  Either operand may
        be ``None`` or from the other backend; the final mapping is
        identical whichever kernel produced the operands.
        """

    def __iter__(self):
        """Iterate the packed keys (mapping protocol)."""
        return iter(self.keys())

    def __getitem__(self, key: int) -> int:
        """Count for *key*; ``0`` when absent (Counter semantics)."""
        return self.get(key, 0)

    def __contains__(self, key: int) -> bool:
        """Whether *key* has a non-zero entry."""
        sentinel = self.get(key, None)
        return sentinel is not None

    def __eq__(self, other) -> bool:
        """Mapping equality across backends (and against plain dicts)."""
        if isinstance(other, PairCounts):
            return dict(self.items()) == dict(other.items())
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __hash__(self):  # pragma: no cover - mutable mapping
        """Unhashable, like the mutable mappings it stands in for."""
        raise TypeError("PairCounts is unhashable")


class PythonPairCounts(PairCounts):
    """``Counter``-backed :class:`PairCounts` (the stdlib fallback)."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Counter | None = None) -> None:
        """Wrap *counts* (taken by reference) or start empty."""
        self._counts: Counter = Counter() if counts is None else counts

    def __len__(self) -> int:
        """Number of distinct packed pair keys."""
        return len(self._counts)

    def keys(self):
        """The underlying Counter's key view."""
        return self._counts.keys()

    def items(self):
        """The underlying Counter's item view."""
        return self._counts.items()

    def get(self, key: int, default: int = 0) -> int:
        """Counter lookup with explicit default."""
        return self._counts.get(key, default)

    def sorted_columns(self) -> tuple[array, array]:
        """Sort the Counter's keys once; emit u64/u32 ``array`` columns."""
        ordered = sorted(self._counts)
        return (
            array("Q", ordered),
            array("I", (self._counts[key] for key in ordered)),
        )

    def patch(self, retract, add) -> None:
        """Retract-then-add against the Counter, deleting exact zeros."""
        counts = self._counts
        if retract is not None:
            for key, retracted in retract.items():
                remaining = counts[key] - retracted
                if remaining:
                    counts[key] = remaining
                else:
                    del counts[key]
        if add is not None:
            counts.update(dict(add.items()))


class NumpyPairCounts(PairCounts):
    """Sorted-column :class:`PairCounts` (the numpy backend).

    State is two parallel ndarrays: strictly increasing ``uint64``
    packed keys and their ``int64`` counts.  Sorted order is the
    invariant every operation preserves — it is what makes the delta
    merge a ``searchsorted`` pass and the archive serialization a pair
    of ``tobytes`` calls.
    """

    __slots__ = ("keys_column", "counts_column")

    def __init__(self, keys_column, counts_column) -> None:
        """Adopt pre-sorted, duplicate-free key/count columns."""
        self.keys_column = keys_column
        self.counts_column = counts_column

    def __len__(self) -> int:
        """Number of distinct packed pair keys."""
        return int(self.keys_column.shape[0])

    def keys(self):
        """The key column as a list of Python ints."""
        return self.keys_column.tolist()

    def items(self):
        """Aligned ``(key, count)`` pairs as Python ints."""
        return zip(self.keys_column.tolist(), self.counts_column.tolist())

    def get(self, key: int, default: int = 0) -> int:
        """Binary-search lookup in the sorted key column."""
        keys = self.keys_column
        position = int(_np.searchsorted(keys, _np.uint64(key)))
        if position < keys.shape[0] and int(keys[position]) == key:
            return int(self.counts_column[position])
        return default

    def sorted_columns(self) -> tuple:
        """Already sorted: the key column and a u32 view of the counts."""
        return self.keys_column, self.counts_column.astype(_np.uint32)

    def patch(self, retract, add) -> None:
        """Sorted-array merge-subtract/add with zero-count elimination.

        The retract and add operands are folded into one net signed
        delta column (duplicate keys summed; exact-zero nets dropped),
        then merged against the sorted state in a single
        ``searchsorted`` pass: existing keys update in place, new keys
        insert at their sorted positions, and counts that land on
        exactly zero are eliminated.  Equivalent to the Counter
        retract-then-add by commutativity of integer addition.
        """
        parts_keys = []
        parts_vals = []
        for operand, sign in ((retract, -1), (add, 1)):
            if operand is None or len(operand) == 0:
                continue
            op_keys, op_vals = _operand_columns(operand)
            parts_keys.append(op_keys)
            parts_vals.append(sign * op_vals)
        if not parts_keys:
            return
        if len(parts_keys) == 1:
            delta_keys = parts_keys[0]
            delta_vals = parts_vals[0]
        else:
            delta_keys = _np.concatenate(parts_keys)
            delta_vals = _np.concatenate(parts_vals)
            order = _np.argsort(delta_keys, kind="stable")
            delta_keys = delta_keys[order]
            delta_vals = delta_vals[order]
        unique_keys, inverse = _np.unique(delta_keys, return_inverse=True)
        if unique_keys.shape[0] != delta_keys.shape[0]:
            sums = _np.zeros(unique_keys.shape[0], dtype=_np.int64)
            _np.add.at(sums, inverse, delta_vals)
            live = sums != 0
            delta_keys = unique_keys[live]
            delta_vals = sums[live]
        if delta_keys.shape[0] == 0:
            return

        keys = self.keys_column
        counts = self.counts_column
        positions = _np.searchsorted(keys, delta_keys)
        if keys.shape[0]:
            exists = positions < keys.shape[0]
            probe = _np.where(exists, positions, 0)
            exists &= keys[probe] == delta_keys
        else:
            exists = _np.zeros(delta_keys.shape[0], dtype=bool)
        if exists.any():
            counts = counts.copy()
            counts[positions[exists]] += delta_vals[exists]
        fresh = ~exists
        if fresh.any():
            keys = _np.insert(keys, positions[fresh], delta_keys[fresh])
            counts = _np.insert(counts, positions[fresh], delta_vals[fresh])
        dead = counts == 0
        if dead.any():
            keep = ~dead
            keys = keys[keep]
            counts = counts[keep]
        self.keys_column = keys
        self.counts_column = counts


def _operand_columns(operand: PairCounts):
    """A patch operand as ``(uint64 keys, int64 vals)`` sorted ndarrays."""
    if isinstance(operand, NumpyPairCounts):
        return operand.keys_column, operand.counts_column
    keys, vals = operand.sorted_columns()
    return (
        _np.frombuffer(keys, dtype=_np.uint64),
        _np.frombuffer(vals, dtype=_np.uint32).astype(_np.int64),
    )


class Kernel(abc.ABC):
    """One batch-operation backend for Steps 3-4.

    Implementations must be exact: the differential suite holds every
    kernel to bit-identical similarities and pair sets.
    """

    #: Registry key, also shown in CLI help and ``kernel=`` labels.
    name: ClassVar[str]

    @abc.abstractmethod
    def accumulate_rowlists(self, dom_bases, dom_rows) -> PairCounts:
        """Step-3 accumulation over aligned per-domain (bases, rows) lists.

        *dom_bases* holds each domain's premultiplied v4 rows
        (``row << 32``), *dom_rows* the aligned v6 rows; the result
        counts every ``base | row`` combination.
        """

    @abc.abstractmethod
    def counts_from_columns(self, keys, values) -> PairCounts:
        """Rebuild counter state from archived key/count columns.

        *keys* is a u64 buffer (memoryview/array), *values* a u32
        buffer, sorted by key — the :meth:`PairCounts.sorted_columns`
        wire format.
        """

    @abc.abstractmethod
    def select_scored(
        self,
        counts: PairCounts,
        v4_sizes,
        v6_sizes,
        metric: str,
        want_v4: bool,
        want_v6: bool,
        need_both: bool,
        tie_epsilon: float,
    ):
        """Step-4 scoring: metric evaluation + best-match keep predicate.

        Scores every counted pair with *metric* against the per-row
        size columns, folds best-per-v4-row and best-per-v6-row, and
        applies the mode predicate within *tie_epsilon* of the best.
        Returns ``(kept_keys, kept_values, scored)``: the surviving
        packed keys and their similarities as Python lists (bit-exact
        float64), plus how many pairs scored positive — the substrate
        materializes shared-domain sets only for the survivors.
        """


class PythonKernel(Kernel):
    """The stdlib fallback: ``Counter`` loops, bit-identical reference."""

    name = "python"

    def accumulate_rowlists(self, dom_bases, dom_rows) -> PairCounts:
        """One flat pass; the Counter runs at C speed over plain ints."""
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
        return PythonPairCounts(Counter(packed))

    def counts_from_columns(self, keys, values) -> PairCounts:
        """Zip archived columns straight into a Counter."""
        return PythonPairCounts(Counter(dict(zip(keys, values))))

    def select_scored(
        self,
        counts,
        v4_sizes,
        v6_sizes,
        metric,
        want_v4,
        want_v6,
        need_both,
        tie_epsilon,
    ):
        """Two scalar passes: score + fold bests, then keep predicate."""
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
        # Ascending packed-key order, matching the numpy kernel's sorted
        # columns — so downstream iteration order (and any float sum
        # over it, e.g. mean similarity) is kernel-independent.
        kept.sort(key=lambda pair: pair[0])
        return (
            [key for key, _ in kept],
            [value for _, value in kept],
            len(scored),
        )


def _expand_packed(bases_np, bases_per_segment, rows_np, rows_per_segment):
    """Vectorized Step-3 key expansion: every ``base | row`` per segment.

    *bases_np* (u64, premultiplied) and *rows_np* (u64) are the flat
    concatenations; the ``*_per_segment`` i64 vectors give each
    segment's lengths.  Each base emits one full pass over its
    segment's rows, so the output block for a base is its segment's
    row slice verbatim — which makes the whole expansion two
    ``np.repeat`` ladders and one fancy-index gather, no Python loop.
    """
    rows_per_base = _np.repeat(rows_per_segment, bases_per_segment)
    total = int(rows_per_base.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.uint64)
    base_part = _np.repeat(bases_np, rows_per_base)
    segment_row_start = _np.cumsum(rows_per_segment) - rows_per_segment
    base_row_start = _np.repeat(
        _np.repeat(segment_row_start, bases_per_segment), rows_per_base
    )
    block_start = _np.cumsum(rows_per_base) - rows_per_base
    local = _np.arange(total, dtype=_np.int64) - _np.repeat(
        block_start, rows_per_base
    )
    return base_part | rows_np[base_row_start + local]


class NumpyKernel(Kernel):
    """Vectorized batch ops over zero-copy casts of the CSR buffers."""

    name = "numpy"

    def accumulate_rowlists(self, dom_bases, dom_rows) -> PairCounts:
        """Flatten the rowlists once, then expand + ``np.unique``."""
        bases_data = array("Q")
        bases_lengths = array("q")
        rows_data = array("I")
        rows_lengths = array("q")
        for bases, rows in zip(dom_bases, dom_rows):
            if not bases or not rows:
                continue
            bases_data.extend(bases)
            bases_lengths.append(len(bases))
            rows_data.extend(rows)
            rows_lengths.append(len(rows))
        if not bases_data:
            return NumpyPairCounts(
                _np.empty(0, dtype=_np.uint64), _np.empty(0, dtype=_np.int64)
            )
        packed = _expand_packed(
            _np.frombuffer(bases_data, dtype=_np.uint64),
            _np.frombuffer(bases_lengths, dtype=_np.int64),
            _np.frombuffer(rows_data, dtype=_np.uint32).astype(_np.uint64),
            _np.frombuffer(rows_lengths, dtype=_np.int64),
        )
        keys, counts = _np.unique(packed, return_counts=True)
        return NumpyPairCounts(keys, counts.astype(_np.int64))

    def counts_from_columns(self, keys, values) -> PairCounts:
        """Copy the archived columns into owned, sorted ndarrays."""
        keys_np = _np.frombuffer(keys, dtype=_np.uint64).copy()
        counts_np = _np.frombuffer(values, dtype=_np.uint32).astype(_np.int64)
        if keys_np.shape[0] > 1 and not bool(
            _np.all(keys_np[1:] > keys_np[:-1])
        ):
            # The wire format promises sorted keys; re-sort defensively
            # so a hand-built column set cannot corrupt the invariant.
            order = _np.argsort(keys_np, kind="stable")
            keys_np = keys_np[order]
            counts_np = counts_np[order]
        return NumpyPairCounts(keys_np, counts_np)

    def select_scored(
        self,
        counts,
        v4_sizes,
        v6_sizes,
        metric,
        want_v4,
        want_v6,
        need_both,
        tie_epsilon,
    ):
        """Vectorized scoring: metric columns, ``np.maximum.at`` bests."""
        if isinstance(counts, NumpyPairCounts):
            keys = counts.keys_column
            shared = counts.counts_column
        else:
            keys_arr, vals_arr = counts.sorted_columns()
            keys = _np.frombuffer(keys_arr, dtype=_np.uint64)
            shared = _np.frombuffer(vals_arr, dtype=_np.uint32).astype(_np.int64)
        if keys.shape[0] == 0:
            return [], [], 0
        a = (keys >> _np.uint64(32)).astype(_np.int64)
        b = (keys & _np.uint64(_LOW32)).astype(_np.int64)
        sizes_a = _np.frombuffer(v4_sizes, dtype=_np.uint32).astype(_np.int64)[a]
        sizes_b = _np.frombuffer(v6_sizes, dtype=_np.uint32).astype(_np.int64)[b]
        vector_fn = _VECTOR_METRICS.get(metric)
        if vector_fn is None:
            # Unknown-to-the-vector-table metric: fall back to the scalar
            # function per pair (same KeyError surface for bad names).
            metric_fn = METRICS_FROM_COUNTS[metric]
            values = _np.array(
                [
                    metric_fn(int(s), int(x), int(y))
                    for s, x, y in zip(
                        shared.tolist(), sizes_a.tolist(), sizes_b.tolist()
                    )
                ],
                dtype=_np.float64,
            )
        else:
            values = vector_fn(shared, sizes_a, sizes_b)
        positive = values > 0.0
        scored = int(positive.sum())
        if scored == 0:
            return [], [], 0
        best_v4 = _np.zeros(len(v4_sizes), dtype=_np.float64)
        best_v6 = _np.zeros(len(v6_sizes), dtype=_np.float64)
        _np.maximum.at(best_v4, a[positive], values[positive])
        _np.maximum.at(best_v6, b[positive], values[positive])
        is_best_v4 = want_v4 & (values >= best_v4[a] - tie_epsilon)
        is_best_v6 = want_v6 & (values >= best_v6[b] - tie_epsilon)
        if need_both:
            keep = positive & is_best_v4 & is_best_v6
        else:
            keep = positive & (is_best_v4 | is_best_v6)
        return keys[keep].tolist(), values[keep].tolist(), scored


def _vector_jaccard(shared, sizes_a, sizes_b):
    """|A∩B| / |A∪B| as float64 columns (exact: int64/int64 divide)."""
    union = sizes_a + sizes_b - shared
    safe = _np.where(union > 0, union, 1)
    return _np.where(union > 0, shared / safe, 0.0)


def _vector_dice(shared, sizes_a, sizes_b):
    """2|A∩B| / (|A|+|B|), matching the scalar ``2.0 * shared / total``."""
    total = sizes_a + sizes_b
    safe = _np.where(total > 0, total, 1)
    return _np.where(total > 0, (2.0 * shared) / safe, 0.0)


def _vector_overlap(shared, sizes_a, sizes_b):
    """|A∩B| / min(|A|,|B|) as float64 columns."""
    smaller = _np.minimum(sizes_a, sizes_b)
    safe = _np.where(smaller > 0, smaller, 1)
    return _np.where(smaller > 0, shared / safe, 0.0)


#: Vectorized twins of :data:`repro.core.metrics.METRICS_FROM_COUNTS`.
#: Each is bit-identical to its scalar sibling: the same float64
#: division of the same sub-2**53 integers, guards replicated via
#: ``np.where``.
_VECTOR_METRICS = {
    "jaccard": _vector_jaccard,
    "dice": _vector_dice,
    "overlap": _vector_overlap,
}


#: Registered kernels by name.
KERNELS: dict[str, Kernel] = {PythonKernel.name: PythonKernel()}
if _np is not None:
    KERNELS[NumpyKernel.name] = NumpyKernel()

_active: Kernel = KERNELS[resolve_kernel_name(os.environ.get(KERNEL_ENV))]


def get_kernel() -> Kernel:
    """The process-active kernel (import-selected or :func:`set_kernel`)."""
    return _active


def kernel_name() -> str:
    """Name of the process-active kernel (``"python"`` or ``"numpy"``)."""
    return _active.name


def available_kernel_names() -> list[str]:
    """Names of the kernels this interpreter can actually run, sorted."""
    return sorted(KERNELS)


def set_kernel(name: str | None) -> str:
    """Select the active kernel; returns the *previous* kernel's name.

    ``None``/empty re-runs automatic selection.  The choice is also
    exported as ``REPRO_KERNEL`` so child processes spawned after this
    call re-select the same kernel; raises
    :class:`KernelUnavailableError` for an impossible request, leaving
    the active kernel and environment untouched.
    """
    global _active
    resolved = resolve_kernel_name(name)
    previous = _active.name
    _active = KERNELS[resolved]
    os.environ[KERNEL_ENV] = resolved
    return previous


class use_kernel:
    """Context manager pinning the active kernel within a block.

    Restores both the previously active kernel and the prior
    ``REPRO_KERNEL`` environment value on exit — the test harness for
    running one suite under both kernels in-process.
    """

    def __init__(self, name: str) -> None:
        """Remember the requested kernel *name*."""
        self._name = name
        self._saved_kernel: str | None = None
        self._saved_env: str | None = None

    def __enter__(self) -> Kernel:
        """Activate the requested kernel; return it."""
        self._saved_env = os.environ.get(KERNEL_ENV)
        self._saved_kernel = set_kernel(self._name)
        return _active

    def __exit__(self, *exc_info) -> None:
        """Restore the prior kernel and environment value."""
        set_kernel(self._saved_kernel)
        if self._saved_env is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = self._saved_env
