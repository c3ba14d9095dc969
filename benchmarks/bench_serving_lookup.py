"""Serving lookup throughput: compiled index vs linear-scan baseline.

Measures point and batch query throughput of the compiled
:class:`SiblingLookupIndex` against :func:`scan_lookup` — the O(pairs)
per-query brute force the CLI ``lookup`` effectively was before the
serving subsystem — at three universe scales, plus the one-off compile,
archive encode and mmap attach costs.  Results land in ``timings/serving.txt``.

Timing is done with ``time.perf_counter`` loops rather than
pytest-benchmark rounds because each test reports a *ratio* between
two measured legs; the module still runs (once, untimed) under
``--benchmark-disable`` in the CI smoke job.

The PR 2 acceptance bar — compiled index ≥ 20× the linear scan at the
largest bench scale — is asserted here and recorded in the results
file.
"""

import pathlib
import random
import time

import pytest

from repro.analysis.pipeline import detect_at
from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import format_address
from repro.serving.index import SiblingLookupIndex, scan_lookup
from repro.storage.archive import ArchiveWriter
from repro.storage.index_io import KIND, index_segments, load_mapped_index

from benchmarks.common import TIMINGS_DIR, get_universe

SCALES = ("tiny", "small", "medium")

#: Per-scale measurement lines, accumulated across the parametrized runs.
_LINES: list[str] = []

_PAIR_CACHE: dict[str, SiblingLookupIndex] = {}


def _index_for(scale: str) -> SiblingLookupIndex:
    """Session-cached compiled index for one scenario scale."""
    index = _PAIR_CACHE.get(scale)
    if index is None:
        siblings, _ = detect_at(get_universe(scale), REFERENCE_DATE)
        index = SiblingLookupIndex.from_siblings(siblings)
        _PAIR_CACHE[scale] = index
    return index


def _queries(index: SiblingLookupIndex, count: int, seed: int = 7) -> list[str]:
    """Hit-biased query strings (addresses, both families, some misses)."""
    rng = random.Random(seed)
    stored = [
        prefix
        for pair in index.pairs
        for prefix in (pair.v4_prefix, pair.v6_prefix)
    ]
    queries = []
    for _ in range(count):
        if rng.random() < 0.7:
            base = rng.choice(stored)
            value = base.value | rng.getrandbits(base.host_bits)
            queries.append(format_address(base.version, value))
        else:
            version = rng.choice((4, 6))
            value = rng.getrandbits(32 if version == 4 else 128)
            queries.append(format_address(version, value))
    return queries


def _rate(elapsed: float, count: int) -> str:
    return f"{count / elapsed:>12,.0f} q/s" if elapsed else f"{'inf':>12} q/s"


def _flush_results() -> None:
    TIMINGS_DIR.mkdir(exist_ok=True)
    header = [
        "serving lookup throughput: compiled index vs linear scan",
        "=" * 56,
        "",
        f"{'scale':<8} {'pairs':>6} {'leg':<14} {'per-query':>12} "
        f"{'throughput':>16} {'speedup':>9}",
    ]
    (TIMINGS_DIR / "serving.txt").write_text(
        "\n".join(header + _LINES) + "\n"
    )


@pytest.mark.parametrize("scale", SCALES)
def test_serving_lookup_throughput(scale):
    """Point + batch lookups on the index vs brute-force linear scan."""
    index = _index_for(scale)
    point_queries = _queries(index, 3000)
    scan_queries = point_queries[:200]

    # Warm parse/format caches identically for both legs.
    for query in point_queries[:50]:
        index.lookup(query)
        scan_lookup(index.pairs, query)

    start = time.perf_counter()
    point_hits = sum(
        1 for query in point_queries if index.lookup(query) is not None
    )
    point_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    batch_results = index.batch(point_queries)
    batch_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    scan_hits = sum(
        1 for query in scan_queries if scan_lookup(index.pairs, query) is not None
    )
    scan_elapsed = time.perf_counter() - start

    point_per_query = point_elapsed / len(point_queries)
    scan_per_query = scan_elapsed / len(scan_queries)
    speedup = scan_per_query / point_per_query if point_per_query else float("inf")

    # Equivalence spot-check while we are here: same hit decisions.
    assert point_hits == sum(
        1 for result in batch_results if result is not None
    )
    assert scan_hits == sum(
        1 for query in scan_queries if index.lookup(query) is not None
    )

    _LINES.append(
        f"{scale:<8} {len(index):>6} {'index point':<14} "
        f"{point_per_query * 1e6:>10.2f}us {_rate(point_elapsed, len(point_queries)):>16} "
        f"{speedup:>8.1f}x"
    )
    _LINES.append(
        f"{scale:<8} {len(index):>6} {'index batch':<14} "
        f"{batch_elapsed / len(point_queries) * 1e6:>10.2f}us "
        f"{_rate(batch_elapsed, len(point_queries)):>16} {'':>9}"
    )
    _LINES.append(
        f"{scale:<8} {len(index):>6} {'linear scan':<14} "
        f"{scan_per_query * 1e6:>10.2f}us {_rate(scan_elapsed, len(scan_queries)):>16} "
        f"{'1.0x':>9}"
    )
    _flush_results()

    if scale == SCALES[-1]:
        assert speedup >= 20, (
            f"compiled index only {speedup:.1f}x over linear scan at "
            f"{scale} scale (PR 2 acceptance bar is 20x)"
        )


def test_serving_compile_and_archive_cost(tmp_path):
    """One-off costs: compile from a SiblingSet, archive encode and attach."""
    siblings, _ = detect_at(get_universe("medium"), REFERENCE_DATE)

    start = time.perf_counter()
    index = SiblingLookupIndex.from_siblings(siblings)
    compile_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    segments, meta = index_segments(index)
    encode_elapsed = time.perf_counter() - start

    path = tmp_path / "medium.sparch"
    with ArchiveWriter.open(path) as writer:
        writer.append_generation(
            index.snapshot.isoformat(), segments, {KIND: meta}
        )

    start = time.perf_counter()
    mapped = load_mapped_index(path)
    attach_elapsed = time.perf_counter() - start
    assert tuple(mapped.pairs) == index.pairs
    mapped.close()

    _LINES.append("")
    _LINES.append(
        f"medium one-off: compile {compile_elapsed * 1e3:.1f}ms, "
        f"encode {encode_elapsed * 1e3:.1f}ms "
        f"({path.stat().st_size:,} archive bytes), "
        f"attach {attach_elapsed * 1e3:.2f}ms ({len(index)} pairs)"
    )
    _flush_results()
