"""Serve cold-start: archive mmap attach vs CSV parse-and-compile.

Without an archive, ``repro serve FILE.csv`` streams the whole CSV
export, materializes every :class:`PublishedPair`, and compiles the
lookup index (sort + group + pack).  The archive path (``repro serve
--archive``) attaches to the newest generation via ``mmap``: one
footer + manifest parse, zero pair objects, zero recompilation — keys,
postings, and records serve from the page cache and pairs materialize
per answer.

Each timed leg builds a ready-to-answer :class:`SiblingQueryService`
*and* answers a first query (so the archive leg pays its lazy segment
CRC validation inside the measurement), at three universe scales.
Both legs serve the same published list (the archive is written from
the CSV's own rows) and must return identical answers; the acceptance
bar — archive cold-start ≥ 20× the CSV path at the largest (medium)
scale — is asserted here and recorded in
``timings/archive_coldstart.txt``.

Timing is ``time.perf_counter`` best-of loops (the tests report a
ratio between two legs); the module still runs once, untimed, under
``--benchmark-disable`` in the CI smoke job.
"""

import time

import pytest

from repro.analysis.pipeline import detect_at
from repro.dates import REFERENCE_DATE
from repro import publish
from repro.serving.index import SiblingLookupIndex
from repro.serving.service import SiblingQueryService
from repro.storage.index_io import append_index

from benchmarks.common import TIMINGS_DIR, get_universe

SCALES = ("tiny", "small", "medium")
ROUNDS = 7

_LINES: list[str] = []

_INDEXES: dict[str, SiblingLookupIndex] = {}


def _index_for(scale: str) -> SiblingLookupIndex:
    """Session-cached compiled index for one scenario scale."""
    index = _INDEXES.get(scale)
    if index is None:
        siblings, _ = detect_at(get_universe(scale), REFERENCE_DATE)
        index = SiblingLookupIndex.from_siblings(siblings)
        _INDEXES[scale] = index
    return index


def _best_of(func, rounds: int = ROUNDS) -> tuple[float, object]:
    """(best elapsed seconds, last result) over *rounds* calls."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _flush_results() -> None:
    TIMINGS_DIR.mkdir(exist_ok=True)
    header = [
        "serve cold-start: archive mmap attach vs CSV parse+compile",
        "=" * 58,
        "",
        "each leg = build a ready SiblingQueryService + answer 1 query",
        "",
        f"{'scale':<8} {'pairs':>6} {'csv':>12} {'archive':>12} "
        f"{'speedup':>9}",
    ]
    (TIMINGS_DIR / "archive_coldstart.txt").write_text(
        "\n".join(header + _LINES) + "\n"
    )


@pytest.mark.parametrize("scale", SCALES)
def test_archive_coldstart_speedup(scale, tmp_path):
    """Cold-start a service from a CSV export vs .sparch; identical answers."""
    index = _index_for(scale)
    csv_path = tmp_path / f"{scale}.csv"
    sparch = tmp_path / f"{scale}.sparch"
    with open(csv_path, "w") as stream:
        publish.write_csv(index.pairs, stream, REFERENCE_DATE)
    with open(csv_path) as stream:
        published = publish.read_csv(stream)
    append_index(sparch, SiblingLookupIndex.from_pairs(published, REFERENCE_DATE))

    probe = str(index.pairs[len(index) // 2].v4_prefix)

    def csv_leg():
        # What `repro serve FILE.csv` does before it can answer.
        with open(csv_path) as stream:
            date = publish.header_snapshot_date(stream.readline())
            stream.seek(0)
            pairs = list(publish.stream_csv(stream))
        service = SiblingQueryService(SiblingLookupIndex.from_pairs(pairs, date))
        return service.lookup(probe)

    def archive_leg():
        service = SiblingQueryService.from_archive(sparch)
        answer = service.lookup(probe)
        service.index.close()
        return answer

    csv_elapsed, csv_answer = _best_of(csv_leg)
    archive_elapsed, archive_answer = _best_of(archive_leg)
    assert csv_answer == archive_answer, "legs disagree on the probe query"

    speedup = csv_elapsed / archive_elapsed if archive_elapsed else float("inf")
    _LINES.append(
        f"{scale:<8} {len(index):>6} {csv_elapsed * 1e3:>10.2f}ms "
        f"{archive_elapsed * 1e3:>10.3f}ms {speedup:>8.1f}x"
    )
    _flush_results()

    if scale == SCALES[-1]:
        assert speedup >= 20, (
            f"archive cold-start only {speedup:.1f}x over CSV "
            f"parse+compile at {scale} scale (acceptance bar is 20x)"
        )


def test_archive_coldstart_answers_match_in_memory(tmp_path):
    """Sanity inside the bench: the mapped service answers like the
    in-memory index it was built from, over a spread of queries."""
    index = _index_for("small")
    sparch = tmp_path / "check.sparch"
    append_index(sparch, index)
    service = SiblingQueryService.from_archive(sparch)
    memory = SiblingQueryService(index)
    for pair in index.pairs[:: max(1, len(index) // 50)]:
        for prefix in (pair.v4_prefix, pair.v6_prefix):
            assert service.lookup(str(prefix)) == memory.lookup(str(prefix))
    service.index.close()
    _LINES.append("")
    _LINES.append(
        f"answer-equivalence spot check: ok over ~100 queries (small)"
    )
    _flush_results()
