"""``repro watch`` churn replay: per-generation publish lag vs the SLO.

The watch daemon's promise is a latency one: once a snapshot file
lands, the time until the hot-swapped service answers from it (the
*publish lag*, ``watch.publish_lag_seconds``) must stay within the
per-generation budget — steady-state ingestion is delta-sized work,
not a full recompute per date.

This bench replays a churning snapshot series through the real
end-to-end loop — snapshot files written to a feed directory, a
:class:`~repro.analysis.watch.SnapshotWatcher` polling, delta
detection, the footer-commit archive append, and the service hot-swap
— one file per cycle, so every generation's lag is measured exactly
(file parse included).  The first date pays the full index build; the
SLO is asserted on the steady-state (delta) generations:

* max steady-state publish lag <= 2.0 s at the medium scale
  (the budget ``repro watch`` defaults to is 5 s per generation).

Each replayed generation is also cross-checked pair-identical to a
batch ``detect_series`` run, so the timing run doubles as an
equivalence check.  Results land in ``timings/watch_replay.txt``.
"""

import datetime
import random
import time

import pytest

from repro.analysis.pipeline import detect_series
from repro.analysis.watch import SnapshotDirectorySource, SnapshotWatcher, write_snapshot_file
from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.dns.openintel import DnsSnapshot, DomainObservation
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.obs.metrics import MetricsRegistry
from repro.serving.service import SiblingQueryService
from repro.storage import substrate_io
from repro.storage.archive import ArchiveReader

from benchmarks.common import TIMINGS_DIR

#: (domains, memberships per family) per scale.
SCALES = {
    "small": (1_500, 3),
    "medium": (4_000, 6),
}

N_DATES = 8
CHURN = 0.08
POOL_SIZE = 64

#: The steady-state publish-lag SLO asserted at the medium scale.
SLO_SECONDS = 2.0

_LINES: list[str] = []

V4_POOL = [
    Prefix.from_address(IPV4, (20 << 24) | (i << 8), 24)
    for i in range(POOL_SIZE)
]
V6_POOL = [
    Prefix.from_address(IPV6, (0x2400_00DB << 96) | (i << 80), 48)
    for i in range(POOL_SIZE)
]


class _SeriesShim:
    """Pipeline-facing stand-in for a Universe (fixed routing)."""

    def __init__(self, snapshots):
        self._snapshots = {s.date: s for s in snapshots}
        self._annotator = _make_annotator()

    def snapshot_at(self, date):
        return self._snapshots[date]

    def annotator_at(self, date):
        return self._annotator


def _make_annotator() -> PrefixAnnotator:
    rib = Rib()
    for position, prefix in enumerate(V4_POOL + V6_POOL):
        rib.announce(prefix, 65000 + position)
    return PrefixAnnotator(rib, missing_fraction=0.0)


def _observation(rng, label, fan) -> DomainObservation:
    return DomainObservation(
        label,
        tuple(
            V4_POOL[pool].first_address + rng.randint(1, 250)
            for pool in rng.sample(range(POOL_SIZE), fan)
        ),
        tuple(
            V6_POOL[pool].first_address + rng.randint(1, 250)
            for pool in rng.sample(range(POOL_SIZE), fan)
        ),
    )


def _build_series(scale: str):
    n_domains, fan = SCALES[scale]
    rng = random.Random(20260808)
    table = {
        f"d{i}.watch": _observation(rng, f"d{i}.watch", fan)
        for i in range(n_domains)
    }
    next_label = n_domains
    dates = [
        datetime.date(2024, 9, 1) + datetime.timedelta(days=i)
        for i in range(N_DATES)
    ]
    snapshots = [DnsSnapshot(dates[0], table.values())]
    for date in dates[1:]:
        for position, label in enumerate(
            rng.sample(sorted(table), int(n_domains * CHURN))
        ):
            if position % 2 == 0:
                observation = table[label]
                table[label] = DomainObservation(
                    label,
                    tuple(
                        (a & ~0xFF) | rng.randint(1, 250)
                        for a in observation.v4_addresses
                    ),
                    tuple(
                        (a >> 80 << 80) | rng.randint(1, 250)
                        for a in observation.v6_addresses
                    ),
                )
            else:
                del table[label]
                fresh = f"d{next_label}.watch"
                next_label += 1
                table[fresh] = _observation(rng, fresh, fan)
        snapshots.append(DnsSnapshot(date, table.values()))
    return snapshots, dates


def _flush_results() -> None:
    TIMINGS_DIR.mkdir(exist_ok=True)
    header = [
        "repro watch churn replay: per-generation publish lag",
        "=" * 52,
        "",
        f"{N_DATES} dates, {CHURN:.0%} domain churn per date; one snapshot",
        "file per cycle through the full poll/detect/append/swap loop",
        f"(SLO: steady-state max <= {SLO_SECONDS:.1f}s at medium scale)",
        "",
        f"{'scale':<8} {'domains':>8} {'build':>10} {'steady p50':>11} "
        f"{'steady max':>11}",
    ]
    (TIMINGS_DIR / "watch_replay.txt").write_text(
        "\n".join(header + _LINES) + "\n"
    )


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_watch_replay_publish_lag(scale, tmp_path):
    """Replay the series file-by-file; lag per generation vs the SLO."""
    snapshots, dates = _build_series(scale)
    feed = tmp_path / "feed"
    feed.mkdir()
    archive = tmp_path / "watch.sparch"
    annotator = _make_annotator()
    service = SiblingQueryService()
    watcher = SnapshotWatcher(
        SnapshotDirectorySource(feed),
        lambda date: annotator,
        archive,
        service=service,
        budget_seconds=SLO_SECONDS,
        registry=MetricsRegistry(),
    )

    lags = []
    for snapshot in snapshots:
        write_snapshot_file(snapshot, feed)
        appended = watcher.run(once=True)
        assert appended == 1, f"{snapshot.date}: expected one generation"
        lags.append(watcher.status()["publish_lag_seconds"])
    assert service.index.snapshot == dates[-1]

    # Equivalence: every archived generation matches a batch run.
    expected = detect_series(_SeriesShim(snapshots), dates)
    with ArchiveReader.open(archive) as reader:
        pool_names = reader.pool_names()
        by_date = reader.generations_by_date(substrate_io.SIBLINGS_KIND)
        assert sorted(by_date) == [date.isoformat() for date in dates]
        for date, siblings in expected:
            archived = substrate_io.load_siblings(
                by_date[date.isoformat()], pool_names
            )
            assert archived.same_pairs(siblings), f"{date}: replay diverged"

    build, steady = lags[0], sorted(lags[1:])
    p50 = steady[len(steady) // 2]
    n_domains, _ = SCALES[scale]
    _LINES.append(
        f"{scale:<8} {n_domains:>8} {build * 1e3:>8.0f}ms "
        f"{p50 * 1e3:>9.1f}ms {steady[-1] * 1e3:>9.1f}ms"
    )
    _flush_results()

    if scale == "medium":
        assert steady[-1] <= SLO_SECONDS, (
            f"steady-state publish lag {steady[-1]:.2f}s exceeds the "
            f"{SLO_SECONDS:.1f}s SLO at {scale} scale"
        )
