"""Per-date detection vs the rolling detect-series over a churning series.

The rolling index's promise: a 10-date longitudinal run whose
consecutive snapshots differ in ≤ 10 % of domains should cost roughly
one full detection plus nine delta-sized updates, not ten full
detections.  This bench times a per-date
:func:`repro.analysis.pipeline.detect_at` loop ("full") against
:func:`repro.analysis.pipeline.detect_series` ("incremental") over
synthetic series at three scales — per date ~8 % of domains churn (half renumber inside
their prefixes, a quarter move prefixes, the rest appear/disappear) —
and records the wall-time ratio.  The acceptance bar from the PR 4
issue, incremental ≥ 3× full at the medium scale, is asserted on every
host: the speedup comes from skipping re-annotation and Step-3
re-accumulation of unchanged domains, not from parallelism.

Every timed run also cross-checks bit-identity per date (the cheap
mapping comparison from the tier-1 suites), so a timing run doubles as
an equivalence check.  Results land in ``timings/incremental_series.txt``.
"""

import datetime
import random
import time

import pytest

from repro.analysis.pipeline import detect_at, detect_series
from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.core.substrate import ColumnarSubstrate
from repro.dns.openintel import DnsSnapshot, DomainObservation
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix

from benchmarks.common import TIMINGS_DIR

#: (domains, memberships per family) per scale; pair rows per date are
#: domains * fan^2.
SCALES = {
    "small": (1_500, 3),    #  13.5k pair rows/date
    "medium": (4_000, 6),   # 144k pair rows/date
    "large": (8_000, 8),    # 512k pair rows/date
}

N_DATES = 10
CHURN = 0.08  # ≤ 10 % of domains touched per date
POOL_SIZE = 64
REPEATS = 2

_LINES: list[str] = []

V4_POOL = [
    Prefix.from_address(IPV4, (20 << 24) | (i << 8), 24)
    for i in range(POOL_SIZE)
]
V6_POOL = [
    Prefix.from_address(IPV6, (0x2400_00DB << 96) | (i << 80), 48)
    for i in range(POOL_SIZE)
]

_SERIES_CACHE: dict[str, tuple] = {}


class _SeriesShim:
    """Pipeline-facing stand-in for a Universe: prebuilt snapshots, one
    fixed annotator (stable routing → delta application is never gated
    off)."""

    def __init__(self, snapshots):
        self._snapshots = {s.date: s for s in snapshots}
        rib = Rib()
        for position, prefix in enumerate(V4_POOL + V6_POOL):
            rib.announce(prefix, 65000 + position)
        self._annotator = PrefixAnnotator(rib, missing_fraction=0.0)

    def snapshot_at(self, date):
        return self._snapshots[date]

    def annotator_at(self, date):
        return self._annotator


def _observation(rng, label, fan) -> DomainObservation:
    v4_pools = rng.sample(range(POOL_SIZE), fan)
    v6_pools = rng.sample(range(POOL_SIZE), fan)
    return DomainObservation(
        label,
        tuple(
            V4_POOL[pool].first_address + rng.randint(1, 250)
            for pool in v4_pools
        ),
        tuple(
            V6_POOL[pool].first_address + rng.randint(1, 250)
            for pool in v6_pools
        ),
    )


def _renumbered(rng, observation: DomainObservation) -> DomainObservation:
    """New addresses inside the same prefixes (membership-preserving)."""
    return DomainObservation(
        observation.domain,
        tuple((a & ~0xFF) | rng.randint(1, 250) for a in observation.v4_addresses),
        tuple(
            (a >> 80 << 80) | rng.randint(1, 250)
            for a in observation.v6_addresses
        ),
    )


def _build_series(scale: str):
    cached = _SERIES_CACHE.get(scale)
    if cached is not None:
        return cached
    n_domains, fan = SCALES[scale]
    rng = random.Random(20260728)
    table = {
        f"d{i}.bench": _observation(rng, f"d{i}.bench", fan)
        for i in range(n_domains)
    }
    next_label = n_domains
    dates = [
        datetime.date(2024, 9, 1) + datetime.timedelta(days=i)
        for i in range(N_DATES)
    ]
    snapshots = [DnsSnapshot(dates[0], table.values())]
    for date in dates[1:]:
        labels = rng.sample(sorted(table), int(n_domains * CHURN))
        for position, label in enumerate(labels):
            if position % 2 == 0:
                table[label] = _renumbered(rng, table[label])
            elif position % 4 == 1:
                table[label] = _observation(rng, label, fan)
            else:
                del table[label]
                fresh = f"d{next_label}.bench"
                next_label += 1
                table[fresh] = _observation(rng, fresh, fan)
        snapshots.append(DnsSnapshot(date, table.values()))
    shim = _SeriesShim(snapshots)
    _SERIES_CACHE[scale] = (shim, dates)
    return shim, dates


def _as_mappings(series):
    return [
        {
            (pair.v4_prefix, pair.v6_prefix): (
                pair.similarity,
                pair.shared_domains,
                pair.v4_domain_count,
                pair.v6_domain_count,
            )
            for pair in siblings
        }
        for _, siblings in series
    ]


def _best_of(fn, repeats: int = REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _flush_results() -> None:
    TIMINGS_DIR.mkdir(exist_ok=True)
    header = [
        "full vs incremental detect-series",
        "=" * 33,
        "",
        f"{N_DATES} dates, {CHURN:.0%} domain churn per date, columnar engine",
        "(acceptance bar: incremental >= 3x full at medium scale)",
        "",
        f"{'scale':<8} {'domains':>8} {'full':>10} {'incremental':>12} "
        f"{'speedup':>8}",
    ]
    (TIMINGS_DIR / "incremental_series.txt").write_text(
        "\n".join(header + _LINES) + "\n"
    )


def _detect_each_date(shim, dates):
    """Every date detected from scratch on one shared engine."""
    engine = ColumnarSubstrate()
    return [(date, detect_at(shim, date, substrate=engine)[0]) for date in dates]


@pytest.mark.parametrize("scale", list(SCALES))
def test_incremental_series_speedup(scale):
    """Wall time of the 10-date series, both modes, equivalence checked."""
    shim, dates = _build_series(scale)
    n_domains, _ = SCALES[scale]

    full_elapsed, full = _best_of(lambda: _detect_each_date(shim, dates))
    incremental_elapsed, incremental = _best_of(
        lambda: detect_series(shim, dates, substrate=ColumnarSubstrate())
    )
    assert _as_mappings(full) == _as_mappings(incremental)  # bit-identical

    speedup = (
        full_elapsed / incremental_elapsed if incremental_elapsed else 0.0
    )
    _LINES.append(
        f"{scale:<8} {n_domains:>8,} {full_elapsed * 1e3:>8.0f}ms "
        f"{incremental_elapsed * 1e3:>10.0f}ms {speedup:>7.2f}x"
    )
    _flush_results()

    if scale == "medium":
        assert speedup >= 3.0, (
            f"incremental only {speedup:.2f}x over full at {scale} scale "
            f"({N_DATES} dates, {CHURN:.0%} churn; acceptance bar is 3x)"
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
