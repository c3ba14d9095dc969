"""Open-loop load test of the multi-process serving fleet.

Drives :class:`~repro.serving.fleet.ServingFleet` (1 then 2
``SO_REUSEPORT`` workers over one ``.sparch`` archive) with the
deterministic client-side generator in ``benchmarks/loadgen.py``, for
two traffic mixes:

* ``point`` — 100 % point lookups, the blocklist/geolocation consumer
  shape;
* ``mixed`` — 80 % point / 15 % batch / 5 % snapshot probes, the
  bulk-enrichment shape.

Each (mix, workers) configuration runs two legs: a **saturation** leg
(offered rate far above capacity, so ok/elapsed measures fleet
throughput) and a **paced** leg at a fixed moderate rate whose
open-loop latencies yield honest p50/p99/p999 (queueing charged to the
server, no coordinated omission).  Results land in
``results/serving_fleet.txt``.

The PR 6 acceptance bar — ≥ 1.6× q/s scaling from 1 to 2 workers on
the point mix — is asserted **only on hosts with 2+ cores**; a 1-core
container records the measured ratio with a skip note instead.  Timing is
``time.perf_counter`` / wall-clock based, so the module still runs
once, untimed, under CI's ``--benchmark-disable`` smoke job.
"""

import os
import random
import re
import urllib.request

import pytest

from repro.analysis.pipeline import detect_at
from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import format_address
from repro.serving.fleet import ServiceSource, ServingFleet
from repro.serving.index import SiblingLookupIndex
from repro.storage.index_io import append_index

from benchmarks.common import RESULTS_DIR, get_universe
from benchmarks.loadgen import (
    TrafficMix,
    generate_schedule,
    run_load,
    summarize,
)

MIXES = (
    TrafficMix("point", point=1.0, zipf_s=1.1),
    TrafficMix(
        "mixed", point=0.8, batch=0.15, snapshot=0.05,
        batch_size=16, zipf_s=1.1,
    ),
)

WORKER_COUNTS = (1, 2)
SCALING_BAR = 1.6

#: Saturation leg: offered rate far above any stdlib-server capacity.
SATURATION_REQUESTS = 2000
SATURATION_RATE = 1_000_000.0

#: Paced leg: fixed moderate offered load for honest percentiles.
PACED_REQUESTS = 1200
PACED_RATE = 1500.0

CONNECTIONS = 8
SEED = 20260808

_LINES: list[str] = []

#: (mix name, workers) → saturation-leg q/s, for the scaling check.
_QPS: dict[tuple[str, int], float] = {}


def _hit_biased_targets(
    index: SiblingLookupIndex, count: int = 200, seed: int = 7
) -> list[str]:
    """Popularity-rankable query targets: ~80 % hits, both families."""
    rng = random.Random(seed)
    stored = [
        prefix
        for pair in index.pairs
        for prefix in (pair.v4_prefix, pair.v6_prefix)
    ]
    targets = []
    for _ in range(count):
        if rng.random() < 0.8:
            base = rng.choice(stored)
            value = base.value | rng.getrandbits(base.host_bits)
            targets.append(format_address(base.version, value))
        else:
            version = rng.choice((4, 6))
            targets.append(
                format_address(
                    version, rng.getrandbits(32 if version == 4 else 128)
                )
            )
    return targets


@pytest.fixture(scope="module")
def fleet_archive(tmp_path_factory):
    """One archived small-scale detection + ranked query targets."""
    siblings, _ = detect_at(get_universe("small"), REFERENCE_DATE)
    index = SiblingLookupIndex.from_siblings(siblings)
    path = tmp_path_factory.mktemp("fleet-bench") / "fleet.sparch"
    append_index(path, index)
    return path, _hit_biased_targets(index)


def _merged_codes(*summaries: dict) -> dict:
    """Combine per-leg ``status_counts`` so every recorded line shows
    the full status-code breakdown (a silently-erroring leg can't hide
    behind healthy percentiles)."""
    merged: dict = {}
    for summary in summaries:
        for code, count in summary["status_counts"].items():
            merged[code] = merged.get(code, 0) + count
    return merged


def _flush_results() -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    header = [
        "multi-process serving fleet: open-loop load test",
        "=" * 48,
        "",
        f"host cores: {os.cpu_count()}  connections: {CONNECTIONS}  "
        f"(>= {SCALING_BAR}x 1->2 worker q/s scaling asserted only on "
        f"2+ core hosts)",
        "",
        "q/s from the saturation leg (offered >> capacity); p50/p99/p999 "
        f"open-loop latency from the paced leg at {PACED_RATE:,.0f} req/s.",
        "",
        f"{'mix':<7} {'workers':>7} {'requests':>8} {'errors':>6} "
        f"{'q/s':>9} {'q/s/core':>9} {'p50':>8} {'p99':>8} {'p999':>8} "
        f"codes",
    ]
    (RESULTS_DIR / "serving_fleet.txt").write_text(
        "\n".join(header + _LINES) + "\n"
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("mix", MIXES, ids=lambda mix: mix.name)
def test_fleet_load(mix, workers, fleet_archive):
    """Saturation + paced legs against a live fleet; results recorded."""
    path, targets = fleet_archive
    with ServingFleet(ServiceSource(path), workers=workers) as fleet:
        fleet.start()
        saturation = run_load(
            fleet.url,
            generate_schedule(
                targets, SATURATION_REQUESTS, SATURATION_RATE, mix, SEED
            ),
            connections=CONNECTIONS,
        )
        paced = run_load(
            fleet.url,
            generate_schedule(
                targets, PACED_REQUESTS, PACED_RATE, mix, SEED + 1
            ),
            connections=CONNECTIONS,
        )
        # Cross-check the fleet's own telemetry against the client-side
        # ledger: the merged /v1/metrics lookup counter must equal the
        # number of point requests the generator actually sent.  Only
        # meaningful when nothing was retried (a transparent reconnect
        # may double-count server-side) and nothing was restarted.
        records = saturation.records + paced.records
        point_sent = sum(record.kind == "point" for record in records)
        anything_retried = any(record.retried for record in records)
        restarts = fleet.status()["restarts"]
        with urllib.request.urlopen(
            fleet.control_url + "/v1/metrics", timeout=30
        ) as response:
            metrics_text = response.read().decode("utf-8")
        match = re.search(
            r"^repro_serve_lookups_total (\d+)$", metrics_text, re.M
        )
        assert match, "fleet /v1/metrics lacks repro_serve_lookups_total"
        if not anything_retried and restarts == 0:
            assert int(match.group(1)) == point_sent, (
                f"fleet counted {match.group(1)} lookups but the "
                f"generator sent {point_sent} point requests"
            )
    throughput = summarize(saturation)
    latency = summarize(paced)
    assert throughput["errors"] == 0, saturation.errors()[:3]
    assert latency["errors"] == 0, paced.errors()[:3]

    qps = throughput["qps"]
    _QPS[(mix.name, workers)] = qps
    per_core = qps / min(workers, os.cpu_count() or 1)
    codes = " ".join(
        f"{code}:{count}"
        for code, count in sorted(_merged_codes(throughput, latency).items())
    )
    _LINES.append(
        f"{mix.name:<7} {workers:>7} {throughput['requests']:>8} "
        f"{throughput['errors']:>6} {qps:>9,.0f} {per_core:>9,.0f} "
        f"{latency['p50'] * 1e3:>6.2f}ms {latency['p99'] * 1e3:>6.2f}ms "
        f"{latency['p999'] * 1e3:>6.2f}ms {codes}"
    )
    _flush_results()


def test_fleet_scaling_recorded(fleet_archive):
    """The 1→2 worker q/s ratio, asserted only on multi-core hosts."""
    assert _QPS, "run test_fleet_load first (pytest runs this file in order)"
    cores = os.cpu_count() or 1
    _LINES.append("")
    for mix in MIXES:
        single = _QPS[(mix.name, 1)]
        double = _QPS[(mix.name, 2)]
        ratio = double / single if single else float("inf")
        if cores >= 2:
            _LINES.append(
                f"scaling: {mix.name} mix 1->2 workers {ratio:.2f}x "
                f"(bar {SCALING_BAR}x, asserted)"
            )
        else:
            _LINES.append(
                f"scaling: {mix.name} mix 1->2 workers {ratio:.2f}x "
                f"(1-core container: {SCALING_BAR}x bar not asserted)"
            )
    _flush_results()
    if cores >= 2:
        point_ratio = _QPS[("point", 2)] / _QPS[("point", 1)]
        assert point_ratio >= SCALING_BAR, (
            f"fleet q/s only scaled {point_ratio:.2f}x from 1 to 2 workers "
            f"on a {cores}-core host (acceptance bar is {SCALING_BAR}x)"
        )
