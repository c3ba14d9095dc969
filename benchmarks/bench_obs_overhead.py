"""Telemetry instrumentation overhead on the Step-3 hot path.

The tracing layer promises that spans live at *stage* granularity (two
clock reads on entry, two on exit, one histogram observe) and never
inside per-item loops, so ``detect`` with telemetry on must cost within
3% of telemetry off.  This bench drives the columnar engine's Step 3+4
``select`` over a dense synthetic membership index (~512k pair rows)
with spans **enabled** vs **disabled**
(:func:`repro.obs.tracing.set_enabled`), alternating legs best-of-N so
clock drift hits both equally.

The <3% bar is asserted on every host with 2+ cores — on a shared
1-core container scheduler noise swamps a single-digit-percent signal,
so the measured ratio is recorded with a skip note instead.  Results
land in ``timings/obs_overhead.txt``.  The module still runs once,
untimed, under CI's ``--benchmark-disable`` smoke job.
"""

import os
import random
import time

from repro.core.domainsets import PrefixDomainIndex
from repro.core.substrate import ColumnarSubstrate
from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import set_enabled, set_registry

from benchmarks.common import TIMINGS_DIR

#: Dense index shape: domains x v4 fan x v6 fan (~512k pair rows).
N_DOMAINS, FAN_V4, FAN_V6 = 8_000, 8, 8

REPEATS = 5
OVERHEAD_BAR = 1.03


def _dense_index() -> PrefixDomainIndex:
    rng = random.Random(20260808)
    v4_pool = [
        Prefix.from_address(IPV4, (10 << 24) | (i << 8), 24)
        for i in range(256)
    ]
    v6_pool = [
        Prefix.from_address(IPV6, (0x2001_0DB8 << 96) | (i << 80), 48)
        for i in range(256)
    ]
    index = PrefixDomainIndex(date=REFERENCE_DATE)
    for position in range(N_DOMAINS):
        label = f"d{position}.bench"
        v4_prefixes = set(rng.sample(v4_pool, FAN_V4))
        v6_prefixes = set(rng.sample(v6_pool, FAN_V6))
        index.domain_v4_prefixes[label] = v4_prefixes
        index.domain_v6_prefixes[label] = v6_prefixes
        for prefix in v4_prefixes:
            index.v4_domains.setdefault(prefix, set()).add(label)
        for prefix in v6_prefixes:
            index.v6_domains.setdefault(prefix, set()).add(label)
    return index


def test_instrumentation_overhead_under_bar():
    """Traced vs untraced Step 3+4 select; <3% asserted on 2+ cores."""
    index = _dense_index()
    engine = ColumnarSubstrate()
    previous_registry = set_registry(MetricsRegistry())
    previous_enabled = set_enabled(True)
    try:
        baseline = engine.select(index)  # warm the prepared-state cache
        traced_best = untraced_best = float("inf")
        for _ in range(REPEATS):
            set_enabled(True)
            start = time.perf_counter()
            traced_result = engine.select(index)
            traced_best = min(traced_best, time.perf_counter() - start)

            set_enabled(False)
            start = time.perf_counter()
            untraced_result = engine.select(index)
            untraced_best = min(untraced_best, time.perf_counter() - start)
            assert len(traced_result) == len(untraced_result) == len(baseline)
    finally:
        set_enabled(previous_enabled)
        set_registry(previous_registry)

    cores = os.cpu_count() or 1
    ratio = traced_best / untraced_best if untraced_best else float("inf")
    asserted = cores >= 2
    lines = [
        "telemetry instrumentation overhead: Step 3+4 select",
        "=" * 51,
        "",
        f"host cores: {cores}  repeats: {REPEATS} (alternating best-of-N)  "
        f"pair shape: {N_DOMAINS} domains x {FAN_V4}x{FAN_V6} fan",
        "",
        f"untraced  {untraced_best * 1e3:>9.1f}ms",
        f"traced    {traced_best * 1e3:>9.1f}ms",
        f"overhead  {(ratio - 1.0) * 100:>+9.2f}%  (bar < "
        f"{(OVERHEAD_BAR - 1.0) * 100:.0f}%, "
        + (
            "asserted)"
            if asserted
            else "recorded, not asserted on a 1-core host)"
        ),
    ]
    TIMINGS_DIR.mkdir(exist_ok=True)
    (TIMINGS_DIR / "obs_overhead.txt").write_text("\n".join(lines) + "\n")

    if asserted:
        assert ratio < OVERHEAD_BAR, (
            f"stage tracing cost {(ratio - 1.0) * 100:.2f}% on the Step-3 "
            f"hot path (budget is {(OVERHEAD_BAR - 1.0) * 100:.0f}%)"
        )
