"""Step-3 accumulation: python vs numpy kernel at three scales.

The bench drives the columnar accumulation over *synthetic dense
membership indexes* (many multi-prefix domains — the
hypergiant/shared-hosting shape) at three pair-row scales and times
``ColumnarSubstrate.pair_counts`` on the python and numpy kernels over
the same prepared state (no dict conversion inside the timed region).
The kernel acceptance bar — numpy >= 5x python, single core, at the
largest (2.4M pair-row) scale — is asserted whenever numpy is
importable.

Timing is ``time.perf_counter`` best-of-N; the module still runs once
under CI's ``--benchmark-disable`` smoke job.  Every scale asserts the
two kernels produced identical counts, so a timing run is also an
equivalence check.

Results land in ``results/step3_kernels.txt`` together with the host
core count.
"""

import os
import random
import time

import pytest

from repro.core.domainsets import PrefixDomainIndex
from repro.core.kernels import available_kernel_names, numpy_available, use_kernel
from repro.core.substrate import ColumnarSubstrate
from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix

from benchmarks.common import RESULTS_DIR

#: (domains, v4 memberships, v6 memberships) per scale; pair rows are
#: domains * v4 * v6.
SCALES = {
    "small": (2_000, 4, 4),       #   32k pair rows
    "medium": (8_000, 8, 8),      #  512k pair rows
    "large": (6_000, 20, 20),     #  2.4M pair rows
}

KERNEL_NAMES = available_kernel_names()
REPEATS = 3

_LINES: list[str] = []


def _dense_index(scale: str) -> PrefixDomainIndex:
    """A deterministic dense membership index for one scale."""
    n_domains, fan_v4, fan_v6 = SCALES[scale]
    rng = random.Random(20260728)
    v4_pool = [
        Prefix.from_address(IPV4, (10 << 24) | (i << 8), 24)
        for i in range(256)
    ]
    v6_pool = [
        Prefix.from_address(IPV6, (0x2001_0DB8 << 96) | (i << 80), 48)
        for i in range(256)
    ]
    index = PrefixDomainIndex(date=REFERENCE_DATE)
    for position in range(n_domains):
        label = f"d{position}.bench"
        v4_prefixes = set(rng.sample(v4_pool, fan_v4))
        v6_prefixes = set(rng.sample(v6_pool, fan_v6))
        index.domain_v4_prefixes[label] = v4_prefixes
        index.domain_v6_prefixes[label] = v6_prefixes
        for prefix in v4_prefixes:
            index.v4_domains.setdefault(prefix, set()).add(label)
        for prefix in v6_prefixes:
            index.v6_domains.setdefault(prefix, set()).add(label)
    return index


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _flush_results() -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    header = [
        "Step-3 accumulation: python vs numpy kernel",
        "=" * 43,
        "",
        f"host cores: {os.cpu_count()}  kernels: {', '.join(KERNEL_NAMES)}",
        "(numpy>=5x bar asserted single-core at large scale)",
        "",
        "columnar accumulate, single core",
        "--------------------------------",
        f"{'scale':<8} {'pair rows':>10} {'python':>10} {'numpy':>10} "
        f"{'speedup':>8}",
    ]
    (RESULTS_DIR / "step3_kernels.txt").write_text(
        "\n".join(header + _LINES) + "\n"
    )


@pytest.mark.parametrize("scale", list(SCALES))
def test_kernel_step3_speedup(scale):
    """Columnar Step-3 accumulate, python vs numpy kernel, same state."""
    n_domains, fan_v4, fan_v6 = SCALES[scale]
    pair_rows = n_domains * fan_v4 * fan_v6
    state = ColumnarSubstrate().prepare(_dense_index(scale))

    results = {}
    elapsed = {}
    for kernel in KERNEL_NAMES:
        with use_kernel(kernel):
            elapsed[kernel] = _best_of(
                lambda: results.__setitem__(
                    kernel, ColumnarSubstrate.pair_counts(state)
                )
            )
    assert sum(count for _, count in results["python"].items()) == pair_rows
    if not numpy_available():
        _LINES.append(
            f"{scale:<8} {pair_rows:>10,} "
            f"{elapsed['python'] * 1e3:>8.1f}ms {'n/a':>10} {'n/a':>8}"
        )
        _flush_results()
        pytest.skip("numpy kernel not importable on this host")
    # Bit-identical mapping across kernels (outside the timed region).
    assert dict(results["python"].items()) == dict(results["numpy"].items())
    speedup = elapsed["python"] / elapsed["numpy"] if elapsed["numpy"] else 0.0
    _LINES.append(
        f"{scale:<8} {pair_rows:>10,} {elapsed['python'] * 1e3:>8.1f}ms "
        f"{elapsed['numpy'] * 1e3:>8.1f}ms {speedup:>7.2f}x"
    )
    _flush_results()

    if scale == "large":
        assert speedup >= 5.0, (
            f"numpy kernel only {speedup:.2f}x over python at {scale} scale "
            f"({pair_rows:,} pair rows; acceptance bar is 5x single-core)"
        )
