#!/usr/bin/env python3
"""Serving demo: from detection output to an answering query service.

Walks the full serving path the paper motivates for downstream
consumers (blocklist/geolocation transfer at interactive rates):

1. detect sibling prefixes on two snapshot dates,
2. compile each snapshot into an immutable ``SiblingLookupIndex``,
3. append both to a ``.sparch`` archive (what ``detect --archive``
   writes and ``repro serve --archive`` attaches),
4. stand up a ``SiblingQueryService`` on the older generation, answer
   point + batch queries,
5. hot-swap to the newer generation and show the answers roll forward.

Run:  python examples/serving_demo.py [scenario]
"""

import datetime
import pathlib
import sys
import tempfile

from repro.analysis.pipeline import detect_at
from repro.dates import REFERENCE_DATE
from repro.serving import SiblingLookupIndex, SiblingQueryService
from repro.storage.index_io import append_index
from repro.synth import build_universe


def main() -> None:
    scenario = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    print(f"Building the {scenario!r} synthetic universe ...")
    universe = build_universe(scenario)

    week_ago = REFERENCE_DATE - datetime.timedelta(days=7)
    print(f"\nDetecting siblings on {week_ago} and {REFERENCE_DATE} ...")
    old_siblings, _ = detect_at(universe, week_ago)
    new_siblings, _ = detect_at(universe, REFERENCE_DATE)
    print(f"  {len(old_siblings)} pairs @ {week_ago}, "
          f"{len(new_siblings)} pairs @ {REFERENCE_DATE}")

    print("\nCompiling lookup indexes ...")
    old_index = SiblingLookupIndex.from_siblings(old_siblings)
    new_index = SiblingLookupIndex.from_siblings(new_siblings)
    print(f"  {old_index}")
    print(f"  {new_index}")

    with tempfile.TemporaryDirectory() as tmp:
        archive = pathlib.Path(tmp) / "siblings.sparch"
        append_index(archive, old_index)
        print(f"\nArchived {old_index.snapshot} into {archive.name}: "
              f"{archive.stat().st_size} bytes")

        print("\nServing the older snapshot from the archive ...")
        service = SiblingQueryService.from_archive(archive)
        probe = next(iter(new_index)).v4_prefix
        inside = probe.network_text  # the network address, inside the prefix
        answer = service.lookup(inside)
        print(f"  lookup({inside}) -> found={answer['found']} "
              f"snapshot={answer['snapshot']}")

        batch = service.batch([inside, "203.0.113.99", "not-an-ip"])
        print(f"  batch of 3 -> "
              f"{[row['found'] for row in batch]} (malformed entry in-band)")

        print("\nAppending the newer snapshot and hot-swapping to it ...")
        append_index(archive, new_index)
        service.swap_from_archive(archive).close()
        answer = service.lookup(inside)
        pairs = answer.get("pairs", [])
        print(f"  lookup({inside}) -> found={answer['found']} "
              f"snapshot={answer['snapshot']} pairs={len(pairs)}")
        if pairs:
            top = pairs[0]
            print(f"    best: {top['v4_prefix']} <-> {top['v6_prefix']} "
                  f"J={top['jaccard']:.3f}")

        info = service.snapshot_info()
        service.index.close()
    print(f"\nService stats: generation={info['generation']} "
          f"queries={info['queries']} cache_hits={info['cache']['hits']}")
    print("\n(The same service is reachable over HTTP: "
          "python -m repro serve --archive <archive.sparch> --port 8080)")


if __name__ == "__main__":
    main()
