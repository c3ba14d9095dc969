#!/usr/bin/env python3
"""A miniature longitudinal sibling-prefix study (Section 4.3).

Walks the 4-year window, tracks pair counts and Jaccard stability, and
classifies pairs into new / unchanged / changed — the Figure 9 and
Figure 10 story in one script.

The whole series runs on ONE columnar substrate instance
(detect_series), so the interned domain table is built once and reused
across all ten snapshots — the intended shape for longitudinal runs.
detect_series also rolls one index forward, applying each date's
snapshot delta instead of re-detecting (dates whose routing tables
changed rebuild automatically), with output bit-identical to per-date
detection.

Run:  python examples/longitudinal_study.py
"""

from repro.analysis.pipeline import detect_series, paper_offsets
from repro.core.longitudinal import classify_changes, classify_series
from repro.core.substrate import ColumnarSubstrate
from repro.dates import REFERENCE_DATE
from repro.synth import build_universe


def main() -> None:
    universe = build_universe("tiny")
    offsets = paper_offsets(REFERENCE_DATE)

    print("Sibling pair counts over time (columnar substrate, shared "
          "intern pool):")
    engine = ColumnarSubstrate()
    series = detect_series(
        universe, [date for _, date in offsets], substrate=engine
    )
    sets = {}
    for (label, _), (date, siblings) in zip(offsets, series):
        sets[label] = siblings
        print(
            f"  {label:<9} {date}  pairs={len(siblings):5d}  "
            f"perfect={siblings.perfect_match_share:5.1%}"
        )
    print(
        f"  ({engine.interned_domain_count} distinct domains interned "
        f"across {len(series)} snapshots)"
    )
    growth = len(sets["Day 0"]) / max(1, len(sets["Year -4"]))
    print(f"\nGrowth over four years: {growth:.2f}x (paper: ~2.1x)")

    print("\nNew pairs per consecutive step:")
    step_reports = classify_series([siblings for _, siblings in series])
    for (label, _), report in zip(offsets[1:], step_reports):
        print(f"  {label:<9} +{len(report.new)} new, {len(report.gone)} gone")

    report = classify_changes(sets["Year -4"], sets["Day 0"])
    total = report.total_current
    print("\nChange classes vs four years ago:")
    print(f"  new:       {len(report.new):5d} ({len(report.new) / total:.1%})")
    print(
        f"  unchanged: {len(report.unchanged):5d} "
        f"({len(report.unchanged) / total:.1%})"
    )
    print(
        f"  changed:   {len(report.changed):5d} "
        f"({len(report.changed) / total:.1%})"
    )
    print(f"  gone:      {len(report.gone):5d} (not part of the current set)")

    if report.changed:
        old_mean = sum(report.changed_old_similarities()) / len(report.changed)
        new_mean = sum(report.changed_current_similarities()) / len(report.changed)
        print(
            f"\nChanged pairs drifted from mean J={old_mean:.2f} (then) "
            f"to {new_mean:.2f} (now) — the paper observes the same "
            f"downward drift for changed pairs."
        )


if __name__ == "__main__":
    main()
