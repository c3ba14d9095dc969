"""Exact detection scoring against a ground-truth ledger.

:mod:`repro.core.quality` scores detection against the calibrated
universe's *deployment distributions* (a proxy, since that generator
does not know which exact prefix pairs are detectable).  The event
engine (:mod:`repro.synth.events`) does know — it scripts every pair —
so this module joins a detected
:class:`~repro.core.siblings.SiblingSet` against its
:class:`~repro.synth.groundtruth.GroundTruthLedger` and reports exact
per-date precision, recall, F1, and churn-lag (how many dates until a
truth change shows up in the detection output).

Conventions:

* A detected pair matching *any* truth pair (visible or not) counts
  toward precision — detecting an organizationally true pair during a
  blackout is not a false positive.
* Recall is measured against *visible* truth only: pairs the snapshot
  cannot support (v4-only, absent, hijacked into an aliased cluster)
  never count as misses.
* A false positive touching a registered trap prefix (the aliased
  clusters) is additionally counted as a ``trap_positive`` —
  ``non_trap_precision`` then isolates quality from the designed traps.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.siblings import SiblingSet
from repro.synth.groundtruth import GroundTruthLedger, PairKey


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True, slots=True)
class DateScore:
    """Detection vs. truth on one date."""

    date: datetime.date
    true_positives: int
    false_positives: int
    #: Subset of ``false_positives`` touching a registered trap prefix.
    trap_positives: int
    false_negatives: int

    @property
    def detected(self) -> int:
        return self.true_positives + self.false_positives

    @property
    def precision(self) -> float:
        if self.detected == 0:
            # Nothing detected: perfect precision iff nothing was missed.
            return 1.0 if self.false_negatives == 0 else 0.0
        return self.true_positives / self.detected

    @property
    def non_trap_precision(self) -> float:
        """Precision with the designed trap hits excluded."""
        denominator = self.detected - self.trap_positives
        if denominator == 0:
            return 1.0 if self.false_negatives == 0 else 0.0
        return self.true_positives / denominator

    @property
    def recall(self) -> float:
        expected = self.true_positives + self.false_negatives
        if expected == 0:
            return 1.0
        return self.true_positives / expected

    @property
    def f1(self) -> float:
        return _f1(self.precision, self.recall)


@dataclass(frozen=True, slots=True)
class ChurnLag:
    """How quickly truth changes were reflected in detection output.

    For every non-empty ledger change at date *d*, the lag is the number
    of result dates from *d* (inclusive) until the first result where
    every added pair is detected and every retracted pair is gone.  A
    lag of 0 means the change landed the same date it happened.
    """

    changes: int
    reflected: int
    lags: tuple[int, ...]

    @property
    def unreflected(self) -> int:
        return self.changes - self.reflected

    @property
    def mean_lag(self) -> float | None:
        if not self.lags:
            return None
        return sum(self.lags) / len(self.lags)

    @property
    def max_lag(self) -> int | None:
        return max(self.lags) if self.lags else None


@dataclass(frozen=True, slots=True)
class ScenarioScore:
    """Aggregate of a whole series run against one ledger."""

    scenario: str
    dates: tuple[DateScore, ...]
    churn: ChurnLag

    def _totals(self) -> tuple[int, int, int, int]:
        tp = sum(s.true_positives for s in self.dates)
        fp = sum(s.false_positives for s in self.dates)
        trap = sum(s.trap_positives for s in self.dates)
        fn = sum(s.false_negatives for s in self.dates)
        return tp, fp, trap, fn

    @property
    def precision(self) -> float:
        tp, fp, _, fn = self._totals()
        if tp + fp == 0:
            return 1.0 if fn == 0 else 0.0
        return tp / (tp + fp)

    @property
    def non_trap_precision(self) -> float:
        tp, fp, trap, fn = self._totals()
        if tp + fp - trap == 0:
            return 1.0 if fn == 0 else 0.0
        return tp / (tp + fp - trap)

    @property
    def recall(self) -> float:
        tp, _, _, fn = self._totals()
        if tp + fn == 0:
            return 1.0
        return tp / (tp + fn)

    @property
    def f1(self) -> float:
        return _f1(self.precision, self.recall)

    @property
    def trap_positives(self) -> int:
        return self._totals()[2]


def score_detection(
    siblings: SiblingSet,
    ledger: GroundTruthLedger,
    date: datetime.date | None = None,
) -> DateScore:
    """Join one detected sibling set against the ledger's truth."""
    when = date if date is not None else siblings.date
    truth_keys = ledger.keys_at(when)
    visible_keys = ledger.visible_keys_at(when)
    detected: set[PairKey] = {pair.key for pair in siblings}
    true_positives = len(detected & truth_keys)
    false_keys = detected - truth_keys
    trap_positives = sum(
        1
        for v4_prefix, v6_prefix in false_keys
        if ledger.is_trap(v4_prefix) or ledger.is_trap(v6_prefix)
    )
    false_negatives = len(visible_keys - detected)
    return DateScore(
        date=when,
        true_positives=true_positives,
        false_positives=len(false_keys),
        trap_positives=trap_positives,
        false_negatives=false_negatives,
    )


def _churn_lag(
    results: Sequence[tuple[datetime.date, SiblingSet]],
    ledger: GroundTruthLedger,
) -> ChurnLag:
    detected_by_date = {
        date: {pair.key for pair in siblings} for date, siblings in results
    }
    dates = [date for date, _ in results]
    position = {date: i for i, date in enumerate(dates)}
    changes = 0
    lags: list[int] = []
    for change in ledger.changes():
        if change.is_empty or change.date not in position:
            continue
        changes += 1
        start = position[change.date]
        for offset, date in enumerate(dates[start:]):
            detected = detected_by_date[date]
            if change.added <= detected and not (change.retracted & detected):
                lags.append(offset)
                break
    return ChurnLag(changes=changes, reflected=len(lags), lags=tuple(lags))


def score_series(
    results: Iterable[tuple[datetime.date, SiblingSet]],
    ledger: GroundTruthLedger,
    scenario: str = "",
) -> ScenarioScore:
    """Score a full ``detect_series`` result list against the ledger."""
    materialized = list(results)
    dates = tuple(
        score_detection(siblings, ledger, date)
        for date, siblings in materialized
    )
    return ScenarioScore(
        scenario=scenario,
        dates=dates,
        churn=_churn_lag(materialized, ledger),
    )


def render_score(score: ScenarioScore) -> str:
    """The per-date score table ``repro scenario run --score`` prints."""
    lines = [
        f"{'date':<12} {'truth':>6} {'found':>6} {'tp':>5} {'fp':>5} "
        f"{'trap':>5} {'fn':>5} {'prec':>7} {'recall':>7} {'f1':>7}"
    ]
    for entry in score.dates:
        expected = entry.true_positives + entry.false_negatives
        lines.append(
            f"{entry.date.isoformat():<12} {expected:>6} {entry.detected:>6} "
            f"{entry.true_positives:>5} {entry.false_positives:>5} "
            f"{entry.trap_positives:>5} {entry.false_negatives:>5} "
            f"{entry.precision:>7.3f} {entry.recall:>7.3f} {entry.f1:>7.3f}"
        )
    churn = score.churn
    mean_lag = "-" if churn.mean_lag is None else f"{churn.mean_lag:.2f}"
    max_lag = "-" if churn.max_lag is None else str(churn.max_lag)
    lines.append(
        f"overall precision={score.precision:.3f} "
        f"(non-trap {score.non_trap_precision:.3f}) "
        f"recall={score.recall:.3f} f1={score.f1:.3f}"
    )
    lines.append(
        f"churn: {churn.changes} changes, {churn.reflected} reflected, "
        f"mean lag {mean_lag} dates, max lag {max_lag}, "
        f"{churn.unreflected} unreflected"
    )
    return "\n".join(lines)
