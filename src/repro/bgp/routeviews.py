"""Dated RIB snapshots and the annotation-with-fallback lookup.

Section 2.2: OpenINTEL annotates each A/AAAA answer with prefix and origin
AS, but ~1% of records lack that annotation; the paper falls back to
Routeviews data for those.  :class:`PrefixAnnotator` reproduces this
two-tier lookup, and :class:`RibArchive` is the dated archive the
Routeviews collectors provide.
"""

from __future__ import annotations

import bisect
import datetime
from typing import Iterator

from repro.bgp.rib import Rib, Route
from repro.determinism import stable_uniform
from repro.nettypes.addr import is_reserved


class RibArchive:
    """Monthly RIB snapshots, addressable by date (latest-at-or-before)."""

    def __init__(self):
        self._dates: list[datetime.date] = []
        self._ribs: dict[datetime.date, Rib] = {}

    def add(self, date: datetime.date, rib: Rib) -> None:
        if date in self._ribs:
            raise ValueError(f"duplicate RIB snapshot for {date}")
        self._ribs[date] = rib
        bisect.insort(self._dates, date)

    def at(self, date: datetime.date) -> Rib:
        """The snapshot in effect on *date* (latest at-or-before)."""
        index = bisect.bisect_right(self._dates, date)
        if index == 0:
            raise LookupError(f"no RIB snapshot at or before {date}")
        return self._ribs[self._dates[index - 1]]

    def dates(self) -> list[datetime.date]:
        return list(self._dates)

    def __iter__(self) -> Iterator[tuple[datetime.date, Rib]]:
        for date in self._dates:
            yield date, self._ribs[date]

    def __len__(self) -> int:
        return len(self._dates)


class PrefixAnnotator:
    """Address → (prefix, origin AS) with primary/fallback semantics.

    ``primary`` models the annotations shipped inside the DNS dataset;
    ``fallback`` models the Routeviews archive.  A deterministic hash of
    the address simulates the ~1% of records whose primary annotation is
    missing, forcing the fallback path — so both code paths stay
    exercised, as in the paper.  Reserved addresses annotate to ``None``
    (the paper discards them).
    """

    def __init__(
        self,
        primary: Rib,
        fallback: Rib | None = None,
        missing_fraction: float = 0.01,
    ):
        if not 0.0 <= missing_fraction <= 1.0:
            raise ValueError("missing_fraction must be within [0, 1]")
        self._primary = primary
        self._fallback = fallback if fallback is not None else primary
        self._missing_fraction = missing_fraction
        self.fallback_hits = 0
        self.discarded = 0

    def _primary_missing(self, version: int, value: int) -> bool:
        if self._missing_fraction <= 0.0:
            return False
        # Deterministic pseudo-random selection keyed on the address.
        return (
            stable_uniform("annotation-gap", version, value)
            < self._missing_fraction
        )

    def signature(self) -> tuple:
        """Content identity of the whole annotation function.

        Equal signatures mean :meth:`annotate` returns the same route
        for every address on both annotators: the primary and fallback
        RIB contents agree and the deterministic missing-annotation
        selection uses the same fraction.  This is what
        :class:`~repro.analysis.pipeline.RollingDetection` checks before
        reusing the previous date's index via a snapshot delta.
        """
        return (
            self._primary.signature(),
            self._fallback.signature(),
            self._missing_fraction,
        )

    @property
    def primary(self) -> Rib:
        """The RIB consulted first (the DNS dataset's own annotations)."""
        return self._primary

    @property
    def fallback(self) -> Rib:
        """The RIB consulted when the primary annotation is missing."""
        return self._fallback

    @property
    def missing_fraction(self) -> float:
        """The share of addresses whose primary annotation is missing."""
        return self._missing_fraction

    def annotate(self, version: int, value: int) -> Route | None:
        """The route covering the address, or None when unrouted/reserved."""
        if is_reserved(version, value):
            self.discarded += 1
            return None
        if self._primary_missing(version, value):
            self.fallback_hits += 1
            return self._fallback.route_for_address(version, value)
        route = self._primary.route_for_address(version, value)
        if route is None:
            self.fallback_hits += 1
            route = self._fallback.route_for_address(version, value)
        return route
