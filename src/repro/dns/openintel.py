"""Measurement snapshots — the OpenINTEL data model.

A :class:`DnsSnapshot` is what one monthly OpenINTEL run produces: for
every domain *response name*, the set of IPv4 and IPv6 addresses it
resolved to on that date.  :meth:`DnsSnapshot.measure` performs the run
against authoritative zone data with the CNAME-chasing resolver, grouping
by the final name exactly as the paper does (Section 3).

A :class:`SnapshotSeries` is the longitudinal collection (the paper's 49
monthly snapshots plus the finer-grained day/week offsets used in
Section 4).

Consecutive snapshots differ in only a small fraction of domains, so the
longitudinal pipeline treats day-over-day measurement as a delta problem:
:class:`SnapshotDelta` (computed by :meth:`DnsSnapshot.delta_to` or
:meth:`SnapshotSeries.delta`) records exactly which domains appeared,
disappeared, or changed addresses between two dates.  The rolling
detection loop (:meth:`repro.core.domainsets.PrefixDomainIndex.apply_delta`
driven by :class:`repro.analysis.pipeline.RollingDetection`, behind
``detect_series`` and ``repro watch``) consumes it instead of
rebuilding everything.
"""

from __future__ import annotations

import bisect
import datetime
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.dns.resolver import Resolver
from repro.dns.zone import Zone


@dataclass(frozen=True, slots=True)
class DomainObservation:
    """One domain's resolution outcome in one snapshot."""

    domain: str
    v4_addresses: tuple[int, ...]
    v6_addresses: tuple[int, ...]

    @property
    def is_dual_stack(self) -> bool:
        return bool(self.v4_addresses) and bool(self.v6_addresses)

    @property
    def has_any_address(self) -> bool:
        return bool(self.v4_addresses) or bool(self.v6_addresses)


@dataclass(frozen=True, slots=True)
class SnapshotDelta:
    """What changed between two measurement snapshots.

    ``added`` carries the full new observations, ``removed`` only the
    domain names (the consumer still holds the old snapshot or index),
    and ``changed`` pairs the old and new observation for domains whose
    address tuples differ on either family.  Dual-stack transitions are
    *not* resolved here — a domain flipping from v4-only to dual-stack
    is simply a ``changed`` entry; the index layer decides what that
    means for detection.
    """

    old_date: datetime.date
    new_date: datetime.date
    added: tuple[DomainObservation, ...]
    removed: tuple[str, ...]
    changed: tuple[tuple[DomainObservation, DomainObservation], ...]

    @property
    def touched_domains(self) -> int:
        """How many domains this delta mentions at all."""
        return len(self.added) + len(self.removed) + len(self.changed)

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    def __repr__(self) -> str:
        return (
            f"SnapshotDelta({self.old_date.isoformat()} -> "
            f"{self.new_date.isoformat()}, +{len(self.added)} "
            f"-{len(self.removed)} ~{len(self.changed)})"
        )


class DnsSnapshot:
    """All domain observations for one measurement date."""

    def __init__(
        self, date: datetime.date, observations: Iterable[DomainObservation] = ()
    ):
        self.date = date
        self._observations: dict[str, DomainObservation] = {}
        for observation in observations:
            self._add(observation)

    def _add(self, observation: DomainObservation) -> None:
        existing = self._observations.get(observation.domain)
        if existing is None:
            self._observations[observation.domain] = observation
        else:
            # Two queried names CNAME-converged on the same response name:
            # merge their address sets.
            self._observations[observation.domain] = DomainObservation(
                observation.domain,
                tuple(sorted(set(existing.v4_addresses) | set(observation.v4_addresses))),
                tuple(sorted(set(existing.v6_addresses) | set(observation.v6_addresses))),
            )

    @classmethod
    def measure(
        cls, zone: Zone, queried_domains: Iterable[str], date: datetime.date
    ) -> "DnsSnapshot":
        """Run the measurement: resolve every queried domain over both
        families and group results by response (final) name."""
        resolver = Resolver(zone)
        snapshot = cls(date)
        for queried in queried_domains:
            result_a, result_aaaa = resolver.resolve_dual_stack(queried)
            final = result_a.final_name or result_aaaa.final_name
            if final is None:
                continue
            snapshot._add(
                DomainObservation(
                    final,
                    result_a.addresses if result_a.ok else (),
                    result_aaaa.addresses if result_aaaa.ok else (),
                )
            )
        return snapshot

    # -- access ---------------------------------------------------------------

    def get(self, domain: str) -> DomainObservation | None:
        return self._observations.get(domain)

    def observations(self) -> Iterator[DomainObservation]:
        yield from self._observations.values()

    def domains(self) -> Iterator[str]:
        yield from self._observations

    def dual_stack_observations(self) -> Iterator[DomainObservation]:
        for observation in self._observations.values():
            if observation.is_dual_stack:
                yield observation

    def dual_stack_domains(self) -> set[str]:
        return {o.domain for o in self.dual_stack_observations()}

    # -- deltas ---------------------------------------------------------------

    def delta_to(self, newer: "DnsSnapshot") -> SnapshotDelta:
        """The :class:`SnapshotDelta` turning this snapshot into *newer*.

        One pass over both observation tables: domains only in *newer*
        are ``added``, domains only in this snapshot are ``removed``,
        and domains present in both but with different address tuples
        (either family) are ``changed``.  Applying the delta on top of
        this snapshot's contents reconstructs *newer* exactly.
        """
        old = self._observations
        new = newer._observations
        added: list[DomainObservation] = []
        changed: list[tuple[DomainObservation, DomainObservation]] = []
        for domain, observation in new.items():
            previous = old.get(domain)
            if previous is None:
                added.append(observation)
            elif (
                previous.v4_addresses != observation.v4_addresses
                or previous.v6_addresses != observation.v6_addresses
            ):
                changed.append((previous, observation))
        removed = tuple(domain for domain in old if domain not in new)
        return SnapshotDelta(
            old_date=self.date,
            new_date=newer.date,
            added=tuple(added),
            removed=removed,
            changed=tuple(changed),
        )

    # -- statistics -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True for a measured-but-empty snapshot (zero observations).

        Distinct from a *missing* date: an empty snapshot is a real
        measurement outcome (e.g. a rotation blackout window where every
        watched domain dropped out) and participates in deltas — the
        delta into it retracts everything, the delta out of it re-adds
        everything.  A missing date is a :exc:`LookupError` from
        :meth:`SnapshotSeries.at` / :meth:`SnapshotSeries.delta`.
        """
        return not self._observations

    @property
    def domain_count(self) -> int:
        return len(self._observations)

    @property
    def dual_stack_count(self) -> int:
        return sum(1 for _ in self.dual_stack_observations())

    @property
    def dual_stack_share(self) -> float:
        if not self._observations:
            return 0.0
        return self.dual_stack_count / self.domain_count

    def unique_addresses(self) -> tuple[set[int], set[int]]:
        """(unique IPv4 addresses, unique IPv6 addresses) across domains."""
        v4: set[int] = set()
        v6: set[int] = set()
        for observation in self._observations.values():
            v4.update(observation.v4_addresses)
            v6.update(observation.v6_addresses)
        return v4, v6

    def __len__(self) -> int:
        return len(self._observations)

    def __contains__(self, domain: object) -> bool:
        return isinstance(domain, str) and domain in self._observations

    def __repr__(self) -> str:
        return (
            f"DnsSnapshot({self.date.isoformat()}, domains={self.domain_count}, "
            f"dual_stack={self.dual_stack_count})"
        )


class SnapshotSeries:
    """A date-ordered collection of snapshots."""

    def __init__(self, snapshots: Iterable[DnsSnapshot] = ()):
        self._by_date: dict[datetime.date, DnsSnapshot] = {}
        self._dates: list[datetime.date] = []
        for snapshot in snapshots:
            self.add(snapshot)

    def add(self, snapshot: DnsSnapshot) -> None:
        if snapshot.date in self._by_date:
            raise ValueError(f"duplicate snapshot for {snapshot.date}")
        self._by_date[snapshot.date] = snapshot
        bisect.insort(self._dates, snapshot.date)

    def dates(self) -> list[datetime.date]:
        return list(self._dates)

    def at(self, date: datetime.date) -> DnsSnapshot:
        """The snapshot measured on *date*.

        Raises :exc:`LookupError` when the series holds no snapshot for
        the date — deliberately distinct from an *empty* snapshot
        (:attr:`DnsSnapshot.is_empty`), which is a member like any other.
        """
        try:
            return self._by_date[date]
        except KeyError:
            raise LookupError(
                f"no snapshot for {date.isoformat()}; series covers "
                + (
                    f"{self._dates[0].isoformat()}..{self._dates[-1].isoformat()} "
                    f"({len(self._dates)} dates)"
                    if self._dates
                    else "no dates"
                )
            ) from None

    def get(self, date: datetime.date) -> DnsSnapshot | None:
        """The snapshot for *date*, or ``None`` when the date is missing."""
        return self._by_date.get(date)

    def empty_dates(self) -> list[datetime.date]:
        """Member dates whose snapshot measured zero observations."""
        return [d for d in self._dates if self._by_date[d].is_empty]

    def nearest(self, date: datetime.date) -> DnsSnapshot:
        """The snapshot closest in time to *date* (ties go earlier)."""
        if not self._dates:
            raise LookupError("empty snapshot series")
        index = bisect.bisect_left(self._dates, date)
        candidates = []
        if index > 0:
            candidates.append(self._dates[index - 1])
        if index < len(self._dates):
            candidates.append(self._dates[index])
        best = min(candidates, key=lambda d: abs((d - date).days))
        return self._by_date[best]

    def latest(self) -> DnsSnapshot:
        if not self._dates:
            raise LookupError("empty snapshot series")
        return self._by_date[self._dates[-1]]

    def delta(
        self, old_date: datetime.date, new_date: datetime.date
    ) -> SnapshotDelta:
        """The delta between two member snapshots (any two dates).

        Either endpoint being *missing* from the series raises
        :exc:`LookupError`.  An *empty-but-present* endpoint is valid:
        the delta into an empty snapshot removes every domain, the delta
        out of it adds every domain back — a rotation blackout window is
        churn, not absence of data.
        """
        return self.at(old_date).delta_to(self.at(new_date))

    def deltas(self) -> Iterator[SnapshotDelta]:
        """Deltas between consecutive snapshots, in date order."""
        for older, newer in zip(self._dates, self._dates[1:]):
            yield self._by_date[older].delta_to(self._by_date[newer])

    def __iter__(self) -> Iterator[DnsSnapshot]:
        for date in self._dates:
            yield self._by_date[date]

    def __len__(self) -> int:
        return len(self._dates)

    def __contains__(self, date: object) -> bool:
        return date in self._by_date
