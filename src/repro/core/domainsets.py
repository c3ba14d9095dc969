"""Steps 1-2 of the methodology: dual-stack domains → prefix groups.

Takes one measurement snapshot, keeps the dual-stack domains, maps every
address to its BGP prefix through the annotator (with the paper's
reserved-address discard and Routeviews fallback), and groups domains by
prefix per family.  The resulting :class:`PrefixDomainIndex` is the input
to both the similarity matrix (Step 3) and the SP-Tuner tries.

The index itself stays a dict-of-sets; the Step 3-4 substrates
(:mod:`repro.core.substrate`) derive their own layouts from it.  The
columnar engine holds its interned posting-list view of the index it
last prepared (one conversion per snapshot), so repeated detection runs
on that engine — different metrics, best-match modes, or SP-Tuner
sweeps — reuse it.

The index is also *incrementally maintainable*: :meth:`PrefixDomainIndex.
apply_delta` replays a :class:`~repro.dns.openintel.SnapshotDelta` in
place (re-running the Steps 1-2 annotation only for the touched domains)
and returns the membership changes as an :class:`IndexDelta`.  The
caller hands that delta to the engine's :meth:`~repro.core.substrate.
Substrate.patch`, which patches its derived view instead of rebuilding
it.  That is the one way an index changes under an engine: an index
edited by hand needs a fresh engine.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Iterable

from repro.bgp.routeviews import PrefixAnnotator
from repro.dns.openintel import DnsSnapshot, SnapshotDelta
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.obs.tracing import trace

#: Sentinel distinguishing "no precomputed annotation" from the ``None``
#: that :func:`_annotate_entry` returns for an unusable entry.
_UNANNOTATED = object()


@dataclass(frozen=True, slots=True)
class IndexDelta:
    """Membership changes one :meth:`PrefixDomainIndex.apply_delta` made.

    Each entry is ``(domain, v4 prefixes, v6 prefixes)`` — for
    ``removed`` the membership the domain *had*, for ``added`` the
    membership it *gained*.  A changed domain whose annotation kept the
    exact same prefix sets (renumbering inside its prefixes) appears in
    neither: its pair contributions are unchanged by construction, which
    is precisely what makes delta application cheap under address churn.
    """

    date: datetime.date
    removed: tuple[tuple[str, frozenset[Prefix], frozenset[Prefix]], ...]
    added: tuple[tuple[str, frozenset[Prefix], frozenset[Prefix]], ...]

    @property
    def is_empty(self) -> bool:
        return not (self.removed or self.added)


@dataclass
class PrefixDomainIndex:
    """Bidirectional domain ↔ prefix grouping for one snapshot."""

    date: datetime.date
    #: prefix → dual-stack domains with at least one address inside it.
    v4_domains: dict[Prefix, set[str]] = field(default_factory=dict)
    v6_domains: dict[Prefix, set[str]] = field(default_factory=dict)
    #: domain → prefixes of its addresses.
    domain_v4_prefixes: dict[str, set[Prefix]] = field(default_factory=dict)
    domain_v6_prefixes: dict[str, set[Prefix]] = field(default_factory=dict)
    #: domain → concrete addresses (consumed by the SP-Tuner tries).
    domain_v4_addresses: dict[str, tuple[int, ...]] = field(default_factory=dict)
    domain_v6_addresses: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: DS domains dropped because no address annotated on one family
    #: (reserved/unrouted).
    dropped_domains: int = 0
    #: The labels behind :attr:`dropped_domains` — needed so deltas can
    #: transition a domain between dropped and indexed exactly.
    dropped_labels: set[str] = field(default_factory=set, repr=False)
    #: The prefix entries :meth:`content_signature` used last time.
    _signature_entries: dict[Prefix, tuple[int, int, bytes]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def domain_count(self) -> int:
        return len(self.domain_v4_prefixes)

    @property
    def v4_prefix_count(self) -> int:
        return len(self.v4_domains)

    @property
    def v6_prefix_count(self) -> int:
        return len(self.v6_domains)

    def domains_of(self, prefix: Prefix) -> frozenset[str]:
        """The DS domains grouped under *prefix* (empty if unknown)."""
        table = self.v4_domains if prefix.version == IPV4 else self.v6_domains
        return frozenset(table.get(prefix, ()))

    def content_signature(self) -> str:
        """Order-independent hex digest of the full membership content.

        Two indexes with identical domain → (v4 prefixes, v6 prefixes)
        mappings — however they were built, from scratch or through any
        delta sequence — hash identically.  The snapshot archive
        (:mod:`repro.storage`) records this per state generation and
        refuses to resume from a state whose signature does not match
        the freshly rebuilt index, so a changed scenario or date grid
        degrades to a rebuild instead of serving stale counters.
        """
        import hashlib

        # Formatting dominates the hash, and consecutive generations
        # share most prefixes: each prefix's (value, length, text) entry
        # is carried over from the previous call, and each call keeps
        # only the entries it used.  Sorting the entries orders a
        # domain's prefixes by (value, length), which within one family
        # is ``Prefix`` order.
        previous = self._signature_entries
        entries: dict[Prefix, tuple[int, int, bytes]] = {}

        def entry(prefix: Prefix) -> tuple[int, int, bytes]:
            found = entries.get(prefix)
            if found is None:
                found = previous.get(prefix)
                if found is None:
                    found = (
                        prefix.value,
                        prefix.length,
                        str(prefix).encode("ascii") + b";",
                    )
                entries[prefix] = found
            return found

        def encoded(prefixes: set[Prefix]) -> bytes:
            if len(prefixes) == 1:  # most domains, on either family
                (prefix,) = prefixes
                return entry(prefix)[2]
            return b"".join([found[2] for found in sorted(map(entry, prefixes))])

        digest = hashlib.sha256()
        for domain in sorted(self.domain_v4_prefixes):
            digest.update(domain.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(encoded(self.domain_v4_prefixes[domain]))
            digest.update(b"\x01")
            digest.update(encoded(self.domain_v6_prefixes[domain]))
            digest.update(b"\x02")
        digest.update(str(self.dropped_domains).encode("ascii"))
        self._signature_entries = entries
        return digest.hexdigest()

    def apply_delta(
        self, delta: SnapshotDelta, annotator: PrefixAnnotator
    ) -> IndexDelta:
        """Replay a snapshot delta in place (incremental Steps 1-2).

        Only the touched domains are re-annotated; everything else keeps
        its groups, which is exact as long as the annotator's contents
        are unchanged between the two dates (the caller's obligation —
        :func:`repro.analysis.pipeline.detect_series` gates on
        :meth:`repro.bgp.routeviews.PrefixAnnotator.signature`).  The
        resulting index is equal to a from-scratch
        :func:`build_index` of the new snapshot.

        Returns the :class:`IndexDelta` describing the membership
        changes, for the engine's :meth:`~repro.core.substrate.
        Substrate.patch`.
        """
        removed_entries: list[tuple[str, frozenset[Prefix], frozenset[Prefix]]] = []
        added_entries: list[tuple[str, frozenset[Prefix], frozenset[Prefix]]] = []

        for domain in delta.removed:
            self._remove_label(domain, removed_entries)
        for old_observation, observation in delta.changed:
            domain = observation.domain
            annotated = _UNANNOTATED
            if (
                observation.is_dual_stack
                and domain in self.domain_v4_prefixes
            ):
                annotated = _annotate_entry(
                    observation.v4_addresses, observation.v6_addresses, annotator
                )
                if annotated is not None:
                    v4_prefixes, v4_addresses, v6_prefixes, v6_addresses = annotated
                    if (
                        v4_prefixes == self.domain_v4_prefixes[domain]
                        and v6_prefixes == self.domain_v6_prefixes[domain]
                    ):
                        # Renumbered inside its prefixes: group membership
                        # is untouched, only the concrete addresses move.
                        self.domain_v4_addresses[domain] = v4_addresses
                        self.domain_v6_addresses[domain] = v6_addresses
                        continue
            self._remove_label(domain, removed_entries)
            self._insert_observation(
                observation, annotator, added_entries, annotated=annotated
            )
        for observation in delta.added:
            self._insert_observation(observation, annotator, added_entries)

        self.date = delta.new_date
        return IndexDelta(
            date=self.date,
            removed=tuple(removed_entries),
            added=tuple(added_entries),
        )

    def _remove_label(
        self,
        domain: str,
        removed_entries: list,
    ) -> None:
        """Remove one domain's contributions (no-op if unknown)."""
        if domain in self.dropped_labels:
            self.dropped_labels.discard(domain)
            self.dropped_domains -= 1
            return
        v4_prefixes = self.domain_v4_prefixes.pop(domain, None)
        if v4_prefixes is None:
            return
        v6_prefixes = self.domain_v6_prefixes.pop(domain)
        del self.domain_v4_addresses[domain]
        del self.domain_v6_addresses[domain]
        for prefix in v4_prefixes:
            members = self.v4_domains[prefix]
            members.discard(domain)
            if not members:
                del self.v4_domains[prefix]
        for prefix in v6_prefixes:
            members = self.v6_domains[prefix]
            members.discard(domain)
            if not members:
                del self.v6_domains[prefix]
        removed_entries.append(
            (domain, frozenset(v4_prefixes), frozenset(v6_prefixes))
        )

    def _insert_observation(
        self,
        observation,
        annotator: PrefixAnnotator,
        added_entries: list,
        annotated=_UNANNOTATED,
    ) -> None:
        """Annotate and insert one observation (dual-stack ones only).

        *annotated* lets the changed-domain path hand over an already
        computed :func:`_annotate_entry` result (including ``None`` for
        an unusable entry) so a prefix-moving domain is not annotated
        twice per delta.
        """
        if not observation.is_dual_stack:
            return
        domain = observation.domain
        if annotated is _UNANNOTATED:
            annotated = _annotate_entry(
                observation.v4_addresses, observation.v6_addresses, annotator
            )
        if annotated is None:
            self.dropped_labels.add(domain)
            self.dropped_domains += 1
            return
        v4_prefixes, v4_addresses, v6_prefixes, v6_addresses = annotated
        self.domain_v4_prefixes[domain] = set(v4_prefixes)
        self.domain_v6_prefixes[domain] = set(v6_prefixes)
        self.domain_v4_addresses[domain] = v4_addresses
        self.domain_v6_addresses[domain] = v6_addresses
        for prefix in v4_prefixes:
            self.v4_domains.setdefault(prefix, set()).add(domain)
        for prefix in v6_prefixes:
            self.v6_domains.setdefault(prefix, set()).add(domain)
        added_entries.append((domain, v4_prefixes, v6_prefixes))


def _annotate_entry(
    raw_v4: Iterable[int],
    raw_v6: Iterable[int],
    annotator: PrefixAnnotator,
) -> "tuple[frozenset[Prefix], tuple[int, ...], frozenset[Prefix], tuple[int, ...]] | None":
    """Annotate one entry's addresses; ``None`` when a family is unusable.

    The shared Steps 1-2 kernel behind :func:`build_index_from_entries`
    and :meth:`PrefixDomainIndex.apply_delta` — keeping both paths on one
    implementation is what makes delta application exact.
    """
    v4_prefixes: set[Prefix] = set()
    v4_addresses: list[int] = []
    for address in raw_v4:
        route = annotator.annotate(IPV4, address)
        if route is not None:
            v4_prefixes.add(route.prefix)
            v4_addresses.append(address)
    v6_prefixes: set[Prefix] = set()
    v6_addresses: list[int] = []
    for address in raw_v6:
        route = annotator.annotate(IPV6, address)
        if route is not None:
            v6_prefixes.add(route.prefix)
            v6_addresses.append(address)
    if not v4_prefixes or not v6_prefixes:
        # All addresses of one family were reserved or unrouted: the
        # entry is no longer usable for prefix pairing.
        return None
    return (
        frozenset(v4_prefixes),
        tuple(v4_addresses),
        frozenset(v6_prefixes),
        tuple(v6_addresses),
    )


def build_index_from_entries(
    date: datetime.date,
    entries: "Iterable[tuple[str, Iterable[int], Iterable[int]]]",
    annotator: PrefixAnnotator,
) -> PrefixDomainIndex:
    """Group arbitrary (label, v4 addrs, v6 addrs) entries by prefix.

    The methodology only needs "a mapping from a prefix to a set"
    (Section 3.7) — the label can be a domain, an MX exchange's mail
    domain, or a reverse-DNS host name.
    """
    index = PrefixDomainIndex(date=date)
    for label, raw_v4, raw_v6 in entries:
        annotated = _annotate_entry(raw_v4, raw_v6, annotator)
        if annotated is None:
            index.dropped_labels.add(label)
            index.dropped_domains += 1
            continue
        v4_prefixes, v4_addresses, v6_prefixes, v6_addresses = annotated
        index.domain_v4_prefixes[label] = set(v4_prefixes)
        index.domain_v6_prefixes[label] = set(v6_prefixes)
        index.domain_v4_addresses[label] = v4_addresses
        index.domain_v6_addresses[label] = v6_addresses
        for prefix in v4_prefixes:
            index.v4_domains.setdefault(prefix, set()).add(label)
        for prefix in v6_prefixes:
            index.v6_domains.setdefault(prefix, set()).add(label)
    return index


def build_index(
    snapshot: DnsSnapshot, annotator: PrefixAnnotator
) -> PrefixDomainIndex:
    """Extract DS domains and group them by annotated prefix (Steps 1-2;
    every full build is one ``step12.build_index`` stage call)."""
    with trace("step12.build_index") as span:
        index = build_index_from_entries(
            snapshot.date,
            (
                (o.domain, o.v4_addresses, o.v6_addresses)
                for o in snapshot.dual_stack_observations()
            ),
            annotator,
        )
        span.add_items(len(index.domain_v4_prefixes))
    return index
