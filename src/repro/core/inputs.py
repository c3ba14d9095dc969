"""Alternative input signals for sibling detection (Section 6).

The paper argues the methodology generalizes beyond forward DNS: "we can
identify sibling prefixes using other services, such as DNS MX records,
rDNS names, or aliased hosts. As long as these inputs result in a mapping
from a prefix to a set, our technique ... can still be applied."

Three input builders share :func:`~repro.core.domainsets.build_index_from_entries`:

* ``domains``  — the default forward-DNS signal (Steps 1-2),
* ``mx``       — mail domains mapped through their MX exchanges' addresses,
* ``rdns``     — reverse-DNS host names per address.

:func:`compare_inputs` quantifies how much the resulting sibling sets
agree, which is the experiment backing the Section 6 claim.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left
from dataclasses import dataclass

from repro.bgp.routeviews import PrefixAnnotator
from repro.nettypes.prefix import Prefix
from repro.core.domainsets import (
    PrefixDomainIndex,
    build_index,
    build_index_from_entries,
)
from repro.core.siblings import SiblingSet
from repro.core.substrate import Substrate, get_substrate
from repro.dns.openintel import DnsSnapshot
from repro.dns.records import RRType
from repro.dns.resolver import Resolver
from repro.dns.zone import Zone


def index_from_domains(
    snapshot: DnsSnapshot, annotator: PrefixAnnotator
) -> PrefixDomainIndex:
    """The default signal: dual-stack forward-DNS domains."""
    return build_index(snapshot, annotator)


def index_from_mx(
    zone: Zone,
    queried_domains: list[str],
    annotator: PrefixAnnotator,
    date: datetime.date,
) -> PrefixDomainIndex:
    """Mail-domain signal: each domain maps to the addresses of its MX
    exchange hosts (both families resolved through the zone)."""
    resolver = Resolver(zone)
    entries: list[tuple[str, list[int], list[int]]] = []
    for domain in queried_domains:
        exchanges = resolver.resolve_mx(domain)
        if not exchanges:
            continue
        v4: list[int] = []
        v6: list[int] = []
        for exchange in exchanges:
            result_a = resolver.resolve(exchange, RRType.A)
            result_aaaa = resolver.resolve(exchange, RRType.AAAA)
            if result_a.ok:
                v4.extend(result_a.addresses)
            if result_aaaa.ok:
                v6.extend(result_aaaa.addresses)
        if v4 and v6:
            entries.append((domain, v4, v6))
    return build_index_from_entries(date, entries, annotator)


def index_from_rdns(
    rdns_names: dict[tuple[int, int], str],
    annotator: PrefixAnnotator,
    date: datetime.date,
) -> PrefixDomainIndex:
    """Reverse-DNS signal: hosts appearing under the same rDNS name on
    both families behave exactly like dual-stack domains."""
    v4_by_name: dict[str, list[int]] = {}
    v6_by_name: dict[str, list[int]] = {}
    for (version, address), name in rdns_names.items():
        if version == 4:
            v4_by_name.setdefault(name, []).append(address)
        else:
            v6_by_name.setdefault(name, []).append(address)
    entries = [
        (name, v4_by_name[name], v6_by_name[name])
        for name in v4_by_name.keys() & v6_by_name.keys()
    ]
    return build_index_from_entries(date, sorted(entries), annotator)


def siblings_from_index(
    index: PrefixDomainIndex,
    substrate: "str | Substrate | None" = None,
) -> SiblingSet:
    """Steps 3-4 over any pre-built index, on the chosen substrate."""
    return get_substrate(substrate).select(index)


@dataclass(frozen=True, slots=True)
class InputAgreement:
    """Pairwise agreement between two input signals' sibling sets."""

    label_a: str
    label_b: str
    pairs_a: int
    pairs_b: int
    #: Pairs of *a* whose IPv4 AND IPv6 prefixes overlap some pair of *b*.
    compatible: int

    @property
    def compatibility_share(self) -> float:
        return self.compatible / self.pairs_a if self.pairs_a else 0.0


class PrefixOverlapIndex:
    """Which of a pair list's entries overlap a queried prefix?

    Per family, the stored prefixes are grouped by length into sorted
    packed-:attr:`~repro.nettypes.prefix.Prefix.network_key` arrays with
    aligned pair-position tuples.  A query prefix then overlaps a stored
    prefix iff, at one of the stored lengths, either the query's key
    truncated to that length matches exactly (the stored prefix contains
    the query) or the stored key falls in the query's key range at that
    length (the query contains it) — both answered by bisect, so one
    query costs ``O(lengths × log n + hits)`` instead of a full scan.
    """

    def __init__(self, prefixes_with_positions: "dict[Prefix, list[int]]"):
        # length → (sorted keys, aligned position tuples), per family.
        self._tables: dict[tuple[int, int], tuple[list[int], list[tuple[int, ...]]]] = {}
        by_table: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
        for prefix, positions in prefixes_with_positions.items():
            table = by_table.setdefault((prefix.version, prefix.length), {})
            table[prefix.network_key] = tuple(positions)
        for (version, length), table in by_table.items():
            keys = sorted(table)
            self._tables[(version, length)] = (
                keys,
                [table[key] for key in keys],
            )

    def overlapping_positions(self, query: Prefix) -> set[int]:
        """Positions of every stored pair whose prefix overlaps *query*."""
        found: set[int] = set()
        query_length = query.length
        query_key = query.network_key
        for (version, length), (keys, positions) in self._tables.items():
            if version != query.version:
                continue
            if length <= query_length:
                # Stored prefixes at most as specific: they overlap iff
                # they contain the query — exact key match at *length*.
                probe = query_key >> (query_length - length)
                at = bisect_left(keys, probe)
                if at < len(keys) and keys[at] == probe:
                    found.update(positions[at])
            else:
                # More-specific stored prefixes: those the query contains
                # occupy a contiguous key range at *length*.
                low = query_key << (length - query_length)
                high = (query_key + 1) << (length - query_length)
                start = bisect_left(keys, low)
                stop = bisect_left(keys, high)
                for at in range(start, stop):
                    found.update(positions[at])
        return found


def compare_inputs(
    label_a: str, siblings_a: SiblingSet, label_b: str, siblings_b: SiblingSet
) -> InputAgreement:
    """How often does signal *b* confirm signal *a*'s pairs?

    Exact pair equality is too strict across signals (prefix grouping
    differs), so agreement means overlapping prefixes on both sides: a
    pair of *a* is compatible when some single pair of *b* overlaps it
    on the IPv4 AND the IPv6 side.  Both sides are answered from
    :class:`PrefixOverlapIndex` bisect probes, so the comparison is
    near-linear in the two list sizes rather than their product.
    """
    v4_positions: dict[Prefix, list[int]] = {}
    v6_positions: dict[Prefix, list[int]] = {}
    for position, other in enumerate(siblings_b):
        v4_positions.setdefault(other.v4_prefix, []).append(position)
        v6_positions.setdefault(other.v6_prefix, []).append(position)
    v4_index = PrefixOverlapIndex(v4_positions)
    v6_index = PrefixOverlapIndex(v6_positions)
    compatible = 0
    for pair in siblings_a:
        candidates = v4_index.overlapping_positions(pair.v4_prefix)
        if candidates and candidates & v6_index.overlapping_positions(
            pair.v6_prefix
        ):
            compatible += 1
    return InputAgreement(
        label_a=label_a,
        label_b=label_b,
        pairs_a=len(siblings_a),
        pairs_b=len(siblings_b),
        compatible=compatible,
    )
