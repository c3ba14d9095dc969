"""Sibling prefix *set* pairs — the paper's stated future work.

Section 6: "it might be useful to look into sibling prefix set pairs,
i.e., a set of IPv4 prefixes which are siblings of a set of IPv6
prefixes. This could alleviate challenges such as address space
fragmentation by pairing different IPv4 fragments with their IPv6
counterpart."

The construction groups sibling pairs into connected components of the
bipartite prefix-pair graph (two pairs connect when they share an IPv4
or IPv6 prefix), then evaluates each component at the *set* level: the
union of DS domains across the component's IPv4 prefixes against the
union across its IPv6 prefixes.  Fragmented-but-equivalent address space
(one /48 split across four /24 fragments) scores poorly pair-by-pair but
perfectly as a set pair.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.core.domainsets import PrefixDomainIndex
from repro.core.metrics import jaccard_from_counts
from repro.core.siblings import SiblingSet
from repro.core.substrate import Substrate, get_substrate
from repro.nettypes.prefix import Prefix


@dataclass(frozen=True, slots=True)
class SiblingSetPair:
    """A set of IPv4 prefixes paired with a set of IPv6 prefixes."""

    v4_prefixes: frozenset[Prefix]
    v6_prefixes: frozenset[Prefix]
    similarity: float
    shared_domains: frozenset[str]
    v4_domain_count: int
    v6_domain_count: int

    @property
    def is_fragmented(self) -> bool:
        """True when either side holds more than one prefix."""
        return len(self.v4_prefixes) > 1 or len(self.v6_prefixes) > 1

    @property
    def is_perfect(self) -> bool:
        return self.similarity >= 1.0


class _UnionFind:
    """Plain disjoint-set over hashable items."""

    def __init__(self):
        self._parent: dict = {}

    def find(self, item):
        parent = self._parent.setdefault(item, item)
        if parent is item or parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a, b) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a


def build_set_pairs(
    siblings: SiblingSet,
    index: PrefixDomainIndex,
    substrate: "str | Substrate | None" = None,
) -> list[SiblingSetPair]:
    """Group pairs into components and score them at set level.

    Components are induced by shared prefixes: if (A4, X6) and (A4, Y6)
    are both sibling pairs, then {A4} pairs with {X6, Y6} as a set.
    Domain sets are re-derived from the index so the set-level Jaccard
    is exact, not an aggregate of pair values.  The union/intersection
    work runs on the chosen substrate
    (:meth:`~repro.core.substrate.Substrate.group_stats`), so set-pair
    scoring reuses whatever posting-list state detection already built.
    """
    engine = get_substrate(substrate)
    union_find = _UnionFind()
    for pair in siblings:
        # Tag-prefix the two families so an identical value/length can
        # never collide across families in the union-find keyspace.
        union_find.union(("4", pair.v4_prefix), ("6", pair.v6_prefix))

    components: dict[object, tuple[set[Prefix], set[Prefix]]] = {}
    for pair in siblings:
        root = union_find.find(("4", pair.v4_prefix))
        v4_set, v6_set = components.setdefault(root, (set(), set()))
        v4_set.add(pair.v4_prefix)
        v6_set.add(pair.v6_prefix)

    result: list[SiblingSetPair] = []
    for v4_set, v6_set in components.values():
        stats = engine.group_stats(index, v4_set, v6_set)
        if not stats.shared_domains:
            continue
        result.append(
            SiblingSetPair(
                v4_prefixes=frozenset(v4_set),
                v6_prefixes=frozenset(v6_set),
                similarity=jaccard_from_counts(
                    len(stats.shared_domains),
                    stats.v4_domain_count,
                    stats.v6_domain_count,
                ),
                shared_domains=stats.shared_domains,
                v4_domain_count=stats.v4_domain_count,
                v6_domain_count=stats.v6_domain_count,
            )
        )
    result.sort(key=lambda sp: (-len(sp.shared_domains), -sp.similarity))
    return result


@dataclass
class SetPairSummary:
    """Aggregate comparison of pair-level vs set-level similarity."""

    date: datetime.date
    pair_count: int
    set_pair_count: int
    fragmented_count: int
    pair_perfect_share: float
    set_perfect_share: float
    pair_mean: float
    set_mean: float


def summarize_set_pairs(
    siblings: SiblingSet, set_pairs: list[SiblingSetPair]
) -> SetPairSummary:
    """The headline numbers for the future-work experiment: set pairing
    should never hurt and should help fragmented deployments."""
    pair_values = siblings.similarities()
    set_values = [sp.similarity for sp in set_pairs]
    return SetPairSummary(
        date=siblings.date,
        pair_count=len(siblings),
        set_pair_count=len(set_pairs),
        fragmented_count=sum(1 for sp in set_pairs if sp.is_fragmented),
        pair_perfect_share=siblings.perfect_match_share,
        set_perfect_share=(
            sum(1 for v in set_values if v >= 1.0) / len(set_values)
            if set_values
            else 0.0
        ),
        pair_mean=sum(pair_values) / len(pair_values) if pair_values else 0.0,
        set_mean=sum(set_values) / len(set_values) if set_values else 0.0,
    )
