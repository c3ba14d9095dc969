"""Result containers for sibling prefix pairs."""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.nettypes.prefix import Prefix


@dataclass(frozen=True, slots=True)
class SiblingPair:
    """One detected sibling prefix pair."""

    v4_prefix: Prefix
    v6_prefix: Prefix
    similarity: float
    #: The dual-stack domains the two prefixes share.
    shared_domains: frozenset[str]
    #: Domain-set sizes on each side (the union is derivable).
    v4_domain_count: int
    v6_domain_count: int

    @property
    def key(self) -> tuple[Prefix, Prefix]:
        return (self.v4_prefix, self.v6_prefix)

    @property
    def union_size(self) -> int:
        return self.v4_domain_count + self.v6_domain_count - len(self.shared_domains)

    @property
    def is_perfect(self) -> bool:
        return self.similarity >= 1.0


def pair_order(pair) -> tuple[int, int, int, int, int, int]:
    """Sort key for any pair with ``v4_prefix`` and ``v6_prefix``.

    The same order as ``(pair.v4_prefix, pair.v6_prefix)``, as plain
    integers, so a sort compares tuples of ints instead of calling
    :class:`~repro.nettypes.prefix.Prefix` comparisons.
    """
    v4, v6 = pair.v4_prefix, pair.v6_prefix
    return (v4.version, v4.value, v4.length, v6.version, v6.value, v6.length)


class SiblingSet:
    """A collection of sibling pairs for one snapshot date."""

    def __init__(
        self, date: datetime.date, pairs: Iterable[SiblingPair] = ()
    ):
        self.date = date
        self._pairs: dict[tuple[Prefix, Prefix], SiblingPair] = {}
        for pair in pairs:
            self.add(pair)

    def add(self, pair: SiblingPair) -> None:
        """Insert *pair*, replacing any pair with the same prefixes."""
        self._pairs[pair.key] = pair

    def get(self, v4_prefix: Prefix, v6_prefix: Prefix) -> SiblingPair | None:
        """The pair for exactly these prefixes, or ``None``."""
        return self._pairs.get((v4_prefix, v6_prefix))

    def __iter__(self) -> Iterator[SiblingPair]:
        yield from self._pairs.values()

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, key: object) -> bool:
        return key in self._pairs

    # -- views -----------------------------------------------------------------

    def unique_v4_prefixes(self) -> set[Prefix]:
        """The distinct IPv4 prefixes appearing in any pair."""
        return {p.v4_prefix for p in self._pairs.values()}

    def unique_v6_prefixes(self) -> set[Prefix]:
        """The distinct IPv6 prefixes appearing in any pair."""
        return {p.v6_prefix for p in self._pairs.values()}

    def same_pairs(self, other: "SiblingSet") -> bool:
        """True when *other* holds exactly the same pairs — every field
        of every pair equal — regardless of the snapshot dates.

        The longitudinal publisher uses this to skip recompiling a
        lookup index for a date whose sibling list did not change.
        """
        if len(self._pairs) != len(other._pairs):
            return False
        other_pairs = other._pairs
        for key, pair in self._pairs.items():
            candidate = other_pairs.get(key)
            if candidate is None or candidate != pair:
                return False
        return True

    # -- statistics --------------------------------------------------------------

    def similarities(self) -> list[float]:
        """All pair similarity values, in insertion order."""
        return [p.similarity for p in self._pairs.values()]

    @property
    def perfect_match_share(self) -> float:
        if not self._pairs:
            return 0.0
        perfect = sum(1 for p in self._pairs.values() if p.is_perfect)
        return perfect / len(self._pairs)

    @property
    def mean_similarity(self) -> float:
        values = self.similarities()
        return sum(values) / len(values) if values else 0.0

    @property
    def std_similarity(self) -> float:
        values = self.similarities()
        if not values:
            return 0.0
        mean = sum(values) / len(values)
        return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5

    def __repr__(self) -> str:
        return (
            f"SiblingSet({self.date.isoformat()}, pairs={len(self)}, "
            f"perfect={self.perfect_match_share:.0%})"
        )
