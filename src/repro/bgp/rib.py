"""A routing information base (RIB) with longest-prefix match.

The sibling pipeline needs exactly what Routeviews gives the paper: map an
IP address to its covering BGP-announced prefix and that prefix's origin
AS(es).  Announcements and withdrawals mutate the table; lookups run
against the patricia tries from :mod:`repro.nettypes.trie`.

Multi-origin (MOAS) prefixes are supported because they exist in the wild
and the RPKI analysis needs to reason about origin sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.nettypes.trie import PatriciaTrie


@dataclass(frozen=True, slots=True)
class Route:
    """One announced prefix and its origin set."""

    prefix: Prefix
    origins: frozenset[int]

    @property
    def origin(self) -> int:
        """The single origin; for MOAS prefixes, the numerically lowest
        (a deterministic tie-break mirroring common practice)."""
        return min(self.origins)

    @property
    def is_moas(self) -> bool:
        return len(self.origins) > 1


class Rib:
    """The global routing table: prefix → origin ASes."""

    def __init__(self):
        self._tries: dict[int, PatriciaTrie] = {
            IPV4: PatriciaTrie(IPV4),
            IPV6: PatriciaTrie(IPV6),
        }
        self._mutations = 0
        self._signature: frozenset | None = None
        self._signature_mutations = -1
        self._route_text: bytes | None = None
        self._route_text_mutations = -1

    # -- mutation ---------------------------------------------------------------

    def announce(self, prefix: Prefix, origin: int) -> None:
        """Add an announcement; repeated origins for one prefix form MOAS."""
        if origin < 0 or origin >= 2**32:
            raise ValueError(f"invalid AS number: {origin}")
        trie = self._tries[prefix.version]
        existing: frozenset[int] | None = trie.get(prefix)
        origins = (existing or frozenset()) | {origin}
        trie.insert(prefix, origins)
        self._mutations += 1

    def withdraw(self, prefix: Prefix, origin: int | None = None) -> None:
        """Withdraw one origin's announcement (or the whole prefix)."""
        trie = self._tries[prefix.version]
        existing: frozenset[int] | None = trie.get(prefix)
        if existing is None:
            raise KeyError(str(prefix))
        self._mutations += 1
        if origin is None:
            trie.remove(prefix)
            return
        remaining = existing - {origin}
        if remaining:
            trie.insert(prefix, remaining)
        else:
            trie.remove(prefix)

    # -- content identity --------------------------------------------------------

    def signature(self) -> frozenset:
        """A value identifying this RIB's *contents* (not its identity).

        Two RIBs with the same announcements — prefixes and origin sets
        — return equal signatures even when they are distinct objects
        (e.g. per-month snapshots that happen not to differ).  The
        rolling longitudinal pipeline compares signatures between
        consecutive dates: equal signatures guarantee every address
        annotates identically on both dates, which is the precondition
        for applying a snapshot delta instead of rebuilding the index.

        The frozenset is cached and invalidated by announce/withdraw,
        so repeated same-RIB comparisons hit the ``is``-equality fast
        path inside ``frozenset.__eq__``.
        """
        if self._signature is None or self._signature_mutations != self._mutations:
            self._signature = frozenset(
                (route.prefix, route.origins) for route in self.routes()
            )
            self._signature_mutations = self._mutations
        return self._signature

    def route_text(self) -> bytes:
        """The canonical text of this RIB's contents, as ASCII bytes.

        One ``prefix|origin,origin,...`` line per route (origins in
        numeric order), each ending in ``\\n``, the lines sorted as
        strings.  Equal :meth:`signature` values give equal texts; the
        archive hashes this text as the routing table's identity.
        Formatting every prefix is the expensive part, so the bytes are
        cached and invalidated by announce/withdraw, like the signature.
        """
        if self._route_text is None or self._route_text_mutations != self._mutations:
            # The newline sorts below every other character of a line, so
            # sorting terminated lines orders them as the bare lines.
            lines = sorted(
                f"{route.prefix}|{','.join(map(str, sorted(route.origins)))}\n"
                for route in self.routes()
            )
            self._route_text = "".join(lines).encode("ascii")
            self._route_text_mutations = self._mutations
        return self._route_text

    # -- queries ------------------------------------------------------------------

    def route_for_address(self, version: int, value: int) -> Route | None:
        """Longest-prefix match for a bare address."""
        found = self._tries[version].lookup_address(value)
        if found is None:
            return None
        prefix, origins = found
        return Route(prefix, origins)

    def route_for_prefix(self, query: Prefix) -> Route | None:
        """Longest announced prefix covering *query*."""
        found = self._tries[query.version].lookup(query)
        if found is None:
            return None
        prefix, origins = found
        return Route(prefix, origins)

    def exact_route(self, prefix: Prefix) -> Route | None:
        origins = self._tries[prefix.version].get(prefix)
        if origins is None:
            return None
        return Route(prefix, origins)

    def origin_of(self, version: int, value: int) -> int | None:
        route = self.route_for_address(version, value)
        return route.origin if route is not None else None

    def routes(self, version: int | None = None) -> Iterator[Route]:
        versions = (version,) if version is not None else (IPV4, IPV6)
        for v in versions:
            for prefix, origins in self._tries[v].items():
                yield Route(prefix, origins)

    def prefix_count(self, version: int) -> int:
        return len(self._tries[version])

    def __len__(self) -> int:
        return len(self._tries[IPV4]) + len(self._tries[IPV6])

    def __contains__(self, prefix: object) -> bool:
        return isinstance(prefix, Prefix) and prefix in self._tries[prefix.version]

    def __repr__(self) -> str:
        return (
            f"Rib(v4={self.prefix_count(IPV4)}, v6={self.prefix_count(IPV6)})"
        )
