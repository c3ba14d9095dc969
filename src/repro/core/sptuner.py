"""The Sibling Prefix Tuner (SP-Tuner), Section 3.3.

Both published variants are implemented over the patricia tries from
:mod:`repro.nettypes.trie`:

* :class:`SpTunerMS` (Algorithm 1, more-specific) descends from each
  sibling pair toward more specific subprefixes while the Jaccard value
  does not degrade, stopping at configurable per-family prefix-length
  thresholds.  Branches carrying domains that fall outside the chosen
  subprefix are re-queued as fresh candidate pairs (``UpdateBranches``),
  so no domain is lost.
* :class:`SpTunerLS` (Algorithm 2, less-specific) walks toward covering
  supernets, stopping when the origin AS changes or the level threshold
  is exceeded.  As the paper observes, it essentially never improves the
  similarity — supernets only grow the union.

The tries map host routes (/32, /128) of every dual-stack domain address
to the domain sets at that address; subtree aggregation (memoised in the
trie) yields each candidate prefix's domain set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bgp.rib import Rib
from repro.core.domainsets import PrefixDomainIndex
from repro.core.metrics import jaccard
from repro.core.siblings import SiblingPair, SiblingSet
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.nettypes.trie import PatriciaTrie, union_of_frozensets
from repro.obs.tracing import trace


@dataclass(frozen=True, slots=True)
class TunerConfig:
    """SP-Tuner-MS thresholds: the maximum prefix lengths the refinement
    may descend to.  The paper's defaults are /28 and /96; the "routable"
    alternative is /24 and /48."""

    v4_threshold: int = 28
    v6_threshold: int = 96
    #: Disable to ablate the ``UpdateBranches`` step (domains will be lost).
    track_branches: bool = True

    def __post_init__(self):
        if not 0 < self.v4_threshold <= 32:
            raise ValueError(f"invalid IPv4 threshold /{self.v4_threshold}")
        if not 0 < self.v6_threshold <= 128:
            raise ValueError(f"invalid IPv6 threshold /{self.v6_threshold}")


ROUTABLE_CONFIG = TunerConfig(v4_threshold=24, v6_threshold=48)
DEFAULT_CONFIG = TunerConfig(v4_threshold=28, v6_threshold=96)


def _build_tries(
    index: PrefixDomainIndex,
) -> tuple[PatriciaTrie, PatriciaTrie]:
    """Host-route tries: address → frozenset of domains at that address."""
    with trace("sptuner.build_tries") as span:
        at_v4: dict[int, set[str]] = {}
        at_v6: dict[int, set[str]] = {}
        for domain, addresses in index.domain_v4_addresses.items():
            for address in addresses:
                at_v4.setdefault(address, set()).add(domain)
        for domain, addresses in index.domain_v6_addresses.items():
            for address in addresses:
                at_v6.setdefault(address, set()).add(domain)
        trie_v4 = PatriciaTrie(IPV4, aggregate=union_of_frozensets)
        for address, domains in at_v4.items():
            trie_v4.insert(Prefix.host(IPV4, address), frozenset(domains))
        trie_v6 = PatriciaTrie(IPV6, aggregate=union_of_frozensets)
        for address, domains in at_v6.items():
            trie_v6.insert(Prefix.host(IPV6, address), frozenset(domains))
        span.add_items(len(at_v4) + len(at_v6))
    return trie_v4, trie_v6


class SpTunerMS:
    """Algorithm 1: refine sibling pairs into more specific subprefixes."""

    def __init__(self, index: PrefixDomainIndex, config: TunerConfig = DEFAULT_CONFIG):
        self.config = config
        self._trie_v4, self._trie_v6 = _build_tries(index)

    # -- trie helpers ----------------------------------------------------------

    def _domains_under(self, prefix: Prefix) -> frozenset[str]:
        trie = self._trie_v4 if prefix.version == IPV4 else self._trie_v6
        aggregated = trie.aggregate_under(prefix)
        return aggregated if aggregated is not None else frozenset()

    def _threshold(self, version: int) -> int:
        return (
            self.config.v4_threshold if version == IPV4 else self.config.v6_threshold
        )

    def _truncate(self, prefix: Prefix, threshold: int) -> Prefix:
        if prefix.length <= threshold:
            return prefix
        return Prefix.from_address(prefix.version, prefix.value, threshold)

    def _next_subprefixes(self, prefix: Prefix) -> list[Prefix]:
        """``GetNextSubprefixes``: where the populated space below
        *prefix* diverges, truncated to the threshold.  Returns [] when
        no strictly deeper candidates exist."""
        threshold = self._threshold(prefix.version)
        if prefix.length >= threshold:
            return []
        trie = self._trie_v4 if prefix.version == IPV4 else self._trie_v6
        children = trie.branch_children(prefix)
        deeper = [
            self._truncate(child, threshold)
            for child in children
            if child.length > prefix.length
        ]
        return [candidate for candidate in deeper if candidate.length > prefix.length]

    # -- tuning -------------------------------------------------------------------

    def tune_pair(self, v4_prefix: Prefix, v6_prefix: Prefix) -> list[SiblingPair]:
        """Refine one sibling pair; returns the refined pair plus any
        sibling pairs recovered from side branches."""
        results: dict[tuple[Prefix, Prefix], SiblingPair] = {}
        work: deque[tuple[Prefix, Prefix]] = deque([(v4_prefix, v6_prefix)])
        seen: set[tuple[Prefix, Prefix]] = set()

        while work:
            current_v4, current_v6 = work.popleft()
            if (current_v4, current_v6) in seen:
                continue
            seen.add((current_v4, current_v6))
            domains_v4 = self._domains_under(current_v4)
            domains_v6 = self._domains_under(current_v6)
            if not (domains_v4 & domains_v6):
                continue  # zero similarity: discarded, like Step 4
            current_jacc = jaccard(domains_v4, domains_v6)

            while True:
                candidates_v4 = self._next_subprefixes(current_v4) or [current_v4]
                candidates_v6 = self._next_subprefixes(current_v6) or [current_v6]
                if candidates_v4 == [current_v4] and candidates_v6 == [current_v6]:
                    break
                best: tuple[float, int, Prefix, Prefix] | None = None
                for cand_v4 in candidates_v4:
                    cand_domains_v4 = self._domains_under(cand_v4)
                    for cand_v6 in candidates_v6:
                        value = jaccard(cand_domains_v4, self._domains_under(cand_v6))
                        depth = cand_v4.length + cand_v6.length
                        key = (value, depth, cand_v4, cand_v6)
                        if best is None or key > best:
                            best = key
                assert best is not None
                best_jacc, _, best_v4, best_v6 = best
                if best_jacc < current_jacc:
                    break
                if self.config.track_branches:
                    # UpdateBranches: domains in unchosen subtrees become
                    # fresh candidate pairs so they are not lost.
                    for cand_v4 in candidates_v4:
                        if cand_v4 != best_v4:
                            work.append((cand_v4, current_v6))
                    for cand_v6 in candidates_v6:
                        if cand_v6 != best_v6:
                            work.append((current_v4, cand_v6))
                if (best_v4, best_v6) == (current_v4, current_v6):
                    break
                current_v4, current_v6 = best_v4, best_v6
                current_jacc = best_jacc

            final_v4 = self._domains_under(current_v4)
            final_v6 = self._domains_under(current_v6)
            shared = frozenset(final_v4 & final_v6)
            if not shared:
                continue
            results[(current_v4, current_v6)] = SiblingPair(
                v4_prefix=current_v4,
                v6_prefix=current_v6,
                similarity=jaccard(final_v4, final_v6),
                shared_domains=shared,
                v4_domain_count=len(final_v4),
                v6_domain_count=len(final_v6),
            )
        return list(results.values())

    def tune_all(self, siblings: SiblingSet) -> SiblingSet:
        """Apply the tuner to every pair; deduplicates refined pairs that
        multiple inputs converge on."""
        tuned = SiblingSet(siblings.date)
        with trace("sptuner.tune", items=len(siblings)):
            for pair in siblings:
                for refined in self.tune_pair(pair.v4_prefix, pair.v6_prefix):
                    existing = tuned.get(refined.v4_prefix, refined.v6_prefix)
                    if existing is None or refined.similarity > existing.similarity:
                        tuned.add(refined)
        return tuned


@dataclass(frozen=True, slots=True)
class LsConfig:
    """SP-Tuner-LS thresholds: how many levels *up* each family may walk
    (the paper uses 1 for IPv4 and 4 for IPv6).  ``unbounded`` ablates
    the threshold entirely (Figure 22's 'without threshold' line)."""

    v4_levels_up: int = 1
    v6_levels_up: int = 4
    unbounded: bool = False


class SpTunerLS:
    """Algorithm 2: try covering supernets instead of subprefixes.

    Reproduces the paper's negative result — growing a prefix only ever
    grows the union, so the Jaccard value (almost) never improves.  The
    walk stops when the supernet would be originated by a different AS.
    """

    def __init__(
        self,
        index: PrefixDomainIndex,
        rib: Rib,
        config: LsConfig = LsConfig(),
    ):
        self.config = config
        self._rib = rib
        self._trie_v4, self._trie_v6 = _build_tries(index)

    def _domains_under(self, prefix: Prefix) -> frozenset[str]:
        trie = self._trie_v4 if prefix.version == IPV4 else self._trie_v6
        aggregated = trie.aggregate_under(prefix)
        return aggregated if aggregated is not None else frozenset()

    def _origin_changes(self, old: Prefix, new: Prefix) -> bool:
        """IsASnumChange: does widening to *new* leave the origin AS?"""
        old_route = self._rib.route_for_prefix(old)
        new_route = self._rib.route_for_prefix(new)
        if old_route is None or new_route is None:
            return old_route is not new_route
        return not (old_route.origins & new_route.origins)

    def tune_pair(self, v4_prefix: Prefix, v6_prefix: Prefix) -> SiblingPair:
        """Widen one pair supernet-by-supernet while Jaccard improves."""
        current_v4, current_v6 = v4_prefix, v6_prefix
        current = jaccard(
            self._domains_under(current_v4), self._domains_under(current_v6)
        )
        steps_v4 = steps_v6 = 0
        while True:
            candidates: list[tuple[float, Prefix, Prefix]] = []
            can_v4 = current_v4.length > 0 and (
                self.config.unbounded or steps_v4 < self.config.v4_levels_up
            )
            can_v6 = current_v6.length > 0 and (
                self.config.unbounded or steps_v6 < self.config.v6_levels_up
            )
            up_v4 = current_v4.supernet() if can_v4 else None
            up_v6 = current_v6.supernet() if can_v6 else None
            if up_v4 is not None and self._origin_changes(current_v4, up_v4):
                up_v4 = None
            if up_v6 is not None and self._origin_changes(current_v6, up_v6):
                up_v6 = None
            if up_v4 is not None:
                candidates.append(
                    (
                        jaccard(
                            self._domains_under(up_v4), self._domains_under(current_v6)
                        ),
                        up_v4,
                        current_v6,
                    )
                )
            if up_v6 is not None:
                candidates.append(
                    (
                        jaccard(
                            self._domains_under(current_v4), self._domains_under(up_v6)
                        ),
                        current_v4,
                        up_v6,
                    )
                )
            if up_v4 is not None and up_v6 is not None:
                candidates.append(
                    (
                        jaccard(self._domains_under(up_v4), self._domains_under(up_v6)),
                        up_v4,
                        up_v6,
                    )
                )
            if not candidates:
                break
            best_jacc, best_v4, best_v6 = max(
                candidates, key=lambda c: (c[0], -(c[1].length + c[2].length))
            )
            if best_jacc <= current:
                break  # strict improvement required when widening
            if best_v4 != current_v4:
                steps_v4 += 1
            if best_v6 != current_v6:
                steps_v6 += 1
            current_v4, current_v6, current = best_v4, best_v6, best_jacc

        domains_v4 = self._domains_under(current_v4)
        domains_v6 = self._domains_under(current_v6)
        return SiblingPair(
            v4_prefix=current_v4,
            v6_prefix=current_v6,
            similarity=jaccard(domains_v4, domains_v6),
            shared_domains=frozenset(domains_v4 & domains_v6),
            v4_domain_count=len(domains_v4),
            v6_domain_count=len(domains_v6),
        )

    def tune_all(self, siblings: SiblingSet) -> SiblingSet:
        """Apply the less-specific walk to every pair of *siblings*."""
        tuned = SiblingSet(siblings.date)
        for pair in siblings:
            refined = self.tune_pair(pair.v4_prefix, pair.v6_prefix)
            existing = tuned.get(refined.v4_prefix, refined.v6_prefix)
            if existing is None or refined.similarity > existing.similarity:
                tuned.add(refined)
        return tuned
