"""Steps 3-4: the similarity matrix and best-match sibling selection.

Step 3 evaluates the chosen similarity metric for every (IPv4 prefix,
IPv6 prefix) pair that shares at least one dual-stack domain — the sparse
non-zero region of the paper's "Jaccard similarity matrix".  Step 4 keeps
each prefix's best match(es), ties included; pairs with similarity 0 never
materialize.

*How* Steps 3-4 execute is delegated to a pluggable substrate
(:mod:`repro.core.substrate`): the ``"reference"`` substrate runs the
dict-of-sets transcription in this module
(:func:`compute_pair_stats` + :func:`select_best_matches`), while the
default ``"columnar"`` substrate interns domains and prefixes into dense
ids and accumulates over packed integer keys.  Both are exact;
:func:`detect_siblings` and :func:`detect_with_index` accept a
``substrate=`` argument (a registry name or instance) to pick one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bgp.routeviews import PrefixAnnotator
from repro.core.domainsets import PrefixDomainIndex, build_index
from repro.core.metrics import METRICS_FROM_COUNTS
from repro.core.siblings import SiblingPair, SiblingSet
from repro.dns.openintel import DnsSnapshot
from repro.nettypes.prefix import Prefix

if TYPE_CHECKING:  # runtime import would be circular; see substrate.py
    from repro.core.substrate import Substrate


class BestMatchMode(enum.Enum):
    """How Step 4 selects sibling pairs from the similarity matrix.

    The paper keeps the pairs achieving the highest similarity "for the
    corresponding IPv4 and IPv6 prefixes"; ``EITHER`` (the default)
    realizes that as the union of per-IPv4-prefix maxima and
    per-IPv6-prefix maxima.  The other modes are ablation variants.
    """

    EITHER = "either"
    BOTH = "both"
    V4_ONLY = "v4"
    V6_ONLY = "v6"


@dataclass(frozen=True, slots=True)
class PairStats:
    """Raw counts for one candidate prefix pair."""

    v4_prefix: Prefix
    v6_prefix: Prefix
    shared_domains: frozenset[str]
    v4_domain_count: int
    v6_domain_count: int

    def similarity(self, metric: str) -> float:
        """Evaluate the named metric over this pair's counts."""
        fn = METRICS_FROM_COUNTS[metric]
        return fn(len(self.shared_domains), self.v4_domain_count, self.v6_domain_count)


def compute_pair_stats(index: PrefixDomainIndex) -> list[PairStats]:
    """All prefix pairs with a non-empty domain intersection (Step 3)."""
    shared: dict[tuple[Prefix, Prefix], set[str]] = {}
    for domain, v4_prefixes in index.domain_v4_prefixes.items():
        v6_prefixes = index.domain_v6_prefixes[domain]
        for v4_prefix in v4_prefixes:
            for v6_prefix in v6_prefixes:
                shared.setdefault((v4_prefix, v6_prefix), set()).add(domain)
    return [
        PairStats(
            v4_prefix=v4_prefix,
            v6_prefix=v6_prefix,
            shared_domains=frozenset(domains),
            v4_domain_count=len(index.v4_domains[v4_prefix]),
            v6_domain_count=len(index.v6_domains[v6_prefix]),
        )
        for (v4_prefix, v6_prefix), domains in shared.items()
    ]


#: Tolerance when comparing a pair's similarity against a prefix's
#: maximum — shared by every substrate so tie sets agree exactly.
TIE_EPSILON = 1e-12


def select_best_matches(
    stats: list[PairStats],
    index: PrefixDomainIndex,
    metric: str = "jaccard",
    mode: BestMatchMode = BestMatchMode.EITHER,
) -> SiblingSet:
    """Step 4: keep each prefix's maximum-similarity pairs (ties kept)."""
    best_v4: dict[Prefix, float] = {}
    best_v6: dict[Prefix, float] = {}
    scored: list[tuple[PairStats, float]] = []
    for pair in stats:
        value = pair.similarity(metric)
        if value <= 0.0:
            continue
        scored.append((pair, value))
        if value > best_v4.get(pair.v4_prefix, 0.0):
            best_v4[pair.v4_prefix] = value
        if value > best_v6.get(pair.v6_prefix, 0.0):
            best_v6[pair.v6_prefix] = value

    result = SiblingSet(index.date)
    for pair, value in scored:
        is_best_v4 = value >= best_v4[pair.v4_prefix] - TIE_EPSILON
        is_best_v6 = value >= best_v6[pair.v6_prefix] - TIE_EPSILON
        keep = {
            BestMatchMode.EITHER: is_best_v4 or is_best_v6,
            BestMatchMode.BOTH: is_best_v4 and is_best_v6,
            BestMatchMode.V4_ONLY: is_best_v4,
            BestMatchMode.V6_ONLY: is_best_v6,
        }[mode]
        if keep:
            result.add(
                SiblingPair(
                    v4_prefix=pair.v4_prefix,
                    v6_prefix=pair.v6_prefix,
                    similarity=value,
                    shared_domains=pair.shared_domains,
                    v4_domain_count=pair.v4_domain_count,
                    v6_domain_count=pair.v6_domain_count,
                )
            )
    return result


def detect_siblings(
    snapshot: DnsSnapshot,
    annotator: PrefixAnnotator,
    metric: str = "jaccard",
    mode: BestMatchMode = BestMatchMode.EITHER,
    substrate: "str | Substrate | None" = None,
) -> SiblingSet:
    """The full four-step pipeline on one snapshot.

    *substrate* picks the Step 3-4 engine — a name from
    :data:`repro.core.substrate.SUBSTRATES` or a
    :class:`~repro.core.substrate.Substrate` instance; ``None`` means the
    default (columnar).

    >>> siblings = detect_siblings(universe.snapshot_at(date),
    ...                            universe.annotator_at(date))   # doctest: +SKIP
    """
    return detect_with_index(
        snapshot,
        annotator,
        metric=metric,
        mode=mode,
        substrate=substrate,
    )[0]


def detect_with_index(
    snapshot: DnsSnapshot,
    annotator: PrefixAnnotator,
    metric: str = "jaccard",
    mode: BestMatchMode = BestMatchMode.EITHER,
    substrate: "str | Substrate | None" = None,
) -> tuple[SiblingSet, PrefixDomainIndex]:
    """Like :func:`detect_siblings` but also returns the index, which the
    SP-Tuner and several analyses need."""
    from repro.core.substrate import get_substrate
    from repro.obs.tracing import trace

    index = build_index(snapshot, annotator)
    engine = get_substrate(substrate)
    with trace("step34.select") as span:
        result = engine.select(index, metric=metric, mode=mode)
        span.add_items(len(result))
    return result, index
