"""Deployment, domain, and announcement generation.

This module decides *where services live*, which is what ultimately shapes
every figure in the paper:

* **DEDICATED** deployments own their announced prefixes — perfect
  Jaccard at default granularity (the ~52% of Figure 5).
* **ROUTABLE_SHARED** deployments sit in distinct /24 (IPv4) and /48
  (IPv6) blocks inside larger shared announcements — SP-Tuner fixes them
  at the routable thresholds (the 52% → 67% step).
* **DEEP_SHARED** deployments sit in distinct /28 and /96 blocks inside
  /24 and /48 announcements — only the deep thresholds fix them
  (the 67% → 82% step).
* **NOISY** deployments share one address among all their domains and
  point some AAAA records into a foreign "sink" prefix — irreducible
  imperfection (the residual ~18%).
* **Agility** networks (Cloudflare/Akamai style) bind domains to a small
  shared address pool independently per family — the low-Jaccard CDN rows
  of Figure 17.
* The **monitoring** org replicates the site24x7 case: one domain with an
  address in many single-purpose prefixes across many host organizations,
  producing a large cross-product of perfect, different-organization
  sibling pairs (Section 4.5).
"""

from __future__ import annotations

import bisect
import datetime
import hashlib
from dataclasses import dataclass, field

from repro.dates import STUDY_END, STUDY_START, month_range, second_wednesday
from repro.determinism import (
    key_bytes,
    prefix_hasher,
    stable_hash,
    stable_sample_count,
    stable_uniform,
    stable_weighted_choice,
)
from repro.dns.toplists import Toplist
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.orgs.hypergiants import DeploymentStyle
from repro.synth.addressplan import AddressPlan
from repro.synth.entities import (
    Deployment,
    DeploymentTier,
    DomainSpec,
    HostingMode,
    VisibilityPattern,
)
from repro.synth.naming import domain_name
from repro.synth.scenarios import ScenarioConfig
from repro.synth.topology import (
    MONITORING_DOMAIN,
    Population,
    deployment_creation_date,
)

#: A pre-window date for infrastructure announced before the study.
EARLY_DATE = datetime.date(2018, 1, 1)

#: Months in which the monitoring domain is absent from the DNS data
#: (the paper observes gaps in 2021, 2022, and May 2023).
MONITORING_GAP_MONTHS: frozenset[tuple[int, int]] = frozenset(
    {(2021, 4), (2021, 10), (2022, 2), (2022, 7), (2023, 5)}
)

#: Announced CIDR length distributions for dedicated deployments —
#: calibrated against Figure 13 (/24 and /48 modal, /17-/24 × /32-/48
#: carrying ~88% of the mass).
_V4_DEDICATED_LENGTHS = ((16, 4.0), (17, 4.0), (18, 6.0), (19, 7.0), (20, 11.0),
                         (21, 11.0), (22, 14.0), (23, 10.0), (24, 30.0), (25, 0.5),
                         (26, 0.3), (14, 1.2), (12, 0.6))
_V6_DEDICATED_LENGTHS = ((32, 26.0), (36, 6.0), (40, 11.0), (44, 13.0),
                         (48, 40.0), (52, 1.5), (56, 1.5), (64, 0.5), (29, 0.5))

#: ``stealth`` deployments drop scan probes on both families — the
#: reason ~29% of sibling pairs are scan-unresponsive (Section 3.6).
_SERVICE_PROFILES = (("web", 0.30), ("web_ssh", 0.13), ("mail", 0.08),
                     ("dns", 0.04), ("mixed", 0.08), ("cpe", 0.05),
                     ("stealth", 0.32))

#: Fraction of dedicated deployments holding a second announced prefix
#: pair they occasionally renumber into (observable prefix changes,
#: Figure 7 centre).
_DEDICATED_ALT_FRACTION = 0.5

#: Announced length of the *dedicated* family of shared-tier
#: deployments; varied so the default CIDR heatmap is not a single
#: /24-/48 spike (Figure 13).
_SHARED_DEDICATED_V6_LENGTHS = ((48, 5.0), (44, 2.0), (40, 2.0), (32, 1.0))
_SHARED_DEDICATED_V4_LENGTHS = ((24, 5.0), (23, 2.0), (22, 2.0), (21, 1.0))

#: Fraction of all generated domains under the .fr ccTLD (queryable only
#: after the August 2022 ccTLD addition).
_FR_FRACTION = 0.12

#: Fraction of dual-stack domains reached through a CNAME alias.
_ALIAS_FRACTION = 0.15

#: The study-window months, their 28th days (the ONESHOT cut-off), their
#: second Wednesdays (the dual-stack adoption days) and their encoded
#: hash-key suffixes, built once for every domain.
_STUDY_MONTHS: tuple[tuple[int, int], ...] = tuple(month_range(STUDY_START, STUDY_END))
_STUDY_MONTH_28THS = tuple(datetime.date(y, m, 28) for y, m in _STUDY_MONTHS)
_STUDY_MONTH_WEDNESDAYS = tuple(second_wednesday(y, m) for y, m in _STUDY_MONTHS)
_STUDY_MONTH_KEYS = tuple(key_bytes(y, m) for y, m in _STUDY_MONTHS)

#: The tags of the per-domain draws ``stable_hash(seed, tag, key)``; the
#: builder keeps one hash state per ``(seed, tag)`` and each domain's
#: key (its name, or its id for ``is-fr``) is encoded once.
_DOMAIN_DRAW_TAGS = (
    "is-fr", "pattern", "oneshot", "alias", "noisy", "sinkpick",
    "src1", "src2", "src3", "v6only",
)

#: Tier mixes by deployment style (ordinary orgs use the config weights).
_ALIGNED_TIER_WEIGHTS = {
    DeploymentTier.DEDICATED: 0.80,
    DeploymentTier.ROUTABLE_SHARED: 0.08,
    DeploymentTier.DEEP_SHARED: 0.07,
    DeploymentTier.NOISY: 0.05,
}
_MULTI_PREFIX_TIER_WEIGHTS = {
    DeploymentTier.DEDICATED: 0.30,
    DeploymentTier.ROUTABLE_SHARED: 0.15,
    DeploymentTier.DEEP_SHARED: 0.30,
    DeploymentTier.NOISY: 0.25,
}


@dataclass(frozen=True, slots=True)
class Announcement:
    """One BGP announcement: who originates which prefix since when."""

    prefix: Prefix
    org_id: int
    announced: datetime.date


@dataclass(frozen=True, slots=True)
class AgilityNetwork:
    """An addressing-agility CDN: domains bind to a small shared address
    pool, independently per family."""

    org_id: int
    v4_prefixes: tuple[Prefix, ...]
    v6_prefixes: tuple[Prefix, ...]
    v4_pool: tuple[int, ...]
    v6_pool: tuple[int, ...]

    def v4_address_for(self, name: str) -> int:
        return self.v4_pool[stable_hash("agility4", name) % len(self.v4_pool)]

    def v6_address_for(self, name: str) -> int:
        return self.v6_pool[stable_hash("agility6", name) % len(self.v6_pool)]


@dataclass(frozen=True, slots=True)
class MonitoringSpec:
    """The site24x7-like monitoring network."""

    org_id: int
    domain: str
    #: (prefix, host org id, address) triples, one per placement.
    v4_placements: tuple[tuple[Prefix, int, int], ...]
    v6_placements: tuple[tuple[Prefix, int, int], ...]
    gap_months: frozenset[tuple[int, int]]

    def visible_on(self, date: datetime.date) -> bool:
        return (date.year, date.month) not in self.gap_months


@dataclass
class ServiceFabric:
    """Everything the service generator produces."""

    deployments: dict[int, Deployment] = field(default_factory=dict)
    domains: dict[str, DomainSpec] = field(default_factory=dict)
    announcements: list[Announcement] = field(default_factory=list)
    agility_networks: dict[int, AgilityNetwork] = field(default_factory=dict)
    monitoring: MonitoringSpec | None = None
    #: Noise-sink v6 prefix per hosting org (NOISY deployments point
    #: stray AAAA records here).
    noise_sinks: list[Prefix] = field(default_factory=list)

    def deployment_of(self, spec: DomainSpec) -> Deployment | None:
        return self.deployments.get(spec.deployment_id)

    def agility_of(self, spec: DomainSpec) -> AgilityNetwork | None:
        if spec.deployment_id >= 0:
            return None
        return self.agility_networks.get(-spec.deployment_id)


def ds_adoption_date(seed: int, name: str, threshold: int) -> datetime.date | None:
    """First month a single-stack domain publishes AAAA, or None if it
    never does.

    Month ``(y, m)`` adopts when ``stable_hash(seed, "adopt", name, y, m)``
    falls below *threshold*, ``uniform_threshold(ds_adoption_monthly)``:
    the draw ``stable_uniform(...) < p`` as one integer comparison.  The
    key prefix is hashed once and its state copied per month.  The digest
    is the hash in little-endian order, so a month whose top byte
    (``digest[7]``) exceeds the threshold's is rejected without
    converting the digest.
    """
    copy = hashlib.blake2b(key_bytes(seed, "adopt", name), digest_size=8).copy
    from_bytes = int.from_bytes
    top = threshold >> 56
    for key, adoption in zip(_STUDY_MONTH_KEYS, _STUDY_MONTH_WEDNESDAYS):
        month = copy()
        month.update(key)
        digest = month.digest()
        if digest[7] <= top and from_bytes(digest, "little") < threshold:
            return adoption
    return None


class _SubAllocator:
    """Carve fixed-size children out of a covering prefix, in order."""

    def __init__(self, parent: Prefix, child_length: int):
        if child_length < parent.length:
            raise ValueError("child length must not be shorter than parent")
        self.parent = parent
        self.child_length = child_length
        self._next = parent.first_address
        self._step = 1 << (parent.bits - child_length)

    def take(self) -> Prefix | None:
        if self._next > self.parent.last_address:
            return None
        prefix = Prefix(self.parent.version, self._next, self.child_length)
        self._next += self._step
        return prefix


class _ServiceBuilder:
    """Stateful generator; :func:`build_services` is the public face."""

    def __init__(self, config: ScenarioConfig, population: Population):
        self.config = config
        self.population = population
        self.plan = AddressPlan()
        self.fabric = ServiceFabric()
        self.seed = config.seed
        self._next_deployment_id = 1
        self._next_domain_id = 1
        # Shared-container allocators keyed by (org_id, tier, family).
        self._containers: dict[tuple, _SubAllocator] = {}
        # Split-hosting allocators keyed by (host org, family).
        self._hosting_pools: dict[tuple, _SubAllocator] = {}
        self._noise_sink_allocs: list[_SubAllocator] = []
        self._draw = {tag: prefix_hasher(self.seed, tag) for tag in _DOMAIN_DRAW_TAGS}

    # -- low-level helpers -----------------------------------------------------

    def _announce(self, prefix: Prefix, org_id: int, date: datetime.date) -> None:
        self.fabric.announcements.append(Announcement(prefix, org_id, date))

    def _take_deployment_id(self) -> int:
        deployment_id = self._next_deployment_id
        self._next_deployment_id += 1
        return deployment_id

    def _take_domain_name(self) -> str:
        domain_id = self._next_domain_id
        self._next_domain_id += 1
        if self._draw["is-fr"](key_bytes(domain_id)) / 2**64 < _FR_FRACTION:
            return domain_name(domain_id, tld="fr")
        return domain_name(domain_id)

    def _shared_block(
        self,
        org_id: int,
        tier: DeploymentTier,
        version: int,
    ) -> tuple[Prefix, Prefix]:
        """A block inside the org's shared container announcement for the
        tier; returns (block, covering announcement)."""
        if tier is DeploymentTier.ROUTABLE_SHARED:
            container_length = 21 if version == IPV4 else 32
            child_length = 24 if version == IPV4 else 48
        else:  # DEEP_SHARED
            container_length = 24 if version == IPV4 else 48
            child_length = 28 if version == IPV4 else 96
        key = (org_id, tier, version)
        allocator = self._containers.get(key)
        block = allocator.take() if allocator is not None else None
        if block is None:
            parent = self.plan.allocate(version, container_length)
            self._announce(parent, org_id, EARLY_DATE)
            allocator = _SubAllocator(parent, child_length)
            self._containers[key] = allocator
            block = allocator.take()
            assert block is not None
        return block, allocator.parent

    def _hosting_block(
        self, host_org_id: int, version: int, deep: bool = False
    ) -> tuple[Prefix, Prefix]:
        """A tenant block inside a hosting org's shared announcement.

        ``deep`` tenants sit in /28 (IPv4) and /96 (IPv6) blocks — the
        multi-CDN-style different-organization pairs that only the deep
        SP-Tuner thresholds can resolve.
        """
        key = (host_org_id, version, deep)
        allocator = self._hosting_pools.get(key)
        block = allocator.take() if allocator is not None else None
        if block is None:
            if version == IPV4:
                parent = self.plan.allocate(IPV4, 22 if deep else 19)
                allocator = _SubAllocator(parent, 28 if deep else 24)
            else:
                parent = self.plan.allocate(IPV6, 48 if deep else 32)
                allocator = _SubAllocator(parent, 96 if deep else 48)
            self._announce(parent, host_org_id, EARLY_DATE)
            self._hosting_pools[key] = allocator
            block = allocator.take()
            assert block is not None
        return block, allocator.parent

    def _noise_sink_block(self, index: int) -> Prefix:
        """A /64 inside a hosting org's noise-sink /48."""
        if not self._noise_sink_allocs:
            hosting = self.population.hosting_org_ids or self.population.service_org_ids
            for host_org_id in hosting[: max(1, len(hosting) // 2)]:
                sink = self.plan.allocate(IPV6, 48)
                self._announce(sink, host_org_id, EARLY_DATE)
                self.fabric.noise_sinks.append(sink)
                self._noise_sink_allocs.append(_SubAllocator(sink, 64))
        allocator = self._noise_sink_allocs[index % len(self._noise_sink_allocs)]
        block = allocator.take()
        if block is None:  # sink full: recycle deterministically
            allocator._next = allocator.parent.first_address
            block = allocator.take()
            assert block is not None
        return block

    # -- deployments -------------------------------------------------------------

    def _tier_for(
        self,
        org_style: DeploymentStyle | None,
        org_id: int,
        deployment_id: int,
    ) -> DeploymentTier:
        """Hypergiants (many deployments) mix tiers per deployment;
        ordinary orgs (1-4 deployments) pick one tier org-wide so their
        shared containers actually hold multiple deployments — without
        that, shared tiers degenerate into dedicated ones."""
        if org_style is DeploymentStyle.ALIGNED:
            weights = _ALIGNED_TIER_WEIGHTS
            key: object = deployment_id
        elif org_style is DeploymentStyle.MULTI_PREFIX:
            weights = _MULTI_PREFIX_TIER_WEIGHTS
            key = deployment_id
        else:
            weights = self.config.tier_weights
            key = ("org-tier", org_id)
        tiers = list(weights)
        return stable_weighted_choice(
            tiers, [weights[t] for t in tiers], self.seed, "tier", key
        )

    def _dedicated_lengths(self, deployment_id: int) -> tuple[int, int]:
        v4 = stable_weighted_choice(
            [l for l, _ in _V4_DEDICATED_LENGTHS],
            [w for _, w in _V4_DEDICATED_LENGTHS],
            self.seed, "dedlen4", deployment_id,
        )
        v6 = stable_weighted_choice(
            [l for l, _ in _V6_DEDICATED_LENGTHS],
            [w for _, w in _V6_DEDICATED_LENGTHS],
            self.seed, "dedlen6", deployment_id,
        )
        return v4, v6

    def _build_deployment(self, org_id: int, style: DeploymentStyle | None) -> Deployment:
        deployment_id = self._take_deployment_id()
        config = self.config
        tier = self._tier_for(style, org_id, deployment_id)
        created = deployment_creation_date(config, deployment_id)
        org = self.population.org(org_id)

        split = (
            style is None
            and self.population.hosting_org_ids
            and len(self.population.hosting_org_ids) >= 2
            and stable_uniform(self.seed, "split", deployment_id)
            < config.split_hosting_fraction
        )
        hosting = HostingMode.SPLIT if split else HostingMode.SELF

        alt_v4_block = alt_v6_block = None
        if hosting is HostingMode.SPLIT:
            hosts = self.population.hosting_org_ids
            host4 = hosts[stable_hash(self.seed, "host4", deployment_id) % len(hosts)]
            remaining = [h for h in hosts if h != host4]
            host6 = remaining[
                stable_hash(self.seed, "host6", deployment_id) % len(remaining)
            ]
            deep = stable_uniform(self.seed, "split-deep", deployment_id) < 0.45
            v4_block, v4_announced = self._hosting_block(host4, IPV4, deep)
            v6_block, v6_announced = self._hosting_block(host6, IPV6, deep)
            v4_origin_org, v6_origin_org = host4, host6
            tier = (
                DeploymentTier.DEEP_SHARED if deep else DeploymentTier.ROUTABLE_SHARED
            )
        elif tier is DeploymentTier.DEDICATED or tier is DeploymentTier.NOISY:
            length4, length6 = self._dedicated_lengths(deployment_id)
            v4_block = self.plan.allocate(IPV4, length4)
            v6_block = self.plan.allocate(IPV6, length6)
            v4_announced, v6_announced = v4_block, v6_block
            self._announce(v4_block, org_id, created)
            self._announce(v6_block, org_id, created)
            v4_origin_org = v6_origin_org = org_id
            if (
                tier is DeploymentTier.DEDICATED
                and stable_uniform(self.seed, "ded-alt", deployment_id)
                < _DEDICATED_ALT_FRACTION
            ):
                # A second announced prefix pair the deployment sometimes
                # renumbers into: the only churn that changes the
                # BGP-visible prefix of a domain.
                alt_v4_block = self.plan.allocate(IPV4, length4)
                alt_v6_block = self.plan.allocate(IPV6, length6)
                self._announce(alt_v4_block, org_id, created)
                self._announce(alt_v6_block, org_id, created)
        else:
            # Shared tiers model the IPv4-scarcity asymmetry: ONE family
            # lives in a shared container (multiple deployments of the
            # org inside one announcement, misaligning the default-size
            # domain sets) while the other gets a dedicated announcement.
            # This is exactly the structure SP-Tuner repairs: descending
            # the shared side to the deployment's sub-block restores a
            # perfect match at /24-/48 (ROUTABLE_SHARED) or /28-/96
            # (DEEP_SHARED).
            # The shared family is an org-level trait so the org's shared
            # deployments land in one container together.  IPv6 is shared
            # slightly more often: one /32 or /48 covers many services,
            # which is why the paper sees ~7k fewer unique IPv6 prefixes
            # than IPv4 (Section 4.5).
            share_v4 = stable_uniform(self.seed, "sharefam", org_id) < 0.4
            if share_v4:
                v4_block, v4_announced = self._shared_block(org_id, tier, IPV4)
                alt_v4_block, _ = self._shared_block(org_id, tier, IPV4)
                length6 = stable_weighted_choice(
                    [l for l, _ in _SHARED_DEDICATED_V6_LENGTHS],
                    [w for _, w in _SHARED_DEDICATED_V6_LENGTHS],
                    self.seed, "sharedlen6", deployment_id,
                )
                v6_block = self.plan.allocate(IPV6, length6)
                v6_announced = v6_block
                self._announce(v6_block, org_id, created)
            else:
                v6_block, v6_announced = self._shared_block(org_id, tier, IPV6)
                alt_v6_block, _ = self._shared_block(org_id, tier, IPV6)
                length4 = stable_weighted_choice(
                    [l for l, _ in _SHARED_DEDICATED_V4_LENGTHS],
                    [w for _, w in _SHARED_DEDICATED_V4_LENGTHS],
                    self.seed, "sharedlen4", deployment_id,
                )
                v4_block = self.plan.allocate(IPV4, length4)
                v4_announced = v4_block
                self._announce(v4_block, org_id, created)
            v4_origin_org = v6_origin_org = org_id

        profile = stable_weighted_choice(
            [p for p, _ in _SERVICE_PROFILES],
            [w for _, w in _SERVICE_PROFILES],
            self.seed, "profile", deployment_id,
        )

        deployment = Deployment(
            deployment_id=deployment_id,
            org_id=org_id,
            tier=tier,
            hosting=hosting,
            v4_block=v4_block,
            v6_block=v6_block,
            v4_announced=v4_announced,
            v6_announced=v6_announced,
            v4_origin_org=v4_origin_org,
            v6_origin_org=v6_origin_org,
            created=created,
            alt_v4_block=alt_v4_block,
            alt_v6_block=alt_v6_block,
            service_profile=profile,
        )
        self.fabric.deployments[deployment_id] = deployment
        self._build_domains(deployment)
        return deployment

    # -- domains ------------------------------------------------------------------

    def _domain_count(self, deployment_id: int) -> int:
        buckets = [b for b, _ in self.config.domain_buckets]
        weights = [w for _, w in self.config.domain_buckets]
        low, high = stable_weighted_choice(
            buckets, weights, self.seed, "bucket", deployment_id
        )
        span = high - low
        raw = low + (stable_hash(self.seed, "bucketpos", deployment_id) % (span + 1))
        return max(1, round(raw * self.config.domain_scale))

    def _visibility(self, key: bytes) -> VisibilityPattern:
        u = self._draw["pattern"](key) / 2**64
        if u < self.config.stable_fraction:
            return VisibilityPattern.STABLE
        if u < self.config.stable_fraction + self.config.oneshot_fraction:
            return VisibilityPattern.ONESHOT
        return VisibilityPattern.INTERMITTENT

    def _pattern_and_month(
        self, key: bytes, created: datetime.date
    ) -> tuple[VisibilityPattern, tuple[int, int] | None]:
        """Visibility pattern plus the single month for ONESHOT domains
        (a ONESHOT domain without its month would never be visible);
        *key* is ``key_bytes(name)``."""
        pattern = self._visibility(key)
        if pattern is VisibilityPattern.ONESHOT:
            return pattern, self._oneshot_month(key, created)
        return pattern, None

    def _sources(self, name: str, key: bytes) -> frozenset[Toplist]:
        if name.endswith(".fr"):
            return frozenset({Toplist.OPEN_CCTLDS})
        pool = (
            Toplist.ALEXA,
            Toplist.UMBRELLA,
            Toplist.TRANCO,
            Toplist.CLOUDFLARE_RADAR,
            Toplist.OPEN_CCTLDS,
        )
        draw = self._draw
        primary = pool[draw["src1"](key) % len(pool)]
        if draw["src2"](key) / 2**64 < 0.4:
            secondary = pool[draw["src3"](key) % len(pool)]
            return frozenset({primary, secondary})
        return frozenset({primary})

    def _oneshot_month(self, key: bytes, created: datetime.date) -> tuple[int, int]:
        # The months whose 28th is on or after *created*: a suffix of
        # the (ascending) study window.
        months = _STUDY_MONTHS[bisect.bisect_left(_STUDY_MONTH_28THS, created):]
        if not months:
            months = (STUDY_END,)
        return months[self._draw["oneshot"](key) % len(months)]

    def _add_domain(self, spec: DomainSpec) -> None:
        self.fabric.domains[spec.name] = spec

    def _build_domains(self, deployment: Deployment) -> None:
        config = self.config
        count = self._domain_count(deployment.deployment_id)
        expansion = (
            stable_uniform(self.seed, "expand", deployment.deployment_id)
            < config.expansion_fraction
            and deployment.alt_v6_block is not None
        )
        draw = self._draw
        for slot in range(count):
            name = self._take_domain_name()
            key = key_bytes(name)
            created = deployment.created
            pattern, oneshot_month = self._pattern_and_month(key, created)
            alias = (
                f"www.{name}" if draw["alias"](key) / 2**64 < _ALIAS_FRACTION else None
            )
            noise_v6 = None
            if deployment.tier is DeploymentTier.NOISY:
                noise_share = 0.25 + 0.5 * stable_uniform(
                    self.seed, "noiseshare", deployment.deployment_id
                )
                if draw["noisy"](key) / 2**64 < noise_share:
                    noise_v6 = self._noise_sink_block(draw["sinkpick"](key))
            self._add_domain(
                DomainSpec(
                    name=name,
                    deployment_id=deployment.deployment_id,
                    slot=slot,
                    sources=self._sources(name, key),
                    created=created,
                    pattern=pattern,
                    oneshot_month=oneshot_month,
                    noise_v6=noise_v6,
                    alias=alias,
                )
            )
        # Expansion domains appear mid-window with their AAAA in the
        # alternate IPv6 block — the "changed Jaccard" population.
        if expansion:
            expansion_date = second_wednesday(2022, 6)
            for extra in range(1 + stable_hash(self.seed, "nexp", deployment.deployment_id) % 2):
                name = self._take_domain_name()
                self._add_domain(
                    DomainSpec(
                        name=name,
                        deployment_id=deployment.deployment_id,
                        slot=count + extra,
                        sources=self._sources(name, key_bytes(name)),
                        created=max(expansion_date, deployment.created),
                        pattern=VisibilityPattern.STABLE,
                        noise_v6=deployment.alt_v6_block,
                        alias=None,
                    )
                )
        # Single-stack companions: IPv4-only (sometimes IPv6-only) domains
        # that may adopt dual stack later — the DS-share growth driver.
        ss_count = stable_sample_count(
            max(1, round(count * config.singlestack_ratio)),
            1.0,
            self.seed, "ss", deployment.deployment_id,
        )
        for extra in range(ss_count):
            name = self._take_domain_name()
            key = key_bytes(name)
            v6_only = draw["v6only"](key) / 2**64 < config.v6_only_fraction
            pattern, oneshot_month = self._pattern_and_month(key, deployment.created)
            self._add_domain(
                DomainSpec(
                    name=name,
                    deployment_id=deployment.deployment_id,
                    slot=count + 2 + extra,
                    sources=self._sources(name, key),
                    created=deployment.created,
                    pattern=pattern,
                    oneshot_month=oneshot_month,
                    single_stack=True,
                    v6_only=v6_only,
                    alias=None,
                )
            )

    # -- agility networks -----------------------------------------------------------

    def _build_agility(self, org_id: int, weight: int) -> None:
        v4_prefixes = tuple(self.plan.allocate(IPV4, 20) for _ in range(3))
        v6_prefixes = tuple(self.plan.allocate(IPV6, 32) for _ in range(3))
        for prefix in (*v4_prefixes, *v6_prefixes):
            self._announce(prefix, org_id, EARLY_DATE)
        v4_pool = tuple(
            prefix.first_address + 7 + i for prefix in v4_prefixes for i in range(2)
        )
        v6_pool = tuple(
            prefix.first_address + 7 + i for prefix in v6_prefixes for i in range(2)
        )
        network = AgilityNetwork(org_id, v4_prefixes, v6_prefixes, v4_pool, v6_pool)
        self.fabric.agility_networks[org_id] = network

        n_domains = max(
            12, round(weight * self.config.hgcdn_deployment_scale * 12)
        )
        for _ in range(n_domains):
            name = self._take_domain_name()
            key = key_bytes(name)
            created = deployment_creation_date(
                self.config, stable_hash("agility-created", name) % 10_000_000
            )
            pattern, oneshot_month = self._pattern_and_month(key, created)
            self._add_domain(
                DomainSpec(
                    name=name,
                    deployment_id=-org_id,
                    slot=0,
                    sources=self._sources(name, key),
                    created=created,
                    pattern=pattern,
                    oneshot_month=oneshot_month,
                    alias=None,
                )
            )

    # -- monitoring -------------------------------------------------------------------

    def _build_monitoring(self) -> None:
        config = self.config
        population = self.population
        host_pool = population.service_org_ids + population.eyeball_org_ids
        if not host_pool:
            return
        v4_placements = []
        for index in range(config.monitoring_v4_placements):
            host = host_pool[index % len(host_pool)]
            prefix = self.plan.allocate(IPV4, 24)
            self._announce(prefix, host, EARLY_DATE)
            v4_placements.append((prefix, host, prefix.first_address + 14))
        v6_placements = []
        for index in range(config.monitoring_v6_placements):
            host = host_pool[(index * 7 + 3) % len(host_pool)]
            prefix = self.plan.allocate(IPV6, 48)
            self._announce(prefix, host, EARLY_DATE)
            v6_placements.append((prefix, host, prefix.first_address + 14))
        self.fabric.monitoring = MonitoringSpec(
            org_id=population.monitoring_org_id,
            domain=MONITORING_DOMAIN,
            v4_placements=tuple(v4_placements),
            v6_placements=tuple(v6_placements),
            gap_months=MONITORING_GAP_MONTHS,
        )

    # -- eyeballs ---------------------------------------------------------------------

    def _build_eyeballs(self) -> None:
        for org_id in self.population.eyeball_org_ids:
            n_v4 = 1 + stable_hash(self.seed, "eyeball4", org_id) % 3
            for _ in range(n_v4):
                length = 16 + stable_hash(self.seed, "eyeball4len", org_id, _) % 5
                self._announce(self.plan.allocate(IPV4, length), org_id, EARLY_DATE)
            n_v6 = 1 + stable_hash(self.seed, "eyeball6", org_id) % 2
            for _ in range(n_v6):
                self._announce(self.plan.allocate(IPV6, 32), org_id, EARLY_DATE)

    # -- top level --------------------------------------------------------------------

    def build(self) -> ServiceFabric:
        population = self.population
        config = self.config
        for name, org_id in population.hgcdn_org_ids.items():
            org = population.org(org_id)
            entry = population.registry.get(name)
            assert entry is not None
            if org.style is DeploymentStyle.AGILITY:
                self._build_agility(org_id, entry.weight)
                n_deployments = max(2, round(entry.weight * config.hgcdn_deployment_scale * 0.5))
            else:
                n_deployments = max(2, round(entry.weight * config.hgcdn_deployment_scale))
            for _ in range(n_deployments):
                self._build_deployment(org_id, org.style)
        for org_id in population.service_org_ids:
            org_tier = self._tier_for(None, org_id, 0)
            if org_tier in (
                DeploymentTier.ROUTABLE_SHARED,
                DeploymentTier.DEEP_SHARED,
            ):
                # Shared-tier orgs need several deployments per container
                # for the default-size misalignment to exist at all.
                n_deployments = 2 + stable_hash(self.seed, "ndep", org_id) % 3
            else:
                n_deployments = 1 + stable_hash(self.seed, "ndep", org_id) % 3
            for _ in range(n_deployments):
                self._build_deployment(org_id, None)
        self._build_monitoring()
        self._build_eyeballs()
        return self.fabric


def build_services(config: ScenarioConfig, population: Population) -> ServiceFabric:
    """Generate all deployments, domains, and announcements."""
    return _ServiceBuilder(config, population).build()
