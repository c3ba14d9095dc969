"""The assembled synthetic Internet.

:class:`Universe` wires the population (orgs, ASes, datasets), the service
fabric (deployments, domains, announcements), and the time dimension into
the exact interfaces the measurement pipeline consumes:

* ``zone_at(date)`` — authoritative DNS ground truth,
* ``queried_names_at(date)`` — the toplist-driven query set,
* ``snapshot_at(date)`` — an OpenINTEL-style measurement run,
* ``rib_at(date)`` / ``annotator_at(date)`` — Routeviews-style routing,
* ``as2org_at(date)`` / ``asdb`` / ``registry`` — org datasets,
* ``host_inventory(date)`` — ground truth for the port-scan simulator,
* ``ground_truth_deployments(date)`` — the intended sibling pairs.

Address assignment over time is computed lazily from per-domain churn
event schedules (renumbering within a prefix, prefix moves), sampled
deterministically per domain so any date can be queried in any order.

``snapshot_at`` evaluates its observations straight from the domain
specs.  The zone (with its CNAME aliases and MX records) and the
resolver are not on that path: they serve the alternative inputs of
Section 6, and ``DnsSnapshot.measure(zone_at(d), queried_names_at(d),
d)`` is the oracle the direct snapshot must equal, observation order
included (``tests/test_synth_oracle.py``).
"""

from __future__ import annotations

import bisect
import datetime
from typing import Iterator

from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.dates import REFERENCE_DATE, month_range
from repro.determinism import (
    key_bytes,
    prefix_hasher,
    stable_hash,
    stable_uniform,
    uniform_threshold,
)
from repro.dns.openintel import DnsSnapshot, DomainObservation, SnapshotSeries
from repro.dns.records import ResourceRecord, validate_name
from repro.dns.toplists import FR_CCTLD_ADDED, ToplistSchedule
from repro.dns.zone import Zone
from repro.nettypes.addr import IPV4, IPV6, check_value
from repro.nettypes.prefix import Prefix
from repro.obs.tracing import trace
from repro.orgs.as2org import As2Org
from repro.orgs.asdb import AsdbDataset
from repro.orgs.hypergiants import HgCdnRegistry
from repro.synth.entities import (
    Deployment,
    DeploymentTier,
    DomainSpec,
    Organization,
    VisibilityPattern,
)
from repro.synth.scenarios import ScenarioConfig, scenario
from repro.synth.services import (
    MonitoringSpec,
    ServiceFabric,
    build_services,
    ds_adoption_date,
)
from repro.synth.topology import Population, build_population

#: Churn events are sampled over this month window; an event strikes
#: on the 15th of its month.  A schedule hashes ``"count"`` and then each
#: event index; a monthly probability is at most 1, so there are never
#: more events than months and ``_INDEX_KEYS`` covers every index.
#: Every key is ``(seed, kind, name, family, suffix)``; a universe keeps
#: one hash state per ``(seed, kind)`` and appends the rest.
_CHURN_WINDOW: tuple[tuple[int, int], tuple[int, int]] = ((2018, 1), (2024, 12))
_CHURN_DAYS = tuple(datetime.date(y, m, 15) for y, m in month_range(*_CHURN_WINDOW))
_COUNT_KEY = key_bytes("count")
_INDEX_KEYS = tuple(key_bytes(index) for index in range(len(_CHURN_DAYS)))


def _checked_addresses(version: int, addresses: list[int]) -> tuple[int, ...]:
    """*addresses* sorted and de-duplicated, as a resolver answers them,
    each checked as an address record checks its value."""
    for address in addresses:
        check_value(version, address)
    if len(addresses) < 2:
        return tuple(addresses)
    return tuple(sorted(set(addresses)))


class _SmallCache:
    """A tiny FIFO cache: zones and snapshots are large, so only the few
    most recently stored dates stay resident (reads do not refresh an
    entry; the oldest insertion is evicted first)."""

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._data: dict = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value) -> None:
        if len(self._data) >= self._capacity:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value


class Universe:
    """One fully generated synthetic Internet (see module docstring)."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.population: Population = build_population(config)
        self.fabric: ServiceFabric = build_services(config, self.population)
        self.schedule = ToplistSchedule()
        self.reference_date = REFERENCE_DATE

        self._org_by_asn: dict[int, Organization] = {}
        for org in self.population.organizations.values():
            for asn in org.asns:
                self._org_by_asn[asn] = org

        self._churn_cache: dict[tuple, list[datetime.date]] = {}
        self._adoption_threshold = uniform_threshold(config.ds_adoption_monthly)
        self._adoption_cache: dict[str, datetime.date] = {}
        self._churn_hashers = {
            kind: prefix_hasher(config.seed, kind) for kind in ("move", "renumber")
        }
        self._zone_cache = _SmallCache(2)
        self._snapshot_cache = _SmallCache(8)
        self._announcement_dates = sorted(
            announcement.announced for announcement in self.fabric.announcements
        )
        self._rib_cache: dict[int, Rib] = {}
        self._queried_cache = _SmallCache(8)

    # -- population passthroughs ------------------------------------------------

    @property
    def asdb(self) -> AsdbDataset:
        return self.population.asdb

    @property
    def registry(self) -> HgCdnRegistry:
        return self.population.registry

    @property
    def monitoring(self) -> MonitoringSpec | None:
        return self.fabric.monitoring

    def as2org_at(self, date: datetime.date) -> As2Org:
        return self.population.as2org_archive.at(date)

    def organizations(self) -> Iterator[Organization]:
        yield from self.population.organizations.values()

    def org(self, org_id: int) -> Organization:
        return self.population.org(org_id)

    def org_for_asn(self, asn: int) -> Organization | None:
        return self._org_by_asn.get(asn)

    # -- churn schedules -----------------------------------------------------------

    def _churn_dates(
        self, name: str, family: int, kind: str, monthly_probability: float
    ) -> list[datetime.date]:
        """The (sorted) dates on which a churn event of *kind* strikes
        this domain/family — sampled once, deterministically."""
        key = (name, family, kind)
        cached = self._churn_cache.get(key)
        if cached is not None:
            return cached
        hash_suffix = self._churn_hashers[kind]
        domain_key = key_bytes(name, family)
        expected = monthly_probability * len(_CHURN_DAYS)
        count = int(expected)
        if hash_suffix(domain_key + _COUNT_KEY) / 2**64 < expected - count:
            count += 1
        picks = {
            hash_suffix(domain_key + index_key) % len(_CHURN_DAYS)
            for index_key in _INDEX_KEYS[:count]
        }
        dates = sorted(_CHURN_DAYS[i] for i in picks)
        self._churn_cache[key] = dates
        return dates

    def _events_before(
        self, dates: list[datetime.date], created: datetime.date, when: datetime.date
    ) -> int:
        return sum(1 for d in dates if created < d <= when)

    # -- dual-stack adoption ----------------------------------------------------------

    def dual_stack_on(self, spec: DomainSpec, when: datetime.date) -> bool:
        """Whether *spec* publishes both A and AAAA records on *when*.

        A single-stack domain's adoption month is drawn the first time it
        is asked for and then kept, as churn schedules are: a snapshot
        only draws for the domains it queries.
        """
        if spec.v6_only:
            return False
        if not spec.single_stack:
            return True
        adoption = self._adoption_cache.get(spec.name)
        if adoption is None:
            drawn = ds_adoption_date(
                self.config.seed, spec.name, self._adoption_threshold
            )
            adoption = drawn if drawn is not None else datetime.date.max
            self._adoption_cache[spec.name] = adoption
        return when >= adoption

    # -- address bindings -------------------------------------------------------------

    def _offset_in(self, block: Prefix, *key_parts: object) -> int:
        usable = min(block.num_addresses, 65536)
        if usable <= 2:
            return 0
        return 1 + stable_hash(*key_parts) % (usable - 2)

    def _block_for(
        self, deployment: Deployment, spec: DomainSpec, family: int, when: datetime.date
    ) -> Prefix:
        primary = deployment.v4_block if family == IPV4 else deployment.v6_block
        alternate = (
            deployment.alt_v4_block if family == IPV4 else deployment.alt_v6_block
        )
        if alternate is None:
            return primary
        monthly = (
            self.config.move_monthly_v4
            if family == IPV4
            else self.config.move_monthly_v6
        )
        moves = self._events_before(
            self._churn_dates(spec.name, family, "move", monthly),
            spec.created,
            when,
        )
        return primary if moves % 2 == 0 else alternate

    def addresses_for(
        self, spec: DomainSpec, when: datetime.date
    ) -> tuple[list[int], list[int]]:
        """The (IPv4, IPv6) addresses of this domain on *when*."""
        network = self.fabric.agility_of(spec)
        if network is not None:
            return [network.v4_address_for(spec.name)], [
                network.v6_address_for(spec.name)
            ]
        deployment = self.fabric.deployment_of(spec)
        assert deployment is not None

        v4: list[int] = []
        v6: list[int] = []
        renumbers4 = self._events_before(
            self._churn_dates(spec.name, IPV4, "renumber", self.config.renumber_monthly),
            spec.created,
            when,
        )
        renumbers6 = self._events_before(
            self._churn_dates(spec.name, IPV6, "renumber", self.config.renumber_monthly),
            spec.created,
            when,
        )
        if deployment.tier is DeploymentTier.NOISY:
            # All domains of a noisy deployment share one address per
            # family (shared hosting): tuning can never split them.
            if not spec.v6_only:
                block4 = deployment.v4_block
                v4.append(
                    block4.first_address + self._offset_in(
                        block4, "noisy-addr", deployment.deployment_id, IPV4
                    )
                )
            if spec.v6_only or self.dual_stack_on(spec, when):
                if spec.noise_v6 is not None:
                    v6.append(
                        spec.noise_v6.first_address
                        + self._offset_in(spec.noise_v6, "noise6", spec.name)
                    )
                else:
                    block6 = deployment.v6_block
                    v6.append(
                        block6.first_address + self._offset_in(
                            block6, "noisy-addr", deployment.deployment_id, IPV6
                        )
                    )
            return v4, v6

        if not spec.v6_only:
            block4 = self._block_for(deployment, spec, IPV4, when)
            v4.append(
                block4.first_address
                + self._offset_in(block4, "addr", spec.name, IPV4, renumbers4)
            )
        if spec.v6_only or self.dual_stack_on(spec, when):
            if spec.noise_v6 is not None:
                v6.append(
                    spec.noise_v6.first_address
                    + self._offset_in(spec.noise_v6, "noise6", spec.name)
                )
            else:
                block6 = self._block_for(deployment, spec, IPV6, when)
                v6.append(
                    block6.first_address
                    + self._offset_in(block6, "addr", spec.name, IPV6, renumbers6)
                )
        return v4, v6

    # -- zone --------------------------------------------------------------------------

    def _mail_exchanges(
        self, zone: Zone, deployment: Deployment, when: datetime.date
    ) -> list[str]:
        """Publish the deployment's MX exchange hosts and return their
        names (mail-profile deployments only)."""
        names = []
        for rank in (1, 2):
            name = f"mx{rank}.d{deployment.deployment_id}.mail-infra.example"
            zone.add(
                ResourceRecord.a(
                    name,
                    deployment.v4_block.first_address
                    + self._offset_in(
                        deployment.v4_block, "mx", deployment.deployment_id, rank
                    ),
                )
            )
            zone.add(
                ResourceRecord.aaaa(
                    name,
                    deployment.v6_block.first_address
                    + self._offset_in(
                        deployment.v6_block, "mx", deployment.deployment_id, rank
                    ),
                )
            )
            names.append(name)
        return names

    def zone_at(self, when: datetime.date) -> Zone:
        cached = self._zone_cache.get(when)
        if cached is not None:
            return cached
        zone = Zone()
        exchange_cache: dict[int, list[str]] = {}
        for spec in self.fabric.domains.values():
            if spec.created > when:
                continue
            v4, v6 = self.addresses_for(spec, when)
            for address in v4:
                zone.add(ResourceRecord.a(spec.name, address))
            for address in v6:
                zone.add(ResourceRecord.aaaa(spec.name, address))
            if spec.alias is not None and (v4 or v6):
                zone.add(ResourceRecord.cname(spec.alias, spec.name))
            deployment = self.fabric.deployment_of(spec)
            if (
                deployment is not None
                and deployment.service_profile in ("mail", "mixed")
                and (v4 or v6)
            ):
                exchanges = exchange_cache.get(deployment.deployment_id)
                if exchanges is None:
                    exchanges = self._mail_exchanges(zone, deployment, when)
                    exchange_cache[deployment.deployment_id] = exchanges
                for rank, exchange in enumerate(exchanges, start=1):
                    zone.add(
                        ResourceRecord.mx(spec.name, exchange, preference=10 * rank)
                    )
        monitoring = self.fabric.monitoring
        if monitoring is not None:
            for _, _, address in monitoring.v4_placements:
                zone.add(ResourceRecord.a(monitoring.domain, address))
            for _, _, address in monitoring.v6_placements:
                zone.add(ResourceRecord.aaaa(monitoring.domain, address))
        self._zone_cache.put(when, zone)
        return zone

    # -- query set ------------------------------------------------------------------------

    def _pattern_visible(self, spec: DomainSpec, when: datetime.date) -> bool:
        if spec.pattern is VisibilityPattern.STABLE:
            return True
        if spec.pattern is VisibilityPattern.ONESHOT:
            return spec.oneshot_month == (when.year, when.month)
        return (
            stable_uniform(self.config.seed, "vis", spec.name, when.year, when.month)
            < self.config.intermittent_visibility
        )

    def _queried_specs(self, when: datetime.date) -> Iterator[DomainSpec]:
        """The domain specs the measurement queries on *when*
        (toplist-driven), in insertion order."""
        active = self.schedule.active(when)
        before_fr = when < FR_CCTLD_ADDED
        for spec in self.fabric.domains.values():
            if spec.created > when:
                continue
            if before_fr and spec.name.endswith(".fr"):
                continue
            if not (spec.sources & active):
                continue
            if not self._pattern_visible(spec, when):
                continue
            yield spec

    def queried_names_at(self, when: datetime.date) -> list[str]:
        """The domains the measurement queries on *when* (toplist-driven)."""
        cached = self._queried_cache.get(when)
        if cached is not None:
            return cached
        queried = [
            spec.alias if spec.alias is not None else spec.name
            for spec in self._queried_specs(when)
        ]
        monitoring = self.fabric.monitoring
        if monitoring is not None and monitoring.visible_on(when):
            queried.append(monitoring.domain)
        self._queried_cache.put(when, queried)
        return queried

    # -- measurement ---------------------------------------------------------------------

    def snapshot_at(self, when: datetime.date) -> DnsSnapshot:
        """The OpenINTEL-style measurement on *when*.

        Equal, observation order included, to
        ``DnsSnapshot.measure(zone_at(when), queried_names_at(when), when)``
        but evaluated straight from the domain specs: a queried alias
        CNAMEs to its own spec's name, so every queried spec with an
        address is one observation under that name.
        """
        cached = self._snapshot_cache.get(when)
        if cached is not None:
            return cached
        with trace("synth.snapshot_at"):
            snapshot = DnsSnapshot(when, self._observations_at(when))
        self._snapshot_cache.put(when, snapshot)
        return snapshot

    def _observations_at(self, when: datetime.date) -> list[DomainObservation]:
        observations: list[DomainObservation] = []
        for spec in self._queried_specs(when):
            v4, v6 = self.addresses_for(spec, when)
            if not (v4 or v6):
                continue
            if spec.alias is not None:
                validate_name(spec.alias)
            observations.append(
                DomainObservation(
                    validate_name(spec.name),
                    _checked_addresses(IPV4, v4),
                    _checked_addresses(IPV6, v6),
                )
            )
        monitoring = self.fabric.monitoring
        if monitoring is not None and monitoring.visible_on(when):
            v4 = [address for _, _, address in monitoring.v4_placements]
            v6 = [address for _, _, address in monitoring.v6_placements]
            if v4 or v6:
                observations.append(
                    DomainObservation(
                        validate_name(monitoring.domain),
                        _checked_addresses(IPV4, v4),
                        _checked_addresses(IPV6, v6),
                    )
                )
        return observations

    def series(self, dates: list[datetime.date]) -> SnapshotSeries:
        return SnapshotSeries(self.snapshot_at(date) for date in dates)

    # -- routing ------------------------------------------------------------------------------

    def rib_at(self, when: datetime.date) -> Rib:
        # Announcements alive on *when* are a prefix of the date-sorted
        # list, so their count names the RIB: dates with the same count
        # share one, whatever order they are asked in.
        key = bisect.bisect_right(self._announcement_dates, when)
        cached = self._rib_cache.get(key)
        if cached is not None:
            return cached
        rib = Rib()
        for announcement in self.fabric.announcements:
            if announcement.announced > when:
                continue
            org = self.population.org(announcement.org_id)
            rib.announce(
                announcement.prefix,
                org.asn_for_family(announcement.prefix.version),
            )
        self._rib_cache[key] = rib
        return rib

    def annotator_at(self, when: datetime.date) -> PrefixAnnotator:
        with trace("synth.annotator_at"):
            rib = self.rib_at(when)
            return PrefixAnnotator(rib, rib, missing_fraction=0.01)

    # -- ground truth ----------------------------------------------------------------------------

    def ground_truth_deployments(
        self, when: datetime.date | None = None
    ) -> list[Deployment]:
        """Deployments alive on *when* (default: the reference date) —
        the intended sibling prefix pairs."""
        when = when if when is not None else self.reference_date
        return [
            d for d in self.fabric.deployments.values() if d.created <= when
        ]

    def monitoring_pair_count(self) -> int:
        monitoring = self.fabric.monitoring
        if monitoring is None:
            return 0
        return len(monitoring.v4_placements) * len(monitoring.v6_placements)

    # -- scanning ground truth ---------------------------------------------------------------------

    def host_inventory(
        self, when: datetime.date
    ) -> dict[tuple[int, int], str]:
        """(version, address) → service-profile name, for every address
        bound on *when* — the ground truth the port scanner probes."""
        inventory: dict[tuple[int, int], str] = {}
        for spec in self.fabric.domains.values():
            if spec.created > when:
                continue
            deployment = self.fabric.deployment_of(spec)
            profile = deployment.service_profile if deployment is not None else "web"
            v4, v6 = self.addresses_for(spec, when)
            for address in v4:
                inventory[(IPV4, address)] = profile
            for address in v6:
                inventory[(IPV6, address)] = profile
        monitoring = self.fabric.monitoring
        if monitoring is not None:
            for _, _, address in monitoring.v4_placements:
                inventory[(IPV4, address)] = "probe"
            for _, _, address in monitoring.v6_placements:
                inventory[(IPV6, address)] = "probe"
        return inventory

    def rdns_inventory(self, when: datetime.date) -> dict[tuple[int, int], str]:
        """(version, address) → reverse-DNS host name.

        The v4 and v6 faces of one logical host share an rDNS name, so
        reverse DNS works as an alternative sibling-detection input
        (Section 6).  The first domain bound to an address names it.
        """
        names: dict[tuple[int, int], str] = {}
        for domain in sorted(self.fabric.domains):
            spec = self.fabric.domains[domain]
            if spec.created > when:
                continue
            deployment = self.fabric.deployment_of(spec)
            asn = (
                self.population.org(deployment.org_id).asns[0]
                if deployment is not None
                else 0
            )
            node = stable_hash("rdns-node", spec.name) % 10**8
            name = f"node-{node:08d}.as{asn}.rev.example"
            v4, v6 = self.addresses_for(spec, when)
            for address in v4:
                names.setdefault((IPV4, address), name)
            for address in v6:
                names.setdefault((IPV6, address), name)
        return names

    def __repr__(self) -> str:
        return (
            f"Universe({self.config.name!r}, orgs={len(self.population.organizations)}, "
            f"deployments={len(self.fabric.deployments)}, "
            f"domains={len(self.fabric.domains)})"
        )


def build_universe(config: ScenarioConfig | str) -> Universe:
    """Build a universe from a config or preset name."""
    with trace("synth.build_universe"):
        if isinstance(config, str):
            config = scenario(config)
        return Universe(config)
