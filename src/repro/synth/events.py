"""Scripted longitudinal events with exact ground truth.

The calibrated :class:`~repro.synth.universe.Universe` replays the
paper's *distributions*; this module replays *events*.  An
:class:`EventScript` names a cast of dual-stack deployments and a
sequence of scripted churn events — staged dual-stack rollout waves,
renumbering waves, privacy-driven IPv6 prefix rotation (Herrmann et
al.), aliased-prefix cluster injection (the designed false-positive
trap from the IPv6 Hitlists work, Gasser et al.), and as2org-style
merges/splits.  :class:`EventUniverse` compiles the script into a dated
snapshot series plus a :class:`~repro.synth.groundtruth.GroundTruthLedger`
holding the exact sibling truth for every date.

Design constraints, both load-bearing for the longitudinal pipeline:

* **One constant RIB.**  Every block a deployment will *ever* use —
  base, renumber spares, the whole rotation ring, the aliased cluster —
  is announced up front, so the annotator's content signature never
  changes and ``detect_series`` stays on the delta path for the
  entire series (a signature change forces a full rebuild; see
  :class:`repro.analysis.pipeline.RollingDetection`).
* **Private address plan.**  Each engine instance allocates from its own
  :class:`~repro.synth.addressplan.AddressPlan`, so two engines built
  from the same script produce bit-identical series regardless of what
  else has been generated in the process.

The engine duck-types the pipeline's universe protocol
(``snapshot_at`` / ``annotator_at``), so it drives ``detect_series``,
the ``.sparch`` archive, and ``repro watch`` unchanged.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace
from typing import Union

from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.dates import REFERENCE_DATE
from repro.determinism import stable_hash, stable_uniform
from repro.dns.openintel import DnsSnapshot, DomainObservation, SnapshotSeries
from repro.nettypes.prefix import Prefix
from repro.synth.addressplan import AddressPlan
from repro.synth.groundtruth import GroundTruthLedger, TruthPair
from repro.synth.scenarios import ScenarioConfig, scenario
from repro.synth.topology import Population, build_population

# -- event vocabulary ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DualStackRollout:
    """Staged IPv6 adoption: affected deployments start v4-only and flip
    dual-stack in waves.  Deployment *i*'s wave is a stable hash over
    the script seed, so membership is reproducible; wave *w* activates
    at date index ``start_index + w * interval``."""

    waves: int = 4
    start_index: int = 1
    interval: int = 1
    fraction: float = 1.0


@dataclass(frozen=True, slots=True)
class RenumberWave:
    """Affected deployments move to fresh pre-allocated blocks at
    ``at_index`` — the org keeps its siblings, the networks move.
    ``families`` picks which sides move ((4,), (6,), or both)."""

    at_index: int
    fraction: float = 0.3
    families: tuple[int, ...] = (4, 6)


@dataclass(frozen=True, slots=True)
class PrefixRotation:
    """Privacy-driven periodic IPv6 renumbering (à la Herrmann et al.):
    an affected deployment's v6 block cycles through a pre-announced
    ring every ``period`` dates, with a per-deployment phase jitter in
    ``[0, jitter]``.  With ``blackout=True`` the deployment's domains
    drop out of the snapshot entirely on each rotation date (the
    measurement missed the move) — the empty-window case
    ``SnapshotSeries`` must classify correctly."""

    period: int = 2
    jitter: int = 1
    fraction: float = 0.25
    ring: int = 3
    blackout: bool = False


@dataclass(frozen=True, slots=True)
class AliasedCluster:
    """Inject an aliased v6 prefix (à la Gasser et al.): from
    ``at_index`` on, every affected deployment's domains also answer
    from one shared /``length`` — a prefix that appears to host
    everything.  ``additive`` mode keeps the true AAAA records (the
    trap competes at Step-4 best-match and the tied trap pairs survive
    as designed false positives); ``hijack`` mode moves the AAAA
    records wholly into the cluster, making the true pairs undetectable
    (recorded invisible) and every detection involving the cluster a
    trap hit."""

    at_index: int = 1
    fraction: float = 0.1
    mode: str = "additive"  # "additive" | "hijack"
    length: int = 48


@dataclass(frozen=True, slots=True)
class OrgMerge:
    """as2org transition: affected deployments are re-attributed to one
    surviving organization from ``at_index`` on.  Pair truth is
    unchanged — only the org-level attribution moves."""

    at_index: int
    fraction: float = 0.3


@dataclass(frozen=True, slots=True)
class OrgSplit:
    """as2org transition: affected deployments spin out into fresh
    organization ids from ``at_index`` on."""

    at_index: int
    fraction: float = 0.2


Event = Union[
    DualStackRollout,
    RenumberWave,
    PrefixRotation,
    AliasedCluster,
    OrgMerge,
    OrgSplit,
]


@dataclass(frozen=True, slots=True)
class EventScript:
    """A named cast of deployments plus the events that churn them."""

    name: str
    events: tuple[Event, ...]
    n_dates: int = 8
    n_deployments: int = 24
    domains_per_deployment: int = 3
    seed: int = 11
    start: datetime.date = REFERENCE_DATE
    cadence_days: int = 7

    def dates(self) -> list[datetime.date]:
        step = datetime.timedelta(days=self.cadence_days)
        return [self.start + i * step for i in range(self.n_dates)]

    def scaled(self, factor: int) -> "EventScript":
        """The same script with ``factor``× the deployment cast."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return replace(self, n_deployments=self.n_deployments * factor)


#: The scripted scenario grid — every later quality gate runs over these.
EVENT_SCENARIOS: dict[str, EventScript] = {
    "rollout": EventScript(
        name="rollout",
        events=(DualStackRollout(waves=4, start_index=1, interval=2),),
    ),
    "renumber": EventScript(
        name="renumber",
        events=(
            RenumberWave(at_index=2, fraction=0.4),
            RenumberWave(at_index=5, fraction=0.3, families=(6,)),
        ),
    ),
    "rotation": EventScript(
        name="rotation",
        events=(PrefixRotation(period=2, jitter=1, fraction=0.25, ring=3),),
    ),
    "aliased": EventScript(
        name="aliased",
        events=(AliasedCluster(at_index=2, fraction=0.15),),
    ),
    "orgchurn": EventScript(
        name="orgchurn",
        events=(OrgMerge(at_index=3, fraction=0.3), OrgSplit(at_index=5)),
    ),
    "mixed": EventScript(
        name="mixed",
        events=(
            DualStackRollout(waves=3, start_index=1, fraction=0.5),
            RenumberWave(at_index=3, fraction=0.25),
            PrefixRotation(period=3, jitter=2, fraction=0.2, ring=3),
            AliasedCluster(at_index=4, fraction=0.1),
            OrgMerge(at_index=5, fraction=0.2),
        ),
    ),
}


def event_scenario(name: str) -> EventScript:
    try:
        return EVENT_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(EVENT_SCENARIOS))
        raise KeyError(f"unknown event scenario {name!r} (known: {known})") from None


# -- the engine ---------------------------------------------------------------


@dataclass(slots=True)
class _DeploymentPlan:
    """Everything allocated up-front for one scripted deployment."""

    dep_id: int
    org_id: int
    domains: tuple[str, ...]
    v4_blocks: tuple[Prefix, ...]  # base + one per v4 renumber wave
    v6_blocks: tuple[Prefix, ...]  # base + one per v6 renumber wave
    #: v6 rotation ring (ring[0] is the base block); empty = no rotation.
    ring: tuple[Prefix, ...] = ()
    rotation: PrefixRotation | None = None
    jitter: int = 0
    #: Date index when the v6 side comes up (0 = dual-stack from day one).
    activation_index: int = 0
    aliased: AliasedCluster | None = None


@dataclass(frozen=True, slots=True)
class _DeploymentState:
    """One deployment's resolved state on one date index."""

    v4_prefix: Prefix
    v6_prefix: Prefix
    v6_on: bool
    absent: bool
    hijacked: bool
    alias_extra: bool
    org_id: int


class EventUniverse:
    """Compile an :class:`EventScript` into snapshots + exact truth.

    Duck-types the detection pipeline's universe protocol: only
    ``snapshot_at`` and ``annotator_at`` are required by
    :func:`repro.analysis.pipeline.detect_series` and
    :class:`repro.analysis.watch.SnapshotWatcher`.
    """

    def __init__(
        self,
        script: EventScript,
        base: "str | ScenarioConfig | Population" = "tiny",
        scale: int = 1,
    ):
        if scale > 1:
            script = script.scaled(scale)
        self.script = script
        if isinstance(base, Population):
            population = base
        else:
            config = scenario(base) if isinstance(base, str) else base
            population = build_population(config)
        self.population = population
        self._plan = AddressPlan()
        self._rib = Rib()
        self.ledger = GroundTruthLedger()
        self._dates = script.dates()
        self._date_index = {date: i for i, date in enumerate(self._dates)}
        self._aliased_prefix: Prefix | None = None
        self._deployments = self._allocate(script, population)
        self._annotator = PrefixAnnotator(self._rib, missing_fraction=0.0)
        self._snapshots: dict[datetime.date, DnsSnapshot] = {}
        self._compile()

    # -- construction ----------------------------------------------------------

    def _affected(self, event_tag: str, fraction: float, dep_id: int) -> bool:
        if fraction >= 1.0:
            return True
        return (
            stable_uniform(self.script.seed, "event", event_tag, dep_id)
            < fraction
        )

    def _allocate(
        self, script: EventScript, population: Population
    ) -> list[_DeploymentPlan]:
        org_ids = population.service_org_ids or sorted(population.organizations)
        rollouts = [e for e in script.events if isinstance(e, DualStackRollout)]
        renumbers = [e for e in script.events if isinstance(e, RenumberWave)]
        rotations = [e for e in script.events if isinstance(e, PrefixRotation)]
        aliased = [e for e in script.events if isinstance(e, AliasedCluster)]
        if len(aliased) > 1:
            raise ValueError("at most one AliasedCluster per script")

        if aliased:
            self._aliased_prefix = self._plan.allocate_v6(aliased[0].length)
            self.ledger.register_trap(self._aliased_prefix)

        deployments: list[_DeploymentPlan] = []
        for i in range(script.n_deployments):
            org = population.org(org_ids[i % len(org_ids)])
            v4_blocks = [self._plan.allocate_v4(24)]
            v6_blocks = [self._plan.allocate_v6(48)]
            for e, event in enumerate(renumbers):
                if not self._affected(f"renumber:{e}", event.fraction, i):
                    # Hold the slot so block counts stay aligned with
                    # the wave list regardless of membership.
                    v4_blocks.append(v4_blocks[-1])
                    v6_blocks.append(v6_blocks[-1])
                    continue
                v4_blocks.append(
                    self._plan.allocate_v4(24)
                    if 4 in event.families
                    else v4_blocks[-1]
                )
                v6_blocks.append(
                    self._plan.allocate_v6(48)
                    if 6 in event.families
                    else v6_blocks[-1]
                )

            ring: tuple[Prefix, ...] = ()
            rotation = None
            jitter = 0
            for e, event in enumerate(rotations):
                if self._affected(f"rotation:{e}", event.fraction, i):
                    rotation = event
                    ring = (v6_blocks[0],) + tuple(
                        self._plan.allocate_v6(48)
                        for _ in range(max(event.ring - 1, 0))
                    )
                    if event.jitter:
                        jitter = stable_hash(
                            self.script.seed, "rotation-jitter", i
                        ) % (event.jitter + 1)
                    break

            activation = 0
            for e, event in enumerate(rollouts):
                if self._affected(f"rollout:{e}", event.fraction, i):
                    wave = stable_hash(
                        self.script.seed, "rollout-wave", e, i
                    ) % max(event.waves, 1)
                    activation = event.start_index + wave * event.interval
                    break

            cluster = None
            if aliased and self._affected(
                "aliased", aliased[0].fraction, i
            ):
                cluster = aliased[0]

            prefix = f"d{i:06d}"
            domains = tuple(
                f"{prefix}-{j}.{script.name}.example"
                for j in range(script.domains_per_deployment)
            )
            deployments.append(
                _DeploymentPlan(
                    dep_id=i,
                    org_id=org.org_id,
                    domains=domains,
                    v4_blocks=tuple(v4_blocks),
                    v6_blocks=tuple(v6_blocks),
                    ring=ring,
                    rotation=rotation,
                    jitter=jitter,
                    activation_index=activation,
                    aliased=cluster,
                )
            )
            # Announce every block this deployment will ever use, so the
            # RIB (and the annotator signature) is constant over the
            # whole series.
            for block in dict.fromkeys(v4_blocks):
                self._rib.announce(block, org.asn_for_family(4))
            for block in dict.fromkeys(tuple(v6_blocks) + ring):
                self._rib.announce(block, org.asn_for_family(6))

        if self._aliased_prefix is not None:
            hosts = population.hosting_org_ids or org_ids
            host = population.org(hosts[0])
            self._rib.announce(self._aliased_prefix, host.asn_for_family(6))
        return deployments

    def _state_at(self, plan: _DeploymentPlan, t: int) -> _DeploymentState:
        script = self.script
        renumbers = [
            e for e in script.events if isinstance(e, RenumberWave)
        ]
        # Renumbering: the latest wave at or before t wins per family.
        v4 = plan.v4_blocks[0]
        v6 = plan.v6_blocks[0]
        for e, event in enumerate(renumbers):
            if t >= event.at_index:
                v4 = plan.v4_blocks[e + 1]
                v6 = plan.v6_blocks[e + 1]

        absent = False
        if plan.rotation is not None and plan.ring:
            phase = t + plan.jitter
            turns = phase // plan.rotation.period
            v6 = plan.ring[turns % len(plan.ring)]
            if (
                plan.rotation.blackout
                and t > 0
                and phase % plan.rotation.period == 0
            ):
                absent = True

        v6_on = t >= plan.activation_index
        hijacked = (
            plan.aliased is not None
            and plan.aliased.mode == "hijack"
            and t >= plan.aliased.at_index
        )
        alias_extra = (
            plan.aliased is not None
            and plan.aliased.mode == "additive"
            and t >= plan.aliased.at_index
        )
        org_id = plan.org_id
        merge_target: int | None = None
        for event in script.events:
            if isinstance(event, OrgMerge) and t >= event.at_index:
                if self._affected("merge", event.fraction, plan.dep_id):
                    if merge_target is None:
                        merge_target = self._merge_target(event)
                    org_id = merge_target
            elif isinstance(event, OrgSplit) and t >= event.at_index:
                if self._affected("split", event.fraction, plan.dep_id):
                    # A fresh org id outside the population's range.
                    org_id = 10_000_000 + plan.dep_id
        return _DeploymentState(
            v4_prefix=v4,
            v6_prefix=v6,
            v6_on=v6_on,
            absent=absent,
            hijacked=hijacked,
            alias_extra=alias_extra,
            org_id=org_id,
        )

    def _merge_target(self, event: OrgMerge) -> int:
        """The surviving org: the first affected deployment's org."""
        for plan in self._deployments:
            if self._affected("merge", event.fraction, plan.dep_id):
                return plan.org_id
        return self._deployments[0].org_id

    def _compile(self) -> None:
        dpd = self.script.domains_per_deployment
        aliased_base = (
            self._aliased_prefix.first_address + 1
            if self._aliased_prefix is not None
            else 0
        )
        for t, date in enumerate(self._dates):
            observations: list[DomainObservation] = []
            truth: list[TruthPair] = []
            for plan in self._deployments:
                state = self._state_at(plan, t)
                detectable = (
                    state.v6_on and not state.absent and not state.hijacked
                )
                truth.append(
                    TruthPair(
                        v4_prefix=state.v4_prefix,
                        v6_prefix=state.v6_prefix,
                        deployment_id=plan.dep_id,
                        org_id=state.org_id,
                        visible=detectable,
                    )
                )
                if state.absent:
                    continue
                for j, domain in enumerate(plan.domains):
                    v4_addr = state.v4_prefix.first_address + 1 + j
                    v6_addrs: list[int] = []
                    if state.v6_on and not state.hijacked:
                        v6_addrs.append(state.v6_prefix.first_address + 1 + j)
                    if state.v6_on and (state.alias_extra or state.hijacked):
                        v6_addrs.append(aliased_base + plan.dep_id * dpd + j)
                    observations.append(
                        DomainObservation(
                            domain, (v4_addr,), tuple(sorted(v6_addrs))
                        )
                    )
            self._snapshots[date] = DnsSnapshot(date, observations)
            self.ledger.record(date, truth)

    # -- the universe protocol -------------------------------------------------

    @property
    def dates(self) -> list[datetime.date]:
        return list(self._dates)

    def snapshot_at(self, date: datetime.date) -> DnsSnapshot:
        try:
            return self._snapshots[date]
        except KeyError:
            raise LookupError(
                f"event universe {self.script.name!r} has no snapshot for "
                f"{date}"
            ) from None

    def annotator_at(self, date: datetime.date) -> PrefixAnnotator:
        return self._annotator

    def series(self) -> SnapshotSeries:
        return SnapshotSeries(self._snapshots.values())

    @property
    def aliased_prefix(self) -> Prefix | None:
        return self._aliased_prefix

    def __repr__(self) -> str:
        return (
            f"EventUniverse({self.script.name!r}, "
            f"deployments={len(self._deployments)}, "
            f"dates={len(self._dates)})"
        )


def build_event_universe(
    name_or_script: "str | EventScript",
    base: "str | ScenarioConfig | Population" = "tiny",
    scale: int = 1,
) -> EventUniverse:
    """Resolve *name_or_script* against :data:`EVENT_SCENARIOS` and build."""
    script = (
        event_scenario(name_or_script)
        if isinstance(name_or_script, str)
        else name_or_script
    )
    return EventUniverse(script, base=base, scale=scale)
