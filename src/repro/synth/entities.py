"""Entity types of the synthetic Internet universe."""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass

from repro.dns.toplists import Toplist
from repro.nettypes.prefix import Prefix
from repro.orgs.asdb import BusinessCategory
from repro.orgs.hypergiants import DeploymentStyle


class DeploymentTier(enum.Enum):
    """How a deployment's address blocks relate to BGP announcements.

    The tier controls where SP-Tuner can fix an imperfect default match
    (Sections 3.3-3.4): ``DEDICATED`` pairs are already perfect at the
    announced size, ``ROUTABLE_SHARED`` pairs resolve at /24-/48,
    ``DEEP_SHARED`` pairs only at /28-/96, and ``NOISY`` pairs never fully
    resolve (cross-prefix noise domains).
    """

    DEDICATED = "dedicated"
    ROUTABLE_SHARED = "routable_shared"
    DEEP_SHARED = "deep_shared"
    NOISY = "noisy"


class HostingMode(enum.Enum):
    """Whose network a deployment's two address families live in."""

    #: Both families in the owning organization's prefixes.
    SELF = "self"
    #: IPv4 from one host organization, IPv6 from another — the paper's
    #: "different organization" origin-AS category (multi-CDN, split
    #: upstreams, Catchpoint-style probes).
    SPLIT = "split"


class VisibilityPattern(enum.Enum):
    """How consistently a domain appears across monthly snapshots
    (Figure 7 left: ~40% always, ~20% once, ~40% intermittent)."""

    STABLE = "stable"
    INTERMITTENT = "intermittent"
    ONESHOT = "oneshot"


@dataclass(frozen=True, slots=True)
class Organization:
    """An organization owning ASes, allocations and deployments."""

    org_id: int
    name: str
    categories: frozenset[BusinessCategory]
    asns: tuple[int, ...]
    #: Hypergiant/CDN deployment style, None for ordinary orgs.
    style: DeploymentStyle | None = None
    #: Month the org started publishing ROAs, None = never (drives Fig 18).
    rpki_adoption: datetime.date | None = None
    #: Eyeball networks announce space and host probes but no services.
    is_eyeball: bool = False
    #: ISO-3166-ish country of the org's infrastructure (geolocation
    #: ground truth for the transfer use case in the paper's intro).
    country: str = "ZZ"

    @property
    def is_hgcdn(self) -> bool:
        return self.style is not None

    def asn_for_family(self, version: int) -> int:
        """Origin ASN used for announcements of the given IP family.

        Orgs with multiple ASNs originate IPv6 from their second AS —
        the common same-organization / different-ASN pattern the paper's
        sibling-AS merge is designed to catch.
        """
        if len(self.asns) > 1 and version == 6:
            return self.asns[1]
        return self.asns[0]


@dataclass(frozen=True, slots=True)
class Deployment:
    """One dual-stack service deployment: the ground-truth sibling unit.

    ``v4_block``/``v6_block`` are the address blocks actually hosting the
    service; ``v4_announced``/``v6_announced`` the covering BGP routes.
    For DEDICATED deployments block == announced.
    """

    deployment_id: int
    org_id: int
    tier: DeploymentTier
    hosting: HostingMode
    v4_block: Prefix
    v6_block: Prefix
    v4_announced: Prefix
    v6_announced: Prefix
    #: Origin orgs of the announced prefixes (differ from org_id for
    #: SPLIT hosting).
    v4_origin_org: int
    v6_origin_org: int
    created: datetime.date
    #: Alternate blocks used when prefix-move churn strikes (may be None).
    alt_v4_block: Prefix | None = None
    alt_v6_block: Prefix | None = None
    #: Open-port service profile name (see repro.scan.ports).
    service_profile: str = "web"

    @property
    def is_same_org(self) -> bool:
        return self.v4_origin_org == self.v6_origin_org


@dataclass(frozen=True, slots=True)
class DomainSpec:
    """One domain and its binding to a deployment.

    Address assignment over time is *computed*, not stored: the universe
    derives the concrete A/AAAA records for any date from the spec plus
    stable churn hashes (see :mod:`repro.synth.universe`).
    """

    name: str
    deployment_id: int
    #: Slot index inside the deployment's blocks (base for addressing).
    slot: int
    sources: frozenset[Toplist]
    created: datetime.date
    pattern: VisibilityPattern
    #: For ONESHOT domains: the single snapshot month they appear in.
    oneshot_month: tuple[int, int] | None = None
    #: A single-stack companion: IPv4-only until the universe's adoption
    #: draw for its name says otherwise (``Universe.dual_stack_on``), or
    #: IPv6-only for good.  False → dual-stack since creation.
    single_stack: bool = False
    #: v6-only domains have no A records at all.
    v6_only: bool = False
    #: Extra noise: fraction of NOISY deployments' domains also appear at
    #: an address inside a foreign prefix (breaks perfect Jaccard).
    noise_v4: Prefix | None = None
    noise_v6: Prefix | None = None
    #: Queried alias that CNAMEs to this (final) name, if any.
    alias: str | None = None
