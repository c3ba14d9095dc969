"""Tests for the service fabric internals (deployment structure)."""

import datetime
from collections import Counter

import pytest

from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.synth.entities import DeploymentTier, HostingMode
from repro.synth.services import (
    EARLY_DATE,
    MONITORING_GAP_MONTHS,
    _SubAllocator,
    AgilityNetwork,
)


class TestSubAllocator:
    def test_sequential_children(self):
        allocator = _SubAllocator(Prefix.parse("10.0.0.0/22"), 24)
        children = [allocator.take() for _ in range(4)]
        assert [str(c) for c in children] == [
            "10.0.0.0/24",
            "10.0.1.0/24",
            "10.0.2.0/24",
            "10.0.3.0/24",
        ]
        assert allocator.take() is None  # exhausted

    def test_child_no_shorter_than_parent(self):
        with pytest.raises(ValueError):
            _SubAllocator(Prefix.parse("10.0.0.0/24"), 22)

    def test_same_length_single_child(self):
        allocator = _SubAllocator(Prefix.parse("10.0.0.0/24"), 24)
        assert allocator.take() == Prefix.parse("10.0.0.0/24")
        assert allocator.take() is None


class TestFabricStructure:
    def test_tier_mix_present(self, tiny_universe):
        tiers = Counter(
            d.tier for d in tiny_universe.fabric.deployments.values()
        )
        for tier in DeploymentTier:
            assert tiers[tier] > 0, f"no {tier.value} deployments generated"

    def test_shared_blocks_nest_strictly(self, tiny_universe):
        for deployment in tiny_universe.fabric.deployments.values():
            if deployment.tier is DeploymentTier.DEEP_SHARED:
                # One side must sit strictly inside a larger announcement.
                v4_nested = deployment.v4_block.length > deployment.v4_announced.length
                v6_nested = deployment.v6_block.length > deployment.v6_announced.length
                assert v4_nested or v6_nested

    def test_deep_shared_blocks_at_tuner_granularity(self, tiny_universe):
        for deployment in tiny_universe.fabric.deployments.values():
            if (
                deployment.tier is DeploymentTier.DEEP_SHARED
                and deployment.hosting is HostingMode.SELF
            ):
                if deployment.v4_block.length > deployment.v4_announced.length:
                    assert deployment.v4_block.length == 28
                if deployment.v6_block.length > deployment.v6_announced.length:
                    assert deployment.v6_block.length == 96

    def test_routable_shared_blocks_at_routable_granularity(self, tiny_universe):
        for deployment in tiny_universe.fabric.deployments.values():
            if (
                deployment.tier is DeploymentTier.ROUTABLE_SHARED
                and deployment.hosting is HostingMode.SELF
            ):
                if deployment.v4_block.length > deployment.v4_announced.length:
                    assert deployment.v4_block.length == 24
                if deployment.v6_block.length > deployment.v6_announced.length:
                    assert deployment.v6_block.length == 48

    def test_same_org_containers_disjoint_between_deployments(self, tiny_universe):
        blocks = [
            d.v4_block
            for d in tiny_universe.fabric.deployments.values()
        ]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert a != b or a is b  # blocks are unique per deployment

    def test_alt_blocks_share_announcement_with_primary(self, tiny_universe):
        for deployment in tiny_universe.fabric.deployments.values():
            if (
                deployment.alt_v4_block is not None
                and deployment.tier
                in (DeploymentTier.ROUTABLE_SHARED, DeploymentTier.DEEP_SHARED)
                and deployment.hosting is HostingMode.SELF
                and deployment.v4_block.length > deployment.v4_announced.length
            ):
                assert deployment.v4_announced.contains(deployment.alt_v4_block)

    def test_announcements_cover_all_blocks(self, tiny_universe):
        announced = {a.prefix for a in tiny_universe.fabric.announcements}
        for deployment in tiny_universe.fabric.deployments.values():
            assert deployment.v4_announced in announced
            assert deployment.v6_announced in announced

    def test_announcement_dates_sane(self, tiny_universe):
        for announcement in tiny_universe.fabric.announcements:
            assert announcement.announced >= EARLY_DATE
            assert announcement.announced <= datetime.date(2024, 12, 31)

    def test_service_profiles_known(self, tiny_universe):
        from repro.scan.ports import SERVICE_PROFILES

        for deployment in tiny_universe.fabric.deployments.values():
            assert deployment.service_profile in SERVICE_PROFILES

    def test_noise_sinks_exist_and_are_announced(self, tiny_universe):
        announced = {a.prefix for a in tiny_universe.fabric.announcements}
        assert tiny_universe.fabric.noise_sinks
        for sink in tiny_universe.fabric.noise_sinks:
            assert sink in announced
            assert sink.version == IPV6

    def test_monitoring_gap_months_constant(self):
        assert (2023, 5) in MONITORING_GAP_MONTHS
        assert all(year in (2021, 2022, 2023) for year, _ in MONITORING_GAP_MONTHS)


class TestAgilityNetwork:
    def test_pool_binding_is_stable_and_in_pool(self):
        network = AgilityNetwork(
            org_id=1,
            v4_prefixes=(Prefix.parse("5.0.0.0/20"),),
            v6_prefixes=(Prefix.parse("2600::/32"),),
            v4_pool=(100, 200),
            v6_pool=(300, 400),
        )
        first = network.v4_address_for("x.example.com")
        assert first in network.v4_pool
        assert network.v4_address_for("x.example.com") == first
        assert network.v6_address_for("x.example.com") in network.v6_pool

    def test_independent_family_binding(self):
        network = AgilityNetwork(
            org_id=1,
            v4_prefixes=(),
            v6_prefixes=(),
            v4_pool=tuple(range(100)),
            v6_pool=tuple(range(100)),
        )
        # Across many domains, v4 and v6 pool indices must decorrelate.
        same = sum(
            1
            for i in range(200)
            if network.v4_address_for(f"d{i}.example.com")
            == network.v6_address_for(f"d{i}.example.com")
        )
        assert same < 30  # ~1% expected if independent; allow slack


class TestDomainSpecs:
    def test_fr_domains_sourced_from_cctld_list(self, tiny_universe):
        from repro.dns.toplists import Toplist

        fr_specs = [
            spec
            for spec in tiny_universe.fabric.domains.values()
            if spec.name.endswith(".fr")
        ]
        assert fr_specs
        for spec in fr_specs:
            assert spec.sources == {Toplist.OPEN_CCTLDS}

    def test_aliases_resolve_to_final_names(self, tiny_universe):
        aliased = [s for s in tiny_universe.fabric.domains.values() if s.alias]
        assert aliased
        for spec in aliased[:20]:
            assert spec.alias == f"www.{spec.name}"

    def test_singlestack_ratio_roughly_respected(self, tiny_universe):
        specs = list(tiny_universe.fabric.domains.values())
        ds_native = sum(1 for s in specs if not s.single_stack)
        singlestack = sum(1 for s in specs if s.single_stack)
        ratio = singlestack / ds_native
        target = tiny_universe.config.singlestack_ratio
        assert 0.5 * target < ratio < 1.8 * target

    def test_v6_only_domains_exist_and_lack_a_records(self, tiny_universe):
        v6_only = [s for s in tiny_universe.fabric.domains.values() if s.v6_only]
        assert v6_only
        spec = v6_only[0]
        v4, v6 = tiny_universe.addresses_for(spec, REFERENCE_DATE)
        assert not v4 and v6

    def test_oneshot_domains_have_month(self, tiny_universe):
        from repro.synth.entities import VisibilityPattern

        oneshots = [
            s
            for s in tiny_universe.fabric.domains.values()
            if s.pattern is VisibilityPattern.ONESHOT
        ]
        assert oneshots
        for spec in oneshots:
            if not spec.single_stack:  # base DS domains carry the month
                assert spec.oneshot_month is not None
