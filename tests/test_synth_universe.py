"""Tests for the synthetic universe: structure, determinism, dynamics."""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.pipeline import paper_offsets, stability_offsets
from repro.bgp.rib import Rib
from repro.dates import REFERENCE_DATE, snapshot_dates
from repro.determinism import (
    key_bytes,
    prefix_hasher,
    stable_choice,
    stable_hash,
    stable_sample_count,
    stable_uniform,
    stable_weighted_choice,
)
from repro.nettypes.addr import IPV4, IPV6, is_reserved
from repro.synth import build_universe, scenario
from repro.synth.addressplan import AddressPlan
from repro.synth.entities import DeploymentTier, HostingMode
from repro.synth.scenarios import SCENARIOS, ScenarioConfig
from repro.synth.topology import MONITORING_DOMAIN


@pytest.fixture(scope="module")
def universe():
    return build_universe("tiny")


#: Key parts of the kinds synthesis hashes: ints, strings, tuples, dates, None.
_KEY_PARTS = st.one_of(
    st.integers(),
    st.text(max_size=12),
    st.none(),
    st.dates(),
    st.tuples(st.integers(), st.text(max_size=4)),
)


class TestDeterminism:
    @pytest.mark.parametrize(
        "parts, expected",
        [
            ((20250920, "adopt", "d1.example", 2021, 4), 10524775988464389613),
            (("agility4", ("b", 2), None), 12061411943009425452),
            ((datetime.date(2024, 9, 11), "vis", -7), 4874923000596636988),
            (("move", "x.fr", 6, "count"), 3391661467780862590),
            ((), 13020603013274838756),
        ],
    )
    def test_stable_hash_pinned(self, parts, expected):
        # Every synthesized address and date derives from these digests.
        assert stable_hash(*parts) == expected

    @given(st.lists(_KEY_PARTS, max_size=5), st.lists(_KEY_PARTS, max_size=4))
    def test_prefix_hasher_matches_stable_hash(self, prefix, suffix):
        hash_suffix = prefix_hasher(*prefix)
        assert hash_suffix(key_bytes(*suffix)) == stable_hash(*prefix, *suffix)
        # The prefix state is cloned, never consumed: reuse gives the same.
        assert hash_suffix(key_bytes(*suffix)) == stable_hash(*prefix, *suffix)

    def test_stable_hash_repeatable(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_stable_uniform_range(self):
        values = [stable_uniform("k", i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7  # roughly uniform

    def test_stable_choice(self):
        options = ["a", "b", "c"]
        assert stable_choice(options, "x") in options
        assert stable_choice(options, "x") == stable_choice(options, "x")
        with pytest.raises(ValueError):
            stable_choice([], "x")

    def test_weighted_choice_respects_zero_weight(self):
        picks = {
            stable_weighted_choice(["a", "b"], [1.0, 0.0], "seed", i)
            for i in range(50)
        }
        assert picks == {"a"}

    def test_weighted_choice_validation(self):
        with pytest.raises(ValueError):
            stable_weighted_choice(["a"], [1.0, 2.0], "x")
        with pytest.raises(ValueError):
            stable_weighted_choice(["a"], [0.0], "x")

    def test_sample_count_bounds(self):
        assert stable_sample_count(10, 0.0, "k") == 0
        assert stable_sample_count(10, 1.0, "k") == 10
        assert 0 <= stable_sample_count(10, 0.5, "k") <= 10

    def test_universe_rebuild_identical(self):
        a = build_universe("tiny")
        b = build_universe("tiny")
        assert set(a.fabric.domains) == set(b.fabric.domains)
        snap_a = a.snapshot_at(REFERENCE_DATE)
        snap_b = b.snapshot_at(REFERENCE_DATE)
        for obs in snap_a.observations():
            other = snap_b.get(obs.domain)
            assert other is not None
            assert obs.v4_addresses == other.v4_addresses
            assert obs.v6_addresses == other.v6_addresses


class TestAddressPlan:
    def test_no_overlap(self):
        plan = AddressPlan()
        prefixes = [plan.allocate_v4(20) for _ in range(50)]
        prefixes += [plan.allocate_v4(24) for _ in range(50)]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not a.overlaps(b)

    def test_all_global_unicast(self):
        plan = AddressPlan()
        for _ in range(100):
            prefix = plan.allocate_v4(22)
            assert not is_reserved(IPV4, prefix.first_address)
            assert not is_reserved(IPV4, prefix.last_address)
        for _ in range(100):
            prefix = plan.allocate_v6(40)
            assert not is_reserved(IPV6, prefix.first_address)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            AddressPlan().allocate_v4(0)
        with pytest.raises(ValueError):
            AddressPlan().allocate(IPV4, 4)  # larger than superblock


class TestScenarios:
    def test_presets_exist(self):
        assert {"tiny", "small", "medium", "paper"} <= set(SCENARIOS)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario("galactic")

    def test_tier_weights_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(name="bad", tier_weights={DeploymentTier.DEDICATED: 0.5})

    def test_hgcdn_bound(self):
        with pytest.raises(ValueError):
            ScenarioConfig(name="bad", n_hgcdn_orgs=25)


class TestUniverseStructure:
    def test_population_sizes(self, universe):
        config = universe.config
        orgs = list(universe.organizations())
        assert len([o for o in orgs if o.is_eyeball]) == config.n_eyeball_orgs
        assert len(universe.population.hgcdn_org_ids) == config.n_hgcdn_orgs

    def test_asns_unique(self, universe):
        seen = set()
        for org in universe.organizations():
            for asn in org.asns:
                assert asn not in seen
                seen.add(asn)

    def test_deployment_blocks_inside_announcements(self, universe):
        for deployment in universe.fabric.deployments.values():
            assert deployment.v4_announced.contains(deployment.v4_block)
            assert deployment.v6_announced.contains(deployment.v6_block)

    def test_split_deployments_have_different_origin_orgs(self, universe):
        split = [
            d
            for d in universe.fabric.deployments.values()
            if d.hosting is HostingMode.SPLIT
        ]
        assert split, "tiny scenario should include split-hosted deployments"
        for deployment in split:
            assert deployment.v4_origin_org != deployment.v6_origin_org
            assert not deployment.is_same_org

    def test_monitoring_spec(self, universe):
        monitoring = universe.monitoring
        assert monitoring is not None
        assert monitoring.domain == MONITORING_DOMAIN
        config = universe.config
        assert len(monitoring.v4_placements) == config.monitoring_v4_placements
        assert len(monitoring.v6_placements) == config.monitoring_v6_placements
        assert universe.monitoring_pair_count() == (
            config.monitoring_v4_placements * config.monitoring_v6_placements
        )
        # Placements live in distinct host orgs' prefixes.
        host_orgs = {org for _, org, _ in monitoring.v4_placements}
        assert len(host_orgs) > 1

    def test_agility_networks_exist(self, universe):
        assert universe.fabric.agility_networks
        for network in universe.fabric.agility_networks.values():
            assert len(network.v4_prefixes) == 3
            assert len(network.v6_prefixes) == 3
            address = network.v4_address_for("any.example.com")
            assert any(q.contains_address(address) for q in network.v4_prefixes)

    def test_rib_covers_every_deployment(self, universe):
        rib = universe.rib_at(REFERENCE_DATE)
        for deployment in universe.ground_truth_deployments():
            route4 = rib.route_for_prefix(deployment.v4_block)
            assert route4 is not None
            org4 = universe.org_for_asn(route4.origin)
            assert org4 is not None and org4.org_id == deployment.v4_origin_org

    def test_org_asn_family_split(self, universe):
        multi = [o for o in universe.organizations() if len(o.asns) > 1]
        assert multi
        org = multi[0]
        assert org.asn_for_family(4) != org.asn_for_family(6)


class TestDynamics:
    def test_growth_over_time(self, universe):
        early = universe.snapshot_at(datetime.date(2020, 9, 9))
        late = universe.snapshot_at(REFERENCE_DATE)
        assert late.domain_count > early.domain_count
        assert late.dual_stack_count > 1.5 * early.dual_stack_count

    def test_ds_share_grows(self, universe):
        early = universe.snapshot_at(datetime.date(2020, 9, 9))
        late = universe.snapshot_at(REFERENCE_DATE)
        assert 0.15 < early.dual_stack_share < 0.35
        assert early.dual_stack_share < late.dual_stack_share < 0.5

    def test_fr_domains_gated(self, universe):
        before = universe.queried_names_at(datetime.date(2022, 7, 13))
        after = universe.queried_names_at(datetime.date(2022, 9, 14))
        fr = lambda names: sum(1 for n in names if n.endswith(".fr"))
        assert fr(before) == 0
        assert fr(after) > 0

    def test_monitoring_gap_months(self, universe):
        visible = universe.queried_names_at(datetime.date(2024, 9, 11))
        assert MONITORING_DOMAIN in visible
        gap = universe.queried_names_at(datetime.date(2023, 5, 10))
        assert MONITORING_DOMAIN not in gap

    def test_addresses_stable_within_month(self, universe):
        spec = next(iter(universe.fabric.domains.values()))
        day_a = universe.addresses_for(spec, datetime.date(2024, 9, 11))
        day_b = universe.addresses_for(spec, datetime.date(2024, 9, 12))
        assert day_a == day_b

    def test_some_addresses_change_over_years(self, universe):
        changed = 0
        sampled = 0
        early, late = datetime.date(2020, 9, 9), REFERENCE_DATE
        for spec in universe.fabric.domains.values():
            if spec.created > early or spec.v6_only:
                continue
            sampled += 1
            if universe.addresses_for(spec, early) != universe.addresses_for(spec, late):
                changed += 1
        assert sampled > 0
        assert 0 < changed < sampled

    def test_zone_has_cname_aliases(self, universe):
        zone = universe.zone_at(REFERENCE_DATE)
        aliased = [s for s in universe.fabric.domains.values() if s.alias]
        assert aliased
        spec = next(s for s in aliased if s.created <= REFERENCE_DATE)
        from repro.dns.records import RRType

        records = zone.records(spec.alias, RRType.CNAME)
        assert len(records) == 1 and records[0].target == spec.name

    @pytest.mark.parametrize("offsets", [paper_offsets, stability_offsets])
    def test_rib_independent_of_call_order(self, offsets):
        # On small, deployments are announced on the reference date
        # itself: Week -1 and Day 0 fall in one month but hold different
        # routes, and the two offset lists ask for them in opposite orders.
        universe = build_universe("small")
        dates = [when for _, when in offsets(REFERENCE_DATE)]
        texts = {when: universe.rib_at(when).route_text() for when in dates}
        for when in dates:
            expected = Rib()
            for announcement in universe.fabric.announcements:
                if announcement.announced <= when:
                    org = universe.org(announcement.org_id)
                    expected.announce(
                        announcement.prefix,
                        org.asn_for_family(announcement.prefix.version),
                    )
            assert texts[when] == expected.route_text(), when
        week_before = REFERENCE_DATE - datetime.timedelta(days=7)
        assert texts[week_before] != texts[REFERENCE_DATE]

    def test_host_inventory(self, universe):
        inventory = universe.host_inventory(REFERENCE_DATE)
        assert inventory
        versions = {version for version, _ in inventory}
        assert versions == {IPV4, IPV6}
        assert "probe" in set(inventory.values())

    def test_49_snapshot_calendar_consistency(self, universe):
        dates = snapshot_dates()
        assert len(dates) == 49
        series = universe.series(dates[:3])
        assert len(series) == 3
