"""Snapshot-delta edge cases: appear, disappear, flip, one-family change.

The incremental pipeline's correctness rests on two layers doing exact
bookkeeping: :meth:`DnsSnapshot.delta_to` must classify every domain
transition, and :meth:`PrefixDomainIndex.apply_delta` must translate
those transitions into index mutations that land on exactly the state a
from-scratch :func:`build_index` of the new snapshot would produce.
Every test here asserts both layers directly, without the detection
engines on top.
"""

import datetime

import pytest

from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.core.domainsets import build_index
from repro.dns.openintel import (
    DnsSnapshot,
    DomainObservation,
    SnapshotDelta,
    SnapshotSeries,
)
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix

DATE_0 = datetime.date(2024, 9, 1)
DATE_1 = datetime.date(2024, 9, 2)
DATE_2 = datetime.date(2024, 9, 3)

# Public, non-reserved space: the annotator discards reserved addresses.
V4_PREFIXES = [
    Prefix.from_address(IPV4, (20 << 24) | (i << 8), 24) for i in range(8)
]
V6_PREFIXES = [
    Prefix.from_address(IPV6, (0x2400_00DB << 96) | (i << 80), 48)
    for i in range(8)
]


def v4(pool: int, offset: int = 1) -> int:
    return V4_PREFIXES[pool].first_address + offset


def v6(pool: int, offset: int = 1) -> int:
    return V6_PREFIXES[pool].first_address + offset


def make_annotator() -> PrefixAnnotator:
    rib = Rib()
    for position, prefix in enumerate(V4_PREFIXES + V6_PREFIXES):
        rib.announce(prefix, 65000 + position)
    return PrefixAnnotator(rib, missing_fraction=0.0)


def obs(domain: str, v4_addresses=(), v6_addresses=()) -> DomainObservation:
    return DomainObservation(
        domain, tuple(v4_addresses), tuple(v6_addresses)
    )


def snap(date: datetime.date, observations) -> DnsSnapshot:
    return DnsSnapshot(date, observations)


class TestDeltaClassification:
    def test_appearing_domain_is_added(self):
        old = snap(DATE_0, [obs("a.example", [v4(0)], [v6(0)])])
        new = snap(
            DATE_1,
            [
                obs("a.example", [v4(0)], [v6(0)]),
                obs("b.example", [v4(1)], [v6(1)]),
            ],
        )
        delta = old.delta_to(new)
        assert [o.domain for o in delta.added] == ["b.example"]
        assert delta.removed == ()
        assert delta.changed == ()
        assert delta.old_date == DATE_0 and delta.new_date == DATE_1

    def test_disappearing_domain_is_removed(self):
        old = snap(
            DATE_0,
            [
                obs("a.example", [v4(0)], [v6(0)]),
                obs("b.example", [v4(1)], [v6(1)]),
            ],
        )
        new = snap(DATE_1, [obs("a.example", [v4(0)], [v6(0)])])
        delta = old.delta_to(new)
        assert delta.added == ()
        assert delta.removed == ("b.example",)
        assert delta.changed == ()

    def test_dual_stack_flip_is_changed_not_removed(self):
        old = snap(DATE_0, [obs("a.example", [v4(0)], [v6(0)])])
        new = snap(DATE_1, [obs("a.example", [v4(0)], [])])
        delta = old.delta_to(new)
        assert delta.removed == () and delta.added == ()
        ((before, after),) = delta.changed
        assert before.is_dual_stack and not after.is_dual_stack

    def test_one_family_address_change(self):
        old = snap(DATE_0, [obs("a.example", [v4(0, 1)], [v6(0)])])
        new = snap(DATE_1, [obs("a.example", [v4(0, 2)], [v6(0)])])
        ((before, after),) = old.delta_to(new).changed
        assert before.v4_addresses != after.v4_addresses
        assert before.v6_addresses == after.v6_addresses

    def test_unchanged_snapshot_yields_empty_delta(self):
        observations = [obs("a.example", [v4(0)], [v6(0)])]
        delta = snap(DATE_0, observations).delta_to(snap(DATE_1, observations))
        assert delta.is_empty
        assert delta.touched_domains == 0

    def test_series_delta_and_consecutive_deltas(self):
        series = SnapshotSeries(
            [
                snap(DATE_0, [obs("a.example", [v4(0)], [v6(0)])]),
                snap(DATE_1, [obs("b.example", [v4(1)], [v6(1)])]),
                snap(DATE_2, []),
            ]
        )
        direct = series.delta(DATE_0, DATE_2)
        assert direct.removed == ("a.example",)
        assert direct.added == ()
        steps = list(series.deltas())
        assert len(steps) == 2
        assert isinstance(steps[0], SnapshotDelta)
        assert steps[0].removed == ("a.example",)
        assert [o.domain for o in steps[0].added] == ["b.example"]
        assert steps[1].removed == ("b.example",)


def assert_index_contents_equal(incremental, fresh):
    """The delta-maintained index equals a from-scratch build."""
    assert incremental.domain_v4_prefixes == fresh.domain_v4_prefixes
    assert incremental.domain_v6_prefixes == fresh.domain_v6_prefixes
    assert incremental.domain_v4_addresses == fresh.domain_v4_addresses
    assert incremental.domain_v6_addresses == fresh.domain_v6_addresses
    assert incremental.v4_domains == fresh.v4_domains
    assert incremental.v6_domains == fresh.v6_domains
    assert incremental.dropped_labels == fresh.dropped_labels
    assert incremental.dropped_domains == fresh.dropped_domains
    assert incremental.date == fresh.date


def roll(old_observations, new_observations):
    """apply_delta old → new; returns (rolled index, fresh index)."""
    annotator = make_annotator()
    old_snapshot = snap(DATE_0, old_observations)
    new_snapshot = snap(DATE_1, new_observations)
    index = build_index(old_snapshot, annotator)
    index.apply_delta(old_snapshot.delta_to(new_snapshot), annotator)
    return index, build_index(new_snapshot, make_annotator())


class TestApplyDelta:
    def test_appearing_domain(self):
        index, fresh = roll(
            [obs("a.example", [v4(0)], [v6(0)])],
            [
                obs("a.example", [v4(0)], [v6(0)]),
                obs("b.example", [v4(1)], [v6(1)]),
            ],
        )
        assert_index_contents_equal(index, fresh)
        assert "b.example" in index.domain_v4_prefixes

    def test_disappearing_domain_cleans_empty_prefixes(self):
        index, fresh = roll(
            [
                obs("a.example", [v4(0)], [v6(0)]),
                obs("b.example", [v4(1)], [v6(1)]),
            ],
            [obs("a.example", [v4(0)], [v6(0)])],
        )
        assert_index_contents_equal(index, fresh)
        assert V4_PREFIXES[1] not in index.v4_domains
        assert V6_PREFIXES[1] not in index.v6_domains

    def test_dual_stack_flip_off_removes_from_index(self):
        index, fresh = roll(
            [obs("a.example", [v4(0)], [v6(0)])],
            [obs("a.example", [v4(0)], [])],
        )
        assert_index_contents_equal(index, fresh)
        assert index.domain_count == 0

    def test_dual_stack_flip_on_inserts(self):
        index, fresh = roll(
            [obs("a.example", [v4(0)], [])],
            [obs("a.example", [v4(0)], [v6(0)])],
        )
        assert_index_contents_equal(index, fresh)
        assert index.domain_count == 1

    def test_one_family_prefix_move(self):
        index, fresh = roll(
            [obs("a.example", [v4(0)], [v6(0)])],
            [obs("a.example", [v4(2)], [v6(0)])],
        )
        assert_index_contents_equal(index, fresh)
        assert index.domain_v4_prefixes["a.example"] == {V4_PREFIXES[2]}

    def test_renumber_within_prefix_keeps_membership_and_updates_addresses(self):
        annotator = make_annotator()
        old_snapshot = snap(DATE_0, [obs("a.example", [v4(0, 7)], [v6(0)])])
        new_snapshot = snap(DATE_1, [obs("a.example", [v4(0, 8)], [v6(0)])])
        index = build_index(old_snapshot, annotator)
        recorded = index.apply_delta(
            old_snapshot.delta_to(new_snapshot), annotator
        )
        # Membership unchanged → the recorded IndexDelta is empty, but
        # the concrete addresses (SP-Tuner input) moved.
        assert recorded.is_empty
        assert index.domain_v4_addresses["a.example"] == (v4(0, 8),)
        assert_index_contents_equal(
            index, build_index(new_snapshot, make_annotator())
        )

    def test_domain_dropping_to_unrouted_space_and_back(self):
        unrouted = (21 << 24) | 1  # public space, but not announced
        index, fresh = roll(
            [obs("a.example", [v4(0)], [v6(0)])],
            [obs("a.example", [unrouted], [v6(0)])],
        )
        assert_index_contents_equal(index, fresh)
        assert index.dropped_domains == 1
        # ... and back into routed space.
        annotator = make_annotator()
        back = snap(DATE_2, [obs("a.example", [v4(3)], [v6(0)])])
        index.apply_delta(
            snap(DATE_1, [obs("a.example", [unrouted], [v6(0)])]).delta_to(back),
            annotator,
        )
        assert_index_contents_equal(index, build_index(back, make_annotator()))
        assert index.dropped_domains == 0


def test_rib_signature_tracks_contents():
    rib_a = Rib()
    rib_b = Rib()
    for rib in (rib_a, rib_b):
        rib.announce(V4_PREFIXES[0], 65000)
        rib.announce(V6_PREFIXES[0], 65001)
    assert rib_a.signature() == rib_b.signature()
    annotator_a = PrefixAnnotator(rib_a, missing_fraction=0.0)
    annotator_b = PrefixAnnotator(rib_b, missing_fraction=0.0)
    assert annotator_a.signature() == annotator_b.signature()
    rib_b.announce(V4_PREFIXES[1], 65002)
    assert rib_a.signature() != rib_b.signature()
    assert annotator_a.signature() != annotator_b.signature()
    rib_b.withdraw(V4_PREFIXES[1])
    assert rib_a.signature() == rib_b.signature()
    # Differing missing fractions annotate differently even on equal RIBs.
    assert (
        PrefixAnnotator(rib_a, missing_fraction=0.0).signature()
        != PrefixAnnotator(rib_a, missing_fraction=0.5).signature()
    )


class TestEmptyVersusMissing:
    """An empty-but-present snapshot (a rotation blackout window) is a
    measurement outcome; a missing date is an error.  The two used to be
    indistinguishable — ``SnapshotSeries.at``/``delta`` raised a bare
    ``KeyError`` either way and an empty member looked like a hole."""

    def _series(self):
        return SnapshotSeries(
            [
                snap(DATE_0, [obs("a.example", [v4(0)], [v6(0)])]),
                snap(DATE_1, []),  # measured, nothing answered
                snap(DATE_2, [obs("a.example", [v4(0)], [v6(0)])]),
            ]
        )

    def test_empty_member_is_classified_not_missing(self):
        series = self._series()
        assert series.at(DATE_1).is_empty
        assert not series.at(DATE_0).is_empty
        assert series.empty_dates() == [DATE_1]
        assert DATE_1 in series

    def test_missing_date_raises_descriptive_lookup_error(self):
        series = self._series()
        missing = DATE_2 + datetime.timedelta(days=30)
        with pytest.raises(LookupError, match="no snapshot for"):
            series.at(missing)
        with pytest.raises(LookupError, match="no snapshot for"):
            series.delta(DATE_0, missing)
        with pytest.raises(LookupError, match="no snapshot for"):
            series.delta(missing, DATE_0)
        assert series.get(missing) is None
        assert series.get(DATE_1) is series.at(DATE_1)

    def test_empty_endpoint_deltas_are_full_retraction_and_readdition(self):
        series = self._series()
        into_blackout = series.delta(DATE_0, DATE_1)
        assert into_blackout.removed == ("a.example",)
        assert into_blackout.added == () and into_blackout.changed == ()
        out_of_blackout = series.delta(DATE_1, DATE_2)
        assert [o.domain for o in out_of_blackout.added] == ["a.example"]
        assert out_of_blackout.removed == ()

    def test_index_rolls_through_an_empty_snapshot(self):
        """Applying the blackout deltas lands the index exactly where a
        from-scratch build of each endpoint would."""
        annotator = make_annotator()
        series = self._series()
        index = build_index(series.at(DATE_0), annotator)
        index.apply_delta(series.delta(DATE_0, DATE_1), annotator)
        empty = build_index(series.at(DATE_1), annotator)
        assert index.content_signature() == empty.content_signature()
        index.apply_delta(series.delta(DATE_1, DATE_2), annotator)
        full = build_index(series.at(DATE_2), annotator)
        assert index.content_signature() == full.content_signature()


def _signature_by_definition(index) -> str:
    """The content signature spelt out: every prefix formatted, sorted in
    ``Prefix`` order, no carried state."""
    import hashlib

    digest = hashlib.sha256()
    for domain in sorted(index.domain_v4_prefixes):
        digest.update(domain.encode("utf-8") + b"\x00")
        for prefix in sorted(index.domain_v4_prefixes[domain]):
            digest.update(str(prefix).encode("ascii") + b";")
        digest.update(b"\x01")
        for prefix in sorted(index.domain_v6_prefixes[domain]):
            digest.update(str(prefix).encode("ascii") + b";")
        digest.update(b"\x02")
    digest.update(str(index.dropped_domains).encode("ascii"))
    return digest.hexdigest()


class TestContentSignatureCache:
    """``content_signature`` carries each prefix's text from its previous
    call; the digest must still be that of a fresh index, and the
    carried map must hold only the current content's prefixes."""

    # Each date drops prefixes the one before used and re-adds older ones.
    TABLES = [
        {"a.example": ([0, 1], [0]), "b.example": ([2], [1, 2])},
        {"a.example": ([3], [0]), "b.example": ([2], [4])},
        {"a.example": ([0, 1], [0]), "c.example": ([5, 6, 7], [5])},
        {"b.example": ([1], [1, 2])},
        {"a.example": ([0, 1], [0]), "b.example": ([2], [1, 2])},
    ]

    @staticmethod
    def _snapshot(day, table):
        return DnsSnapshot(
            DATE_0 + datetime.timedelta(days=day),
            [
                obs(domain, [v4(pool) for pool in v4_pools],
                    [v6(pool) for pool in v6_pools])
                for domain, (v4_pools, v6_pools) in table.items()
            ],
        )

    def test_delta_chain_matches_fresh_builds(self):
        annotator = make_annotator()
        snapshots = [self._snapshot(day, t) for day, t in enumerate(self.TABLES)]
        index = build_index(snapshots[0], annotator)
        assert index.content_signature() == _signature_by_definition(index)
        for older, newer in zip(snapshots, snapshots[1:]):
            index.apply_delta(older.delta_to(newer), annotator)
            fresh = build_index(newer, annotator)
            assert index.content_signature() == fresh.content_signature()
            assert index.content_signature() == _signature_by_definition(fresh)
            current = set(index.v4_domains) | set(index.v6_domains)
            assert set(index._signature_entries) == current

    def test_prefixes_sort_by_network_then_length(self):
        """A domain's prefixes keep ``Prefix`` order: by network value,
        then shortest first — not by length."""
        texts = ("20.0.0.0/16", "20.0.0.0/24", "20.1.0.0/16",
                 "2400:db::/32", "2400:db::/48", "2400:dc::/32")
        rib = Rib()
        for asn, text in enumerate(texts, start=64500):
            rib.announce(Prefix.parse(text), asn)
        annotator = PrefixAnnotator(rib, missing_fraction=0.0)
        v4_hosts = ("20.0.0.1", "20.0.1.1", "20.1.0.1")
        v6_hosts = ("2400:db::1", "2400:db:1::1", "2400:dc::1")
        index = build_index(
            DnsSnapshot(DATE_0, [obs(
                "a.example",
                [Prefix.parse(text).value for text in v4_hosts],
                [Prefix.parse(text).value for text in v6_hosts],
            )]),
            annotator,
        )
        assert len(index.domain_v4_prefixes["a.example"]) == 3
        assert len(index.domain_v6_prefixes["a.example"]) == 3
        assert index.content_signature() == _signature_by_definition(index)
        assert index.content_signature() == _signature_by_definition(index)

if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
