"""The scripted event engine: exact truth, determinism, and the daemon.

Three layers of contract:

* **Event semantics** — each scripted event (rollout waves, renumber
  waves, privacy rotation with blackout windows, the aliased-prefix
  trap, org merges/splits) produces exactly the snapshots and ledger
  entries its docstring promises, and two engines built from the same
  script are bit-identical (private address plan, constant RIB).
* **Property tests** — for *random* event scripts, the rolling
  ``detect_series`` stays pair-identical to per-date detection, and the
  ledger invariants hold: no pair is both added and retracted by the
  same change, visible truth is a subset of full truth, and renumbering
  never changes org-level truth.
* **The watch daemon** — an event-scripted directory feed with rotation
  events landing mid-watch: archive generations, ``/v1/status``, and
  the ``same_pairs`` swap-skip count all match the scripted timeline.
"""

import json
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_mapping, detect_each_date

from repro.analysis.pipeline import detect_series
from repro.analysis.quality import score_series
from repro.analysis.watch import (
    SnapshotDirectorySource,
    SnapshotWatcher,
    write_snapshot_file,
)
from repro.obs.metrics import MetricsRegistry
from repro.serving.http import make_server
from repro.serving.service import SiblingQueryService
from repro.synth.events import (
    AliasedCluster,
    DualStackRollout,
    EventScript,
    EventUniverse,
    OrgMerge,
    OrgSplit,
    PrefixRotation,
    RenumberWave,
    build_event_universe,
    event_scenario,
)
from repro.synth.scenarios import scenario
from repro.synth.topology import build_population

#: One shared population — the engine only reads org ids/ASNs from it,
#: and a private AddressPlan per engine keeps instances independent.
POPULATION = build_population(scenario("tiny"))


def _universe(events, **kwargs):
    defaults = dict(n_dates=6, n_deployments=8, domains_per_deployment=2)
    defaults.update(kwargs)
    script = EventScript(name="t", events=tuple(events), **defaults)
    return EventUniverse(script, base=POPULATION)


def _detected_keys(universe):
    return {
        date: {pair.key for pair in siblings}
        for date, siblings in detect_series(universe, universe.dates)
    }


class TestEventSemantics:
    def test_engine_is_deterministic(self):
        script = event_scenario("mixed")
        a = EventUniverse(script, base=POPULATION)
        b = EventUniverse(script, base=POPULATION)
        for date in a.dates:
            left = {
                o.domain: (o.v4_addresses, o.v6_addresses)
                for o in a.snapshot_at(date).observations()
            }
            right = {
                o.domain: (o.v4_addresses, o.v6_addresses)
                for o in b.snapshot_at(date).observations()
            }
            assert left == right
            assert a.ledger.keys_at(date) == b.ledger.keys_at(date)

    def test_annotator_signature_is_constant(self):
        """The whole point of the up-front RIB: the delta path is
        never gated off by a signature change."""
        universe = build_event_universe("mixed")
        signatures = {
            universe.annotator_at(date).signature() for date in universe.dates
        }
        assert len(signatures) == 1

    def test_rollout_waves_grow_visible_truth(self):
        universe = _universe(
            [DualStackRollout(waves=3, start_index=1, interval=1)]
        )
        visible = [
            len(universe.ledger.visible_truth_at(date))
            for date in universe.dates
        ]
        assert visible[0] == 0
        assert visible == sorted(visible)
        assert visible[-1] == 8
        # Full (org-level) truth is there from date 0 — the v6 block is
        # provisioned, just not yet detectable.
        assert len(universe.ledger.truth_at(universe.dates[0])) == 8

    def test_renumber_moves_pairs_but_not_org_truth(self):
        universe = _universe([RenumberWave(at_index=3, fraction=1.0)])
        dates = universe.dates
        before = universe.ledger.keys_at(dates[2])
        after = universe.ledger.keys_at(dates[3])
        assert before.isdisjoint(after)  # both families moved
        org_views = {universe.ledger.org_truth_at(d) for d in dates}
        assert len(org_views) == 1
        # Detection tracks the move on the same date.
        detected = _detected_keys(universe)
        assert detected[dates[2]] == before
        assert detected[dates[3]] == after

    def test_rotation_cycles_v6_only(self):
        universe = _universe(
            [PrefixRotation(period=2, jitter=0, fraction=1.0, ring=3)]
        )
        dates = universe.dates
        v4_sides = {
            frozenset(k[0] for k in universe.ledger.keys_at(d)) for d in dates
        }
        assert len(v4_sides) == 1  # v4 never rotates
        v6_of_first = [
            sorted(universe.ledger.truth_at(d), key=lambda p: p.deployment_id)[
                0
            ].v6_prefix
            for d in dates
        ]
        # period=2 over 6 dates: block changes at t=2 and t=4.
        assert v6_of_first[0] == v6_of_first[1]
        assert v6_of_first[2] == v6_of_first[3] != v6_of_first[0]
        assert v6_of_first[4] == v6_of_first[5] != v6_of_first[2]

    def test_rotation_blackout_empties_the_snapshot(self):
        """fraction=1.0 blackout: every deployment drops out on rotation
        dates — an *empty-but-present* snapshot, not a missing date."""
        universe = _universe(
            [PrefixRotation(period=2, jitter=0, fraction=1.0, ring=3,
                            blackout=True)]
        )
        dates = universe.dates
        series = universe.series()
        assert series.at(dates[2]).is_empty
        assert series.empty_dates() == [dates[2], dates[4]]
        assert not universe.ledger.visible_truth_at(dates[2])
        # Truth persists organizationally through the blackout.
        assert len(universe.ledger.truth_at(dates[2])) == 8
        # Recall is never charged for the blackout window.
        results = detect_series(universe, dates)
        score = score_series(results, universe.ledger)
        assert score.recall == 1.0 and score.precision == 1.0

    def test_aliased_cluster_is_registered_trap(self):
        universe = _universe([AliasedCluster(at_index=1, fraction=0.5)])
        trap = universe.aliased_prefix
        assert trap is not None
        assert universe.ledger.is_trap(trap)
        results = detect_series(universe, universe.dates)
        score = score_series(results, universe.ledger)
        fp = sum(s.false_positives for s in score.dates)
        trap_fp = sum(s.trap_positives for s in score.dates)
        assert fp > 0 and fp == trap_fp
        assert score.recall == 1.0

    def test_hijack_mode_makes_truth_invisible(self):
        universe = _universe(
            [AliasedCluster(at_index=2, fraction=1.0, mode="hijack")]
        )
        dates = universe.dates
        assert len(universe.ledger.visible_truth_at(dates[1])) == 8
        assert not universe.ledger.visible_truth_at(dates[2])
        results = detect_series(universe, dates)
        score = score_series(results, universe.ledger)
        # Everything detected after the hijack is a trap hit; recall is
        # not charged (the true pairs are invisible truth).
        assert score.recall == 1.0
        assert score.non_trap_precision == 1.0

    def test_org_merge_and_split_touch_attribution_only(self):
        universe = _universe(
            [OrgMerge(at_index=2, fraction=1.0), OrgSplit(at_index=4,
                                                          fraction=1.0)]
        )
        dates = universe.dates
        keys = {universe.ledger.keys_at(d) for d in dates}
        assert len(keys) == 1  # pair truth never moves
        merged = {org for org, _ in universe.ledger.org_truth_at(dates[2])}
        assert len(merged) == 1
        split = {org for org, _ in universe.ledger.org_truth_at(dates[4])}
        assert len(split) == 8  # every deployment spun out

    def test_missing_snapshot_date_raises_lookup_error(self):
        universe = _universe([])
        import datetime

        with pytest.raises(LookupError):
            universe.snapshot_at(datetime.date(1999, 1, 1))

    def test_scaled_script_multiplies_cast(self):
        script = event_scenario("rollout").scaled(3)
        assert script.n_deployments == 72
        with pytest.raises(ValueError):
            script.scaled(0)


# -- property tests -----------------------------------------------------------

_EVENTS = st.one_of(
    st.builds(
        DualStackRollout,
        waves=st.integers(1, 3),
        start_index=st.integers(1, 3),
        interval=st.integers(1, 2),
        fraction=st.sampled_from([0.5, 1.0]),
    ),
    st.builds(
        RenumberWave,
        at_index=st.integers(1, 4),
        fraction=st.sampled_from([0.4, 1.0]),
        families=st.sampled_from([(4,), (6,), (4, 6)]),
    ),
    st.builds(
        PrefixRotation,
        period=st.integers(1, 3),
        jitter=st.integers(0, 2),
        fraction=st.sampled_from([0.4, 1.0]),
        ring=st.integers(2, 3),
        blackout=st.booleans(),
    ),
    st.builds(
        AliasedCluster,
        at_index=st.integers(1, 3),
        fraction=st.sampled_from([0.3, 0.6]),
        mode=st.sampled_from(["additive", "hijack"]),
    ),
    st.builds(OrgMerge, at_index=st.integers(1, 4)),
    st.builds(OrgSplit, at_index=st.integers(1, 4)),
)


@st.composite
def _scripts(draw):
    events = draw(st.lists(_EVENTS, max_size=3))
    # The engine allows at most one aliased cluster per script.
    aliased = [e for e in events if isinstance(e, AliasedCluster)]
    for extra in aliased[1:]:
        events.remove(extra)
    return EventScript(
        name="prop",
        events=tuple(events),
        n_dates=draw(st.integers(3, 6)),
        n_deployments=draw(st.integers(4, 9)),
        domains_per_deployment=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestScriptProperties:
    @settings(max_examples=25)
    @given(script=_scripts())
    def test_incremental_matches_full_recompute(self, script):
        universe = EventUniverse(script, base=POPULATION)
        full = detect_each_date(universe, universe.dates)
        fresh = EventUniverse(script, base=POPULATION)
        incremental = detect_series(fresh, fresh.dates)
        assert [d for d, _ in full] == [d for d, _ in incremental]
        for (_, a), (_, b) in zip(full, incremental):
            assert as_mapping(a) == as_mapping(b)

    @settings(max_examples=50)
    @given(script=_scripts())
    def test_ledger_invariants(self, script):
        universe = EventUniverse(script, base=POPULATION)
        ledger = universe.ledger
        for change in ledger.changes():
            assert not (change.added & change.retracted), (
                "a pair cannot be both added and retracted by one change"
            )
        for date in universe.dates:
            truth_keys = ledger.keys_at(date)
            assert ledger.visible_keys_at(date) <= truth_keys
            # One truth relation per deployment per date.
            assert len(ledger.truth_at(date)) == script.n_deployments
        if not any(
            isinstance(e, (OrgMerge, OrgSplit)) for e in script.events
        ):
            # Renumbering/rotation move networks, never org truth.
            views = {ledger.org_truth_at(d) for d in universe.dates}
            assert len(views) == 1


# -- the watch daemon on an event-scripted feed -------------------------------

class TestEventScriptedWatch:
    #: period=2, jitter=0, fraction=1.0: every deployment rotates at
    #: t=2 and t=4; the odd dates repeat the previous pairs exactly, so
    #: the watcher must skip those hot-swaps.
    SCRIPT = EventScript(
        name="watchrot",
        events=(PrefixRotation(period=2, jitter=0, fraction=1.0, ring=3),),
        n_dates=6,
        n_deployments=6,
        domains_per_deployment=2,
    )

    def _expected(self, universe):
        fresh = EventUniverse(self.SCRIPT, base=POPULATION)
        return detect_series(fresh, fresh.dates)

    def test_rotation_mid_watch_matches_scripted_timeline(self, tmp_path):
        universe = EventUniverse(self.SCRIPT, base=POPULATION)
        dates = universe.dates
        feed = tmp_path / "feed"
        feed.mkdir()
        archive = tmp_path / "events.sparch"
        registry = MetricsRegistry()
        service = SiblingQueryService()
        watcher = SnapshotWatcher(
            SnapshotDirectorySource(feed),
            universe.annotator_at,
            archive,
            service=service,
            registry=registry,
        )
        # Phase 1: the pre-rotation prefix of the series.
        for date in dates[:2]:
            write_snapshot_file(universe.snapshot_at(date), feed)
        assert watcher.run(once=True) == 2
        # t=1 repeats t=0's pairs (no rotation yet): one skipped swap.
        assert registry.counter("watch.swaps_skipped").value == 1
        assert service.generation == 1

        # Phase 2: rotation events land mid-watch.
        for date in dates[2:]:
            write_snapshot_file(universe.snapshot_at(date), feed)
        assert watcher.run(once=True) == 4
        # Scripted timeline: swaps at t=2 and t=4 (rotations), skips at
        # t=1, t=3, t=5 — three skipped of six generations.
        assert registry.counter("watch.swaps_skipped").value == 3
        assert registry.counter("watch.generations").value == 6
        assert service.generation == 3  # t0 + two rotations

        # The archive holds every generation, bit-equal to the batch
        # detect_series over the same script.
        from repro.storage import substrate_io
        from repro.storage.archive import ArchiveReader

        with ArchiveReader.open(archive) as reader:
            pool_names = reader.pool_names()
            archived = {
                date: substrate_io.load_siblings(generation, pool_names)
                for date, generation in reader.generations_by_date(
                    substrate_io.SIBLINGS_KIND
                ).items()
            }
        expected = self._expected(universe)
        assert sorted(archived) == [d.isoformat() for d, _ in expected]
        for date, siblings in expected:
            assert archived[date.isoformat()].same_pairs(siblings)

        # Scoring the archived generations against the ledger: exact.
        results = [
            (date, archived[date.isoformat()]) for date in dates
        ]
        score = score_series(results, universe.ledger)
        assert score.precision == 1.0 and score.recall == 1.0
        assert score.churn.unreflected == 0 and score.churn.max_lag == 0

    def test_status_endpoint_reflects_event_feed(self, tmp_path):
        universe = EventUniverse(self.SCRIPT, base=POPULATION)
        dates = universe.dates
        feed = tmp_path / "feed"
        feed.mkdir()
        for date in dates:
            write_snapshot_file(universe.snapshot_at(date), feed)
        archive = tmp_path / "events.sparch"
        service = SiblingQueryService()
        watcher = SnapshotWatcher(
            SnapshotDirectorySource(feed),
            universe.annotator_at,
            archive,
            service=service,
            registry=MetricsRegistry(),
        )
        watcher.run(once=True)
        with make_server(service, port=0) as server:
            server.status_extras["watch"] = watcher.status
            server.start()
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/status", timeout=5
            ) as response:
                payload = json.load(response)
        assert payload["watch"]["generations"] == len(dates)
        assert payload["watch"]["backlog"] == 0
        assert payload["watch"]["last_date"] == dates[-1].isoformat()
        assert payload["watch"]["swaps_skipped"] == 3
