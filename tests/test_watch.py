"""``repro watch``: the streaming ingestion daemon.

The contract under test: feeding snapshot files through a
:class:`~repro.analysis.watch.SnapshotWatcher` produces an archive
bit-equal (pair-wise) to a batch ``detect_series`` run over the same
dates, survives kill -9 at any point with zero loss of committed
generations, replays idempotently, hot-swaps an attached query service
only when the pairs actually changed, and surfaces its loop state on
``/v1/status`` through the server's ``status_extras`` seam.

The SIGKILL-replay stress at the bottom runs the watcher in a child
process and murders it on a schedule of delays — after every kill the
archive must recover to a committed prefix of the expected series, and
a final clean run must converge to the full series.  It rides in the
blocking serving-stress CI job next to the HTTP parser properties.
"""

import datetime
import json
import pathlib
import subprocess
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_mapping, detect_each_date
from test_incremental_pipeline import (
    BASE_DATE,
    V4_POOL,
    SeriesShim,
    make_annotator,
    snapshot_from_table,
)

from repro.analysis import watch as watch_module
from repro.analysis.pipeline import archive_detection, detect_at, detect_series
from repro.cli import main
from repro.core.substrate import ColumnarSubstrate
from repro.analysis.watch import (
    MAX_PARSE_RETRIES,
    SnapshotDirectorySource,
    SnapshotWatcher,
    WatchError,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.obs.metrics import MetricsRegistry
from repro.serving.http import make_server
from repro.serving.service import SiblingQueryService
from repro.storage import substrate_io
from repro.storage.archive import ArchiveReader

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
TESTS_DIR = pathlib.Path(__file__).resolve().parent

# Four dates of hand-picked churn: growth, renumber, a quiet repeat
# (same table twice — the pairs do not change, so the watcher must
# skip the swap), then a shrink.
_TABLES = [
    {
        "a.example": ({(0, 1)}, {(0, 1)}),
        "b.example": ({(1, 2)}, {(1, 2)}),
        "c.example": ({(2, 3)}, set()),
    },
    {
        "a.example": ({(0, 1)}, {(0, 1)}),
        "b.example": ({(1, 2)}, {(1, 2)}),
        "c.example": ({(2, 3)}, {(2, 3)}),
        "d.example": ({(3, 4)}, {(3, 4)}),
    },
    {
        "a.example": ({(0, 1)}, {(0, 1)}),
        "b.example": ({(1, 2)}, {(1, 2)}),
        "c.example": ({(2, 3)}, {(2, 3)}),
        "d.example": ({(3, 4)}, {(3, 4)}),
    },
    {
        "a.example": ({(0, 9)}, {(0, 9)}),
        "d.example": ({(3, 4)}, {(3, 4)}),
    },
]


def _series():
    return [
        snapshot_from_table(BASE_DATE + datetime.timedelta(days=i), table)
        for i, table in enumerate(_TABLES)
    ]


def _expected():
    snapshots = _series()
    shim = SeriesShim(snapshots)
    return detect_series(shim, [s.date for s in snapshots])


def _archived_siblings(path):
    """date → SiblingSet for every committed generation in *path*."""
    with ArchiveReader.open(path) as reader:
        pool_names = reader.pool_names()
        return {
            date: substrate_io.load_siblings(generation, pool_names)
            for date, generation in reader.generations_by_date(
                substrate_io.SIBLINGS_KIND
            ).items()
        }


def _make_watcher(feed_dir, archive, **kwargs):
    annotator = make_annotator()
    return SnapshotWatcher(
        SnapshotDirectorySource(feed_dir),
        lambda date: annotator,
        archive,
        **kwargs,
    )


class TestSnapshotFileCodec:
    def test_round_trip(self, tmp_path):
        for snapshot in _series():
            path = write_snapshot_file(snapshot, tmp_path)
            assert path.name == f"{snapshot.date.isoformat()}.json"
            loaded = read_snapshot_file(path)
            assert loaded.date == snapshot.date
            original = {
                o.domain: (o.v4_addresses, o.v6_addresses)
                for o in snapshot.observations()
            }
            round_tripped = {
                o.domain: (o.v4_addresses, o.v6_addresses)
                for o in loaded.observations()
            }
            assert round_tripped == original
        # The atomic-write scratch files never survive.
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob(".*.tmp"))

    def test_rejects_garbage_and_bad_schema(self, tmp_path):
        bad = tmp_path / "2024-09-01.json"
        # Undecodable, nested past the decoder's recursion limit, and an
        # integer literal past the int-digit limit (a plain ValueError).
        for garbage in ("{not json", "[" * 100_000, "9" * 5_000):
            bad.write_text(garbage)
            with pytest.raises(WatchError, match="cannot read"):
                read_snapshot_file(bad)
        bad.write_text(json.dumps({"format_version": 99, "date": "2024-09-01", "observations": []}))
        with pytest.raises(WatchError, match="version"):
            read_snapshot_file(bad)
        bad.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "date": "2024-09-01",
                    "observations": [
                        {"domain": "x.example", "v4": ["2001:db8::1"], "v6": []}
                    ],
                }
            )
        )
        with pytest.raises(WatchError, match="not IPv4"):
            read_snapshot_file(bad)
        bad.write_text(json.dumps({"format_version": 1, "date": "2024-09-01"}))
        with pytest.raises(WatchError, match="malformed"):
            read_snapshot_file(bad)
        for domain in (None, "", 7, ["x.example"]):
            bad.write_text(json.dumps({
                "format_version": 1, "date": "2024-09-01",
                "observations": [{"domain": domain, "v4": ["192.0.2.9"]}],
            }))
            with pytest.raises(WatchError, match="bad domain"):
                read_snapshot_file(bad)


def _json_values():
    """Any JSON document, shallow enough to write quickly."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=12)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )


def _snapshot_shaped():
    """Snapshot-like documents: the right keys, any values under them."""
    anything = _json_values()
    # Mostly valid, so the parser often gets as far as the domains.
    v4 = st.lists(st.sampled_from(["192.0.2.9"] * 9 + ["2001:db8::9", "1.2.3"]))
    v6 = st.lists(st.sampled_from(["2001:db8::9"] * 9 + ["192.0.2.9", ""]))
    observation = st.fixed_dictionaries(
        {"domain": st.sampled_from([None, "", "x.example"]) | anything},
        optional={"v4": v4 | anything, "v6": v6 | anything},
    )
    return st.fixed_dictionaries(
        {
            "format_version": st.sampled_from([1] * 9 + [2, "1", None]),
            "date": st.sampled_from(
                ["2024-09-01"] * 9 + ["2024-13-01", "", 20240901]
            ),
            "observations": st.lists(observation, max_size=4) | anything,
        }
    )


class TestSnapshotFileFuzz:
    """Whatever bytes a snapshot file holds, :func:`read_snapshot_file`
    returns a snapshot of non-empty string domains or raises
    :class:`WatchError` — never another exception."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("snapshot-fuzz")
        valid = write_snapshot_file(_series()[1], directory).read_bytes()
        return valid, directory / "2024-09-01.json"

    @staticmethod
    def _parse_or_reject(path):
        try:
            snapshot = read_snapshot_file(path)
        except WatchError:
            return None
        for observation in snapshot.observations():
            assert isinstance(observation.domain, str) and observation.domain
        return snapshot

    @given(document=_json_values() | _snapshot_shaped())
    def test_any_json_value_is_parsed_or_rejected(self, original, document):
        _, path = original
        path.write_text(json.dumps(document))
        snapshot = self._parse_or_reject(path)
        if snapshot is not None:
            # Accepted: every domain was a non-empty string, kept verbatim.
            domains = [entry["domain"] for entry in document["observations"]]
            assert all(isinstance(domain, str) and domain for domain in domains)
            assert {o.domain for o in snapshot.observations()} == set(domains)

    @given(data=st.data())
    def test_damaged_bytes_are_parsed_or_rejected(self, original, data):
        valid, path = original
        damaged = bytearray(valid)
        if data.draw(st.booleans()):
            del damaged[data.draw(st.integers(0, len(valid) - 1)):]
        else:
            for _ in range(data.draw(st.integers(1, 4))):
                at = data.draw(st.integers(0, len(valid) - 1))
                damaged[at] ^= 1 << data.draw(st.integers(0, 7))
        path.write_bytes(bytes(damaged))
        self._parse_or_reject(path)

    @pytest.mark.parametrize("rows, domain_size", [(50_000, 9), (1, 4_000_000)])
    def test_oversized_files_are_parsed_or_rejected(self, original, rows, domain_size):
        _, path = original
        observation = {"domain": "x" * domain_size, "v4": ["192.0.2.9"]}
        path.write_text(json.dumps({
            "format_version": 1, "date": "2024-09-01",
            "observations": [observation] * rows,
        }))
        self._parse_or_reject(path)


class TestDirectorySource:
    def test_consumes_each_file_once_in_date_order(self, tmp_path):
        snapshots = _series()
        # Written newest-first: poll must still yield date order.
        for snapshot in reversed(snapshots):
            write_snapshot_file(snapshot, tmp_path)
        source = SnapshotDirectorySource(tmp_path)
        assert source.backlog() == len(snapshots)
        polled = source.poll()
        assert [s.date for s in polled] == [s.date for s in snapshots]
        assert source.poll() == []
        assert source.backlog() == 0

    def test_bad_file_retried_then_abandoned(self, tmp_path):
        bad = tmp_path / "2024-09-01.json"
        bad.write_text("{half a snapsh")
        source = SnapshotDirectorySource(tmp_path)
        for attempt in range(1, MAX_PARSE_RETRIES + 1):
            assert source.poll() == []
            assert source.errors == attempt
        # Abandoned: no further attempts, no further errors.
        assert source.poll() == []
        assert source.errors == MAX_PARSE_RETRIES
        assert source.backlog() == 0

    def test_bad_file_recovering_before_giveup_is_consumed(self, tmp_path):
        snapshot = _series()[0]
        bad = tmp_path / f"{snapshot.date.isoformat()}.json"
        bad.write_text("")
        source = SnapshotDirectorySource(tmp_path)
        assert source.poll() == []
        assert source.errors == 1
        write_snapshot_file(snapshot, tmp_path)  # the writer finished
        polled = source.poll()
        assert [s.date for s in polled] == [snapshot.date]


#: Address values for the memo property: valid IPv4 and IPv6 texts, texts
#: ``parse_address`` rejects (non-ASCII digits included) and non-string
#: JSON values, which the source never memoises.
_V4_TEXTS = ["192.0.2.9", "198.51.100.7", "203.0.113.1"]
_V6_TEXTS = ["2001:db8::9", "2001:db8::1:0", "::ffff:192.0.2.9"]
_BAD_TEXTS = ["1.2.3", "", "\u0661.2.3.4", "10.0.0.\uff11", "2001:db8::g"]
_NON_STRINGS = [7, None, True, 1.5, ["192.0.2.9"], {"v4": "192.0.2.9"}]


def _outcome(path):
    """What :func:`read_snapshot_file` alone makes of *path*."""
    try:
        return _contents(read_snapshot_file(path))
    except WatchError as exc:
        return f"WatchError: {exc}"


def _contents(snapshot):
    return snapshot.date, {
        o.domain: (o.v4_addresses, o.v6_addresses)
        for o in snapshot.observations()
    }


def _read_through_one_source(directory):
    """Poll *directory* once; each file's snapshot or ``WatchError``, in
    the order the source read them."""
    seen = []
    original = watch_module.read_snapshot_file

    def recording(path, *memo):
        try:
            snapshot = original(path, *memo)
        except WatchError as exc:
            seen.append((path.name, f"WatchError: {exc}"))
            raise
        seen.append((path.name, _contents(snapshot)))
        return snapshot

    source = SnapshotDirectorySource(directory)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(watch_module, "read_snapshot_file", recording)
        polled = source.poll()
    return seen, polled, source.errors


def _memo_file():
    """One snapshot document: usually well-formed, sometimes with any
    address value in either bucket, sometimes not JSON at all."""
    good = st.fixed_dictionaries({
        "domain": st.sampled_from(["a.example", "b.example", "c.example"]),
        "v4": st.lists(st.sampled_from(_V4_TEXTS), max_size=3),
        "v6": st.lists(st.sampled_from(_V6_TEXTS), max_size=3),
    })
    anything = st.sampled_from(_V4_TEXTS + _V6_TEXTS + _BAD_TEXTS + _NON_STRINGS)
    mixed = st.fixed_dictionaries({
        "domain": st.sampled_from(["a.example", "d.example"]),
        "v4": st.lists(anything, max_size=3),
        "v6": st.lists(anything, max_size=3),
    })
    observations = st.lists(good, max_size=4) | st.lists(good | mixed, max_size=4)
    return st.one_of(
        observations.map(lambda rows: {"observations": rows}),
        st.just(None),  # written as bytes that are not JSON
    )


class TestAddressMemo:
    """The source parses each address text once across its files: the
    texts of the last clean file are carried into the next read.  That
    changes no result — every file reads as it does alone."""

    @staticmethod
    def _write(directory, documents):
        for day, document in enumerate(documents, start=1):
            path = directory / f"2024-09-{day:02d}.json"
            if document is None:
                path.write_text('{"format_version": 1, "date": "2024-09')
                continue
            path.write_text(json.dumps({
                "format_version": 1,
                "date": f"2024-09-{day:02d}",
                **document,
            }))

    def _check(self, directory, documents):
        self._write(directory, documents)
        seen, polled, errors = _read_through_one_source(directory)
        paths = sorted(directory.glob("*.json"))
        assert [name for name, _ in seen] == [path.name for path in paths]
        for (_, got), path in zip(seen, paths):
            assert got == _outcome(path)
        good = [got for _, got in seen if not isinstance(got, str)]
        assert [_contents(snapshot) for snapshot in polled] == good
        assert errors == len(seen) - len(good)

    def test_family_check_runs_on_memo_hits(self, tmp_path):
        self._check(tmp_path, [
            {"observations": [{"domain": "a.example", "v4": ["192.0.2.9"],
                               "v6": ["2001:db8::9"]}]},
            # The IPv4 text of the last file, now in the v6 bucket.
            {"observations": [{"domain": "a.example", "v4": [],
                               "v6": ["192.0.2.9"]}]},
            {"observations": [{"domain": "a.example", "v4": ["2001:db8::9"],
                               "v6": []}]},
        ])
        outcomes = [_outcome(path) for path in sorted(tmp_path.glob("*.json"))]
        assert "is not IPv6" in outcomes[1]
        assert "is not IPv4" in outcomes[2]

    def test_bad_file_between_good_ones_keeps_the_memo(self, tmp_path):
        self._check(tmp_path, [
            {"observations": [{"domain": "a.example", "v4": ["192.0.2.9"],
                               "v6": ["2001:db8::9"]}]},
            # Parses a new text, then fails on the next one.
            {"observations": [{"domain": "a.example",
                               "v4": ["198.51.100.7", "\u0661.2.3.4"],
                               "v6": ["2001:db8::9"]}]},
            None,
            {"observations": [{"domain": "a.example", "v4": ["198.51.100.7"],
                               "v6": ["2001:db8::9"]}]},
        ])

    def test_non_string_values_are_parsed_every_time(self, tmp_path):
        self._check(tmp_path, [
            {"observations": [{"domain": "a.example", "v4": [7],
                               "v6": ["2001:db8::9"]}]},
            {"observations": [{"domain": "a.example", "v4": ["192.0.2.9"],
                               "v6": [["2001:db8::9"]]}]},
            {"observations": [{"domain": "a.example", "v4": ["192.0.2.9"],
                               "v6": ["2001:db8::9"]}]},
        ])

    @given(documents=st.lists(_memo_file(), min_size=2, max_size=6))
    def test_one_source_reads_every_file_as_alone(self, tmp_path_factory, documents):
        self._check(tmp_path_factory.mktemp("memo"), documents)


class TestWatcher:
    def test_matches_detect_series(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        registry = MetricsRegistry()
        watcher = _make_watcher(feed, archive, registry=registry)
        appended = watcher.run(once=True)
        expected = _expected()
        assert appended == len(expected)
        archived = _archived_siblings(archive)
        assert sorted(archived) == [date.isoformat() for date, _ in expected]
        for date, siblings in expected:
            assert archived[date.isoformat()].same_pairs(siblings)
        assert registry.counter("watch.generations").value == appended
        assert registry.counter("watch.snapshots").value == len(expected)

    def test_annotator_change_mid_feed_rebuilds_and_matches_oracle(
        self, tmp_path, monkeypatch
    ):
        """A routing change mid-feed takes the rebuild branch: every
        archived generation equals per-date detection, and the index is
        built in full only on the first date and on the changed one."""
        import repro.analysis.pipeline as pipeline

        snapshots = _series()
        dates = [snapshot.date for snapshot in snapshots]
        before = make_annotator()
        # A more-specific inside pool 0 re-annotates a.example's address.
        after = make_annotator(next(V4_POOL[0].subnets(25)))

        def annotator_for(date):
            return before if date < dates[2] else after

        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in snapshots:
            write_snapshot_file(snapshot, feed)
        builds = []
        real_build_index = pipeline.build_index
        monkeypatch.setattr(
            pipeline, "build_index",
            lambda snapshot, annotator: builds.append(snapshot.date)
            or real_build_index(snapshot, annotator),
        )
        archive = tmp_path / "watch.sparch"
        watcher = SnapshotWatcher(
            SnapshotDirectorySource(feed), annotator_for, archive
        )
        assert watcher.run(once=True) == len(dates)
        assert builds == [dates[0], dates[2]]

        oracle = detect_each_date(
            SeriesShim(snapshots, annotator_for_date=annotator_for), dates
        )
        archived = _archived_siblings(archive)
        assert sorted(archived) == [date.isoformat() for date in dates]
        for date, siblings in oracle:
            assert as_mapping(archived[date.isoformat()]) == as_mapping(siblings)

    def test_replay_is_idempotent(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        assert _make_watcher(feed, archive).run(once=True) == len(_TABLES)
        before = archive.read_bytes()
        # A fresh watcher (fresh source: every file is "new" again) must
        # recognise every date as already committed and append nothing.
        replay = _make_watcher(feed, archive)
        assert replay.run(once=True) == 0
        assert archive.read_bytes() == before

    def test_hot_swap_skips_unchanged_pairs(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        registry = MetricsRegistry()
        service = SiblingQueryService()
        watcher = _make_watcher(
            feed, archive, service=service, registry=registry
        )
        appended = watcher.run(once=True)
        assert appended == len(_TABLES)
        # Date 2 repeats date 1's table: same pairs, swap skipped — the
        # service's generation counts real publishes only.
        assert registry.counter("watch.swaps_skipped").value == 1
        assert service.generation == appended - 1
        last_date = BASE_DATE + datetime.timedelta(days=len(_TABLES) - 1)
        assert service.index.snapshot == last_date
        expected = dict(_expected())
        answer = service.lookup(
            str(next(iter(expected[last_date])).v4_prefix)
        )
        assert answer["found"]

    def test_restart_reserves_newest_generation(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        _make_watcher(feed, archive).run(once=True)
        # A restarted watcher re-serves the newest committed generation
        # at construction, before any poll happens.
        service = SiblingQueryService()
        empty = tmp_path / "empty"
        empty.mkdir()
        _make_watcher(empty, archive, service=service)
        assert service.generation == 1
        assert service.index.snapshot == BASE_DATE + datetime.timedelta(
            days=len(_TABLES) - 1
        )

    def test_stale_date_is_rejected_and_counted(self, tmp_path):
        archive = tmp_path / "watch.sparch"
        registry = MetricsRegistry()
        feed = tmp_path / "feed"
        feed.mkdir()
        watcher = _make_watcher(feed, archive, registry=registry)
        snapshots = _series()
        assert watcher.process(snapshots[1]) is True
        # Same date again, and an older date: both refused.
        assert watcher.process(snapshots[1]) is False
        assert watcher.process(snapshots[0]) is False
        assert registry.counter("watch.source_errors").value == 2
        assert registry.counter("watch.generations").value == 1

    def test_budget_overrun_is_observed_not_fatal(self, tmp_path):
        archive = tmp_path / "watch.sparch"
        registry = MetricsRegistry()
        feed = tmp_path / "feed"
        feed.mkdir()
        watcher = _make_watcher(
            feed, archive, budget_seconds=1e-12, registry=registry
        )
        assert watcher.process(_series()[0]) is True
        assert registry.counter("watch.budget_overruns").value == 1
        assert watcher.status()["budget_overruns"] == 1

    def test_status_surfaces_on_http(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        service = SiblingQueryService()
        watcher = _make_watcher(
            feed, archive, service=service, registry=MetricsRegistry()
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
        assert payload["watch"]["generations"] == len(_TABLES)
        assert payload["watch"]["backlog"] == 0
        assert payload["watch"]["last_date"] == (
            BASE_DATE + datetime.timedelta(days=len(_TABLES) - 1)
        ).isoformat()
        assert payload["watch"]["archive"] == str(archive)
        assert payload["worker"]["generation"] == service.generation

    def test_run_stops_on_event_and_max_generations(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        watcher = _make_watcher(feed, archive, poll_interval=0.01)
        assert watcher.run(max_generations=2) == 2
        # The already-polled remainder of the batch is buffered, not
        # dropped — the source consumed those files at poll time.
        assert watcher.status()["backlog"] == len(_TABLES) - 2
        # Resume the rest on a daemon-style run, stopped via the event.
        stop = threading.Event()
        done = {}

        def _run():
            done["appended"] = watcher.run(stop=stop)

        thread = threading.Thread(target=_run)
        thread.start()
        deadline = time.monotonic() + 10
        while watcher.generations < len(_TABLES):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert done["appended"] == len(_TABLES) - 2


class TestRunBounds:
    """Bounds the loop cannot honour are refused before any work."""

    def test_max_generations_below_one_raises(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        watcher = _make_watcher(feed, archive)
        for bound in (0, -1):
            with pytest.raises(ValueError, match="max_generations"):
                watcher.run(max_generations=bound)
        assert watcher.generations == 0
        assert _archived_siblings(archive) == {}

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-generations", "0"),
            ("--max-generations", "-3"),
            ("--poll-interval", "0"),
            ("--poll-interval", "-0.5"),
            ("--poll-interval", "nan"),
            ("--budget", "-1"),
        ],
    )
    def test_cli_rejects_bad_bounds(self, tmp_path, capsys, flag, value):
        feed = tmp_path / "feed"
        feed.mkdir()
        write_snapshot_file(_series()[0], feed)
        archive = tmp_path / "watch.sparch"
        assert main(
            ["watch", str(feed), "--archive", str(archive), "--once", flag, value]
        ) == 2
        assert f"error: {flag}" in capsys.readouterr().err
        assert not archive.exists()


class TestWatchArchiveContents:
    """A watch generation holds what a reader uses: the sibling list and
    the lookup index, no columnar state."""

    def test_generations_carry_no_state(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        assert _make_watcher(feed, archive).run(once=True) == len(_TABLES)
        with ArchiveReader.open(archive) as reader:
            assert len(reader.generations) == len(_TABLES)
            for generation in reader.generations:
                assert substrate_io.STATE_KIND not in generation.meta
                assert substrate_io.SIBLINGS_KIND in generation.meta
                assert "index" in generation.meta
                assert generation.index_signature is None

    def test_detect_series_extends_a_watch_archive(self, tmp_path, monkeypatch):
        """``detect_series`` over a watcher's archive loads the watched
        dates, finds no state to resume from, starts a fresh roll on the
        first new date, and equals per-date detection."""
        import repro.analysis.pipeline as pipeline

        snapshots = _series()
        dates = [snapshot.date for snapshot in snapshots]
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in snapshots[:2]:
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        assert _make_watcher(feed, archive).run(once=True) == 2

        def no_restore(*args, **kwargs):
            raise AssertionError("a watch archive has no state to restore")

        builds = []
        real_build_index = pipeline.build_index
        monkeypatch.setattr(substrate_io, "restore_state", no_restore)
        monkeypatch.setattr(
            pipeline, "build_index",
            lambda snapshot, annotator: builds.append(snapshot.date)
            or real_build_index(snapshot, annotator),
        )
        universe = SeriesShim(snapshots)
        extended = detect_series(
            universe, dates, substrate=ColumnarSubstrate(), archive=archive
        )
        assert builds == [dates[2]]
        oracle = detect_each_date(universe, dates)
        assert [date for date, _ in extended] == dates
        for (date, want), (_, got) in zip(oracle, extended):
            assert as_mapping(got) == as_mapping(want), date
        with ArchiveReader.open(archive) as reader:
            assert [g.date for g in reader.generations] == [
                date.isoformat() for date in dates
            ]
            # detect-series still archives state for its final date.
            assert substrate_io.STATE_KIND in reader.generations[-1].meta
            assert reader.verify() > 0

    def test_watcher_resumes_an_archive_with_state(self, tmp_path):
        """An archive whose newest generation carries state (as every
        archive a watcher wrote before did) is skipped past and appended
        to as usual."""
        snapshots = _series()
        universe = SeriesShim(snapshots)
        first = snapshots[0].date
        siblings, index = detect_at(universe, first, substrate=ColumnarSubstrate())
        archive = tmp_path / "watch.sparch"
        archive_detection(
            archive, universe, first, siblings, index=index,
            substrate=ColumnarSubstrate(),
        )
        with ArchiveReader.open(archive) as reader:
            assert substrate_io.STATE_KIND in reader.generations[-1].meta
            assert reader.generations[-1].index_signature is not None

        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in snapshots:
            write_snapshot_file(snapshot, feed)
        registry = MetricsRegistry()
        watcher = _make_watcher(feed, archive, registry=registry)
        assert watcher.generations == 1
        assert watcher.run(once=True) == len(_TABLES) - 1
        assert registry.counter("watch.snapshots").value == len(_TABLES)
        expected = _expected()
        archived = _archived_siblings(archive)
        assert sorted(archived) == [date.isoformat() for date, _ in expected]
        for date, want in expected:
            assert archived[date.isoformat()].same_pairs(want)
        with ArchiveReader.open(archive) as reader:
            assert [g.date for g in reader.generations] == sorted(archived)
            assert [
                substrate_io.STATE_KIND in g.meta for g in reader.generations
            ] == [True] + [False] * (len(_TABLES) - 1)


# -- SIGKILL replay stress ----------------------------------------------------

_WATCH_CHILD = """
import sys

src, tests, feed, archive = sys.argv[1:5]
sys.path.insert(0, src)
sys.path.insert(0, tests)

from test_incremental_pipeline import make_annotator

from repro.analysis.watch import SnapshotDirectorySource, SnapshotWatcher

annotator = make_annotator()
watcher = SnapshotWatcher(
    SnapshotDirectorySource(feed), lambda date: annotator, archive
)
watcher.run(once=True)
print("DONE", watcher.generations, flush=True)
"""


def _run_watch_child(feed, archive, kill_after=None):
    """Run the watcher child; kill -9 it after *kill_after* seconds
    (None = let it finish).  Returns the completed process, or None if
    it was killed."""
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            _WATCH_CHILD,
            str(SRC_DIR),
            str(TESTS_DIR),
            str(feed),
            str(archive),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if kill_after is None:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        assert "DONE" in stdout
        return child
    try:
        child.wait(timeout=kill_after)
        # Finished before the axe fell: also a valid schedule point.
        return child
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait(timeout=30)
        return None


class TestSigkillReplay:
    """Kill the watch daemon on a schedule; committed state never rots."""

    def test_killed_watcher_replays_to_convergence(self, tmp_path):
        feed = tmp_path / "feed"
        feed.mkdir()
        for snapshot in _series():
            write_snapshot_file(snapshot, feed)
        archive = tmp_path / "watch.sparch"
        expected = _expected()
        expected_dates = [date.isoformat() for date, _ in expected]
        by_date = {date.isoformat(): s for date, s in expected}

        # Escalating delays: early kills land mid-import or mid-build,
        # later ones mid-append or post-commit (or after a fast child
        # already finished — also a valid schedule point).
        for delay in (0.1, 0.25, 0.4, 0.55, 0.7, 0.9):
            _run_watch_child(feed, archive, kill_after=delay)
            if not archive.exists():
                continue
            # Whatever committed must be a correct prefix of the series.
            archived = _archived_siblings(archive)
            dates = sorted(archived)
            assert dates == expected_dates[: len(dates)]
            for date in dates:
                assert archived[date].same_pairs(by_date[date])

        # A final clean run converges to the full series, and the
        # archive strict-opens (no torn tail survives).
        _run_watch_child(feed, archive, kill_after=None)
        archived = _archived_siblings(archive)
        assert sorted(archived) == expected_dates
        for date in expected_dates:
            assert archived[date].same_pairs(by_date[date])
        with ArchiveReader.open(archive) as reader:
            assert not reader.recovered
            assert reader.verify() > 0
        # And the recovered archive serves.
        service = SiblingQueryService.from_archive(archive)
        assert service.index.snapshot.isoformat() == expected_dates[-1]
