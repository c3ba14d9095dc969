"""The snapshot archive must be an exact, corruption-rejecting mirror.

Three invariant families:

* **Round-trip exactness** — an archive write → ``mmap`` attach
  reproduces bit-identical answers: the mapped
  :class:`~repro.storage.index_io.MappedSiblingIndex` agrees with the
  in-memory index (and the scan oracle) on every query shape, and
  ``detect_series(..., archive=...)`` returns the same per-date output
  as an archiveless run for all three engines — including a run that
  *resumes* from archived columnar state and continues via appended
  snapshot deltas (hypothesis-driven churn series).
* **Format robustness** — truncation, bit flips, bad magic, and future
  versions raise :class:`~repro.storage.format.ArchiveFormatError`; a
  hypothesis fuzzer flips, overwrites and truncates bytes of a small
  archive and accepts only that error or the original answers; an
  aborted append leaves every committed generation readable.
* **Serving integration** — ``SiblingQueryService.from_archive`` /
  ``swap_from_archive`` answer exactly like the in-memory service.
"""

import array
import datetime
import json
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_mapping, detect_each_date
from test_incremental_pipeline import (
    BASE_DATE,
    SeriesShim,
    churn_series,
    snapshot_from_table,
)

from repro.analysis.pipeline import archive_detection, detect_series
from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.core.substrate import ColumnarSubstrate, get_substrate
from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import format_address
from repro.nettypes.prefix import Prefix
from repro.publish import PublishedPair
from repro.serving.index import SiblingLookupIndex, scan_lookup
from repro.serving.service import SiblingQueryService
from repro.storage.archive import ArchiveReader, ArchiveWriter
from repro.storage.format import (
    FOOTER,
    HEADER,
    ArchiveFormatError,
    align_up,
    crc32_view,
)
from repro.storage.index_io import append_index, load_mapped_index
from repro.storage.substrate_io import STATE_KIND, annotator_digest, restore_state

SNAPSHOT = datetime.date(2024, 9, 11)


def archive_pairs(path, pairs, date=SNAPSHOT):
    """Compile *pairs* and append them to the archive at *path* as one
    generation; returns the in-memory index."""
    index = SiblingLookupIndex.from_pairs(pairs, date)
    append_index(path, index)
    return index


def make_pairs(count: int, seed: int = 11, wide: bool = False):
    """Deterministic published pairs: nested lengths, ROV/org variety,
    optionally IPv6 groups beyond /64 (the wide-key segment)."""
    rng = random.Random(seed)
    rov_states = (None, "both-valid", "v4-only", "invalid")
    pairs = {}
    while len(pairs) < count:
        v4_len = rng.choice((16, 20, 24, 28))
        v6_len = rng.choice((96, 112, 128) if wide else (32, 40, 48, 64))
        v4 = Prefix.from_address(4, rng.getrandbits(32) | (1 << 31), v4_len)
        v6 = Prefix.from_address(
            6, (0x2001 << 112) | rng.getrandbits(100), v6_len
        )
        pairs[(v4, v6)] = PublishedPair(
            v4_prefix=v4,
            v6_prefix=v6,
            jaccard=rng.random(),
            shared_domains=rng.randrange(1, 50),
            v4_domains=rng.randrange(1, 60),
            v6_domains=rng.randrange(1, 60),
            same_org=rng.choice((None, True, False)),
            rov_status=rng.choice(rov_states),
        )
    return list(pairs.values())


def tri_state_pairs():
    """Every ``same_org`` state with no ROV status, plus one with one."""
    states = ((None, None), (True, None), (False, None), (False, "both-valid"))
    return [
        PublishedPair(
            Prefix.parse(f"192.0.{slot}.0/24"),
            Prefix.parse(f"2001:db8:{slot}::/48"),
            1 / 3, 1, 2, 2, same_org, rov,
        )
        for slot, (same_org, rov) in enumerate(states)
    ]


#: Inputs of the mapped round-trip test, by test id.
ROUND_TRIP_INPUTS = {
    "le64": lambda: make_pairs(120),
    "wide": lambda: make_pairs(120, wide=True),
    "tri_state": tri_state_pairs,
    "empty": list,
}


def queries_for(index, count, seed=3):
    """Hit-biased address/prefix query strings for both families."""
    rng = random.Random(seed)
    stored = [
        prefix
        for pair in index.pairs
        for prefix in (pair.v4_prefix, pair.v6_prefix)
    ]
    queries = []
    for _ in range(count):
        roll = rng.random()
        if stored and roll < 0.6:
            base = rng.choice(stored)
            value = base.value | rng.getrandbits(base.host_bits)
            queries.append(format_address(base.version, value))
        elif stored and roll < 0.8:
            base = rng.choice(stored)
            queries.append(str(base))
        else:
            version = rng.choice((4, 6))
            queries.append(
                format_address(version, rng.getrandbits(32 if version == 4 else 128))
            )
    return queries


def assert_same_answers(mapped, memory, queries):
    """Every query shape must agree between the two indexes."""
    for query in queries:
        got, want = mapped.lookup(query), memory.lookup(query)
        assert (got is None) == (want is None), query
        if got is not None:
            assert got.matched == want.matched, query
            assert got.pairs == want.pairs, query
        got_cover = mapped.covering(query)
        want_cover = memory.covering(query)
        assert [r.matched for r in got_cover] == [r.matched for r in want_cover]
        assert [r.pairs for r in got_cover] == [r.pairs for r in want_cover]
    assert [r and r.matched for r in mapped.batch(queries)] == [
        r and r.matched for r in memory.batch(queries)
    ]


class TestMappedIndexRoundTrip:
    @pytest.mark.parametrize("inputs", ROUND_TRIP_INPUTS)
    def test_bit_identical_answers(self, tmp_path, inputs):
        pairs = ROUND_TRIP_INPUTS[inputs]()
        path = tmp_path / "pairs.sparch"
        memory = archive_pairs(path, pairs)
        assert len(memory) == len(pairs)
        mapped = load_mapped_index(path)
        try:
            assert mapped.snapshot == memory.snapshot
            assert len(mapped) == len(memory)
            assert tuple(mapped.pairs) == memory.pairs
            assert mapped.stats() == memory.stats()
            queries = queries_for(memory, 400)
            assert_same_answers(mapped, memory, queries)
            # The scan oracle on a sample (it is O(pairs) per query).
            for query in queries[:40]:
                got = mapped.lookup(query)
                want = scan_lookup(pairs, query)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.matched == want.matched
        finally:
            mapped.close()

    def test_lookup_address_fast_path(self, tmp_path):
        pairs = make_pairs(40)
        path = tmp_path / "pairs.sparch"
        memory = archive_pairs(path, pairs)
        mapped = load_mapped_index(path)
        try:
            rng = random.Random(5)
            for _ in range(200):
                pair = rng.choice(pairs)
                for prefix in (pair.v4_prefix, pair.v6_prefix):
                    value = prefix.value | rng.getrandbits(prefix.host_bits)
                    got = mapped.lookup_address(prefix.version, value)
                    want = memory.lookup_address(prefix.version, value)
                    assert got is not None and want is not None
                    assert got.matched == want.matched
                    assert got.pairs == want.pairs
        finally:
            mapped.close()

    def test_newest_generation_wins(self, tmp_path):
        path = tmp_path / "multi.sparch"
        first = make_pairs(30, seed=1)
        second = make_pairs(45, seed=2)
        archive_pairs(path, first, datetime.date(2024, 9, 10))
        newest = archive_pairs(path, second)
        mapped = load_mapped_index(path)
        try:
            assert mapped.snapshot == SNAPSHOT
            assert tuple(mapped.pairs) == newest.pairs
        finally:
            mapped.close()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_mapped_equals_memory(self, data, tmp_path_factory):
        count = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 2**16))
        wide = data.draw(st.booleans())
        pairs = make_pairs(count, seed=seed, wide=wide)
        path = tmp_path_factory.mktemp("prop") / "p.sparch"
        memory = archive_pairs(path, pairs)
        mapped = load_mapped_index(path)
        try:
            assert_same_answers(
                mapped, memory, queries_for(memory, 60, seed=seed)
            )
        finally:
            mapped.close()


class TestArchivedSeries:
    DATES = [REFERENCE_DATE - datetime.timedelta(days=d) for d in (3, 2, 1, 0)]

    @pytest.mark.parametrize("engine_name", ("reference", "columnar"))
    def test_series_round_trip_all_engines(
        self, tiny_universe, tmp_path, engine_name
    ):
        """Archive write → reload reproduces identical per-date output."""
        path = tmp_path / f"{engine_name}.sparch"
        fresh = {
            "reference": get_substrate("reference"),
            "columnar": ColumnarSubstrate(),
        }
        plain = detect_each_date(
            tiny_universe, self.DATES, substrate=fresh[engine_name]
        )
        first = detect_series(
            tiny_universe, self.DATES, substrate=engine_name, archive=path,
        )
        # Second run answers entirely from the archive.
        replay = detect_series(
            tiny_universe, self.DATES, substrate=engine_name, archive=path,
        )
        for (date, want), (_, got1), (_, got2) in zip(plain, first, replay):
            assert as_mapping(want) == as_mapping(got1), (engine_name, date)
            assert as_mapping(want) == as_mapping(got2), (engine_name, date)

    def test_resume_appends_delta_generation(self, tiny_universe, tmp_path, monkeypatch):
        """Extending an archived series resumes from the archived state
        (one index rebuild, zero re-detections) and stays bit-identical."""
        import repro.analysis.pipeline as pipeline

        path = tmp_path / "resume.sparch"
        detect_series(
            tiny_universe, self.DATES[:2], substrate=ColumnarSubstrate(),
            archive=path,
        )

        builds = []
        real_build_index = pipeline.build_index
        monkeypatch.setattr(
            pipeline, "build_index",
            lambda *a, **k: builds.append(1) or real_build_index(*a, **k),
        )
        resumed = detect_series(
            tiny_universe, self.DATES, substrate=ColumnarSubstrate(),
            archive=path,
        )
        # Exactly one build: the resume-date index; archived dates load,
        # later dates ride deltas on the restored state.
        assert builds == [1]

        plain = detect_each_date(
            tiny_universe, self.DATES, substrate=ColumnarSubstrate()
        )
        for (date, want), (_, got) in zip(plain, resumed):
            assert as_mapping(want) == as_mapping(got), date

        with ArchiveReader.open(path) as reader:
            dates = [g.date for g in reader.generations]
            assert dates == [d.isoformat() for d in self.DATES]
            # state travels with the newest generation only
            assert "state" in reader.generations[-1].meta
            assert reader.verify() > 0

    def test_resume_skips_build_when_routing_changes_next(
        self, tiny_universe, tmp_path, monkeypatch
    ):
        """Extending the stock paper grid from its first five dates: the
        routing changes right after the resume date, so the resume date's
        index is never built or restored, and only the three dates whose
        routing changed are built."""
        import repro.analysis.pipeline as pipeline

        dates = [date for _, date in pipeline.paper_offsets(REFERENCE_DATE)]
        path = tmp_path / "paper.sparch"
        detect_series(
            tiny_universe, dates[:5], substrate=ColumnarSubstrate(),
            archive=path,
        )

        built = []
        real_build_index = pipeline.build_index

        def counting_build_index(snapshot, annotator):
            built.append(snapshot.date)
            return real_build_index(snapshot, annotator)

        monkeypatch.setattr(pipeline, "build_index", counting_build_index)
        resumed = detect_series(
            tiny_universe, dates, substrate=ColumnarSubstrate(), archive=path,
        )
        assert built == [
            datetime.date(2024, 6, 11),
            datetime.date(2024, 8, 11),
            datetime.date(2024, 9, 4),
        ]

        plain = detect_each_date(
            tiny_universe, dates, substrate=ColumnarSubstrate()
        )
        assert [d for d, _ in resumed] == dates
        for (date, want), (_, got) in zip(plain, resumed):
            assert as_mapping(want) == as_mapping(got), date

    @settings(max_examples=15, deadline=None)
    @given(tables=churn_series())
    def test_property_archived_resume_equals_full(self, tables, tmp_path_factory):
        """Randomized churn: archive first half, resume the rest —
        per-date output equals full archiveless recomputation."""
        dates = [
            BASE_DATE + datetime.timedelta(days=i) for i in range(len(tables))
        ]
        shim = SeriesShim(
            [snapshot_from_table(date, table) for date, table in zip(dates, tables)]
        )
        path = tmp_path_factory.mktemp("churn") / "series.sparch"
        split = max(1, len(dates) // 2)
        detect_series(
            shim, dates[:split], substrate=ColumnarSubstrate(), archive=path,
        )
        resumed = detect_series(
            shim, dates, substrate=ColumnarSubstrate(), archive=path,
        )
        full = detect_each_date(shim, dates, substrate=ColumnarSubstrate())
        assert [d for d, _ in resumed] == dates
        for (date, want), (_, got) in zip(full, resumed):
            assert as_mapping(want) == as_mapping(got), date

    def test_tuned_lists_are_not_replayed(self, tiny_universe, tmp_path):
        """A generation archived with raw=False never short-circuits
        detection: the series recomputes instead of replaying it."""
        from repro.core.detection import detect_with_index
        from repro.core.siblings import SiblingSet

        date = self.DATES[0]
        siblings, index = detect_with_index(
            tiny_universe.snapshot_at(date), tiny_universe.annotator_at(date)
        )
        truncated = SiblingSet(date, list(siblings)[:3])
        path = tmp_path / "tuned.sparch"
        archive_detection(
            path, tiny_universe, date, truncated, index=index, raw=False
        )
        results = detect_series(
            tiny_universe, [date], substrate=ColumnarSubstrate(), archive=path
        )
        assert as_mapping(results[0][1]) == as_mapping(siblings)

    def test_annotator_change_invalidates_archive(self, tmp_path):
        """An archived date whose routing changed is recomputed."""
        table = {
            "a.example": ({(0, 1)}, {(0, 1)}),
            "b.example": ({(1, 2)}, {(1, 2)}),
        }
        dates = [BASE_DATE, BASE_DATE + datetime.timedelta(days=1)]
        snapshots = [snapshot_from_table(date, table) for date in dates]
        path = tmp_path / "rib.sparch"
        shim = SeriesShim(snapshots)
        detect_series(shim, dates, substrate=ColumnarSubstrate(), archive=path)

        from test_incremental_pipeline import make_annotator

        changed = SeriesShim(
            snapshots,
            annotator_for_date=lambda date: make_annotator(
                Prefix.parse("198.51.100.0/24")
            ),
        )
        recomputed = detect_series(
            changed, dates, substrate=ColumnarSubstrate(), archive=path,
        )
        plain = detect_each_date(changed, dates, substrate=ColumnarSubstrate())
        for (date, want), (_, got) in zip(plain, recomputed):
            assert as_mapping(want) == as_mapping(got), date

        # The archive must *heal*: the recomputed generations are
        # appended (newest wins on read), so a further run replays them
        # from the archive instead of re-detecting forever.
        new_digest = annotator_digest(changed.annotator_at(dates[0]))
        with ArchiveReader.open(path) as reader:
            newest = reader.generations_by_date("siblings")
            for date in dates:
                assert (
                    newest[date.isoformat()].annotator_signature == new_digest
                ), f"stale generation still newest for {date}"
        replayed = detect_series(
            changed, dates, substrate=ColumnarSubstrate(), archive=path,
        )
        for (date, want), (_, got) in zip(plain, replayed):
            assert as_mapping(want) == as_mapping(got), date


@pytest.fixture(scope="module")
def archived_state(tiny_universe, tmp_path_factory):
    """(pool names, segments, meta) of a real archived columnar state."""
    path = tmp_path_factory.mktemp("state") / "state.sparch"
    detect_series(
        tiny_universe, TestArchivedSeries.DATES[:2],
        substrate=ColumnarSubstrate(), archive=path,
    )
    with ArchiveReader.open(path) as reader:
        generation = reader.latest(STATE_KIND)
        segments = {
            name: bytes(generation.segment(name))
            for name in generation.segment_names()
        }
        return reader.pool_names(), segments, generation.meta


def _set_u32(payload: bytes, position: int, value: int) -> bytes:
    column = array.array("I", payload)
    column[position] = value
    return column.tobytes()


def _set_u64(payload: bytes, position: int, value: int) -> bytes:
    column = array.array("Q", payload)
    column[position] = value
    return column.tobytes()


#: One crafted defect per case: (error match, segments/meta/pool size ->
#: the segments it replaces).
CRAFTED_STATES = {
    "dom_gid_outside_pool": ("outside the .*pool", lambda seg, meta, pool: {
        "state.dom_gids": _set_u32(seg["state.dom_gids"], 0, pool)
    }),
    "misaligned_counter_keys": ("not a multiple", lambda seg, meta, pool: {
        "state.counts_keys": seg["state.counts_keys"] + b"\0"
    }),
    "misaligned_sizes": ("not a multiple", lambda seg, meta, pool: {
        "state.v4_sizes": seg["state.v4_sizes"] + b"\0"
    }),
    "counter_keys_not_increasing": ("counter entry", lambda seg, meta, pool: {
        "state.counts_keys": _set_u64(
            seg["state.counts_keys"], 1, array.array("Q", seg["state.counts_keys"])[0]
        )
    }),
    "zero_count": ("counter entry", lambda seg, meta, pool: {
        "state.counts_vals": _set_u32(seg["state.counts_vals"], 0, 0)
    }),
    "v4_row_outside_table": ("counter entry", lambda seg, meta, pool: {
        "state.counts_keys": _set_u64(
            seg["state.counts_keys"], -1, meta[STATE_KIND]["v4_rows"] << 32
        )
    }),
    "v6_row_outside_table": ("counter entry", lambda seg, meta, pool: {
        "state.counts_keys": _set_u64(
            seg["state.counts_keys"], -1,
            ((meta[STATE_KIND]["v4_rows"] - 1) << 32) | meta[STATE_KIND]["v6_rows"],
        )
    }),
}


@pytest.mark.parametrize("case", sorted(CRAFTED_STATES))
def test_restore_state_rejects_crafted_state(archived_state, tmp_path, case):
    """A state generation with valid CRCs but a crafted defect raises
    ArchiveFormatError on restore — never another exception, never a
    silently wrong counter."""
    pool, segments, meta = archived_state
    assert len(array.array("Q", segments["state.counts_keys"])) >= 2
    match, craft = CRAFTED_STATES[case]
    crafted = {**segments, **craft(segments, meta, len(pool))}
    path = tmp_path / f"{case}.sparch"
    with ArchiveWriter.open(path) as writer:
        writer.append_pool(pool)
        writer.append_generation(SNAPSHOT.isoformat(), crafted, meta)
        writer.commit()
    with ArchiveReader.open(path) as reader:
        generation = reader.latest(STATE_KIND)
        assert generation.segment_names() == sorted(crafted)  # CRCs hold
        with pytest.raises(ArchiveFormatError, match=match):
            restore_state(generation, reader.pool_names())


# -- routing-table identity --------------------------------------------------

#: Nested v4 and v6 prefixes, so announcements cover one another.
RIB_PREFIXES = [
    Prefix.parse(text)
    for text in (
        "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.0.2.0/24",
        "2001:db8::/32", "2001:db8:1::/48", "2001:db8:1:2::/64",
    )
]

rib_steps = st.lists(
    st.tuples(
        st.sampled_from(("announce", "moas", "withdraw", "withdraw-origin")),
        st.sampled_from(RIB_PREFIXES),
        st.integers(0, 2**32 - 1) | st.integers(1, 4),
    ),
    max_size=30,
)


def fresh_annotator_digest(routes: dict) -> str:
    """The digest of a RIB built from *routes* in one go, its cached
    route text filled by an earlier digest."""
    rib = Rib()
    for prefix, origins in sorted(routes.items()):
        for origin in sorted(origins):
            rib.announce(prefix, origin)
    annotator = PrefixAnnotator(rib)
    annotator_digest(annotator)
    return annotator_digest(annotator)


@settings(max_examples=60, deadline=None)
@given(steps=rib_steps)
def test_annotator_digest_follows_rib_mutations(steps):
    """The cached route text is invalidated by every announce and
    withdraw: after each step the mutated RIB digests like a fresh RIB
    with the same routes, including MOAS origin sets."""
    rib, routes = Rib(), {}
    annotator = PrefixAnnotator(rib)
    assert annotator_digest(annotator) == fresh_annotator_digest(routes)
    for action, prefix, origin in steps:
        if action in ("announce", "moas"):
            if action == "moas" and routes:
                # Add an origin to an announced prefix: a MOAS set.
                prefix = sorted(routes)[origin % len(routes)]
            rib.announce(prefix, origin)
            routes.setdefault(prefix, set()).add(origin)
        elif prefix not in routes:
            with pytest.raises(KeyError):
                rib.withdraw(prefix)
        elif action == "withdraw":
            rib.withdraw(prefix)
            del routes[prefix]
        else:
            withdrawn = sorted(routes[prefix])[origin % len(routes[prefix])]
            rib.withdraw(prefix, withdrawn)
            routes[prefix].discard(withdrawn)
            if not routes[prefix]:
                del routes[prefix]
        assert annotator_digest(annotator) == fresh_annotator_digest(routes)


class TestServiceIntegration:
    def test_from_archive_equals_memory(self, tmp_path):
        path = tmp_path / "s.sparch"
        index = archive_pairs(path, make_pairs(60))
        archived = SiblingQueryService.from_archive(path)
        memory = SiblingQueryService(index)
        for query in queries_for(index, 150):
            assert archived.lookup(query) == memory.lookup(query)
        archived.index.close()

    def test_swap_from_archive_remaps(self, tmp_path):
        path = tmp_path / "s.sparch"
        archive_pairs(path, make_pairs(10, seed=1), datetime.date(2024, 9, 10))
        service = SiblingQueryService.from_archive(path)
        generation = service.generation
        archive_pairs(path, make_pairs(20, seed=2))
        previous = service.swap_from_archive(path)
        assert service.generation == generation + 1
        assert service.index.snapshot == datetime.date(2024, 9, 11)
        assert previous.snapshot == datetime.date(2024, 9, 10)
        previous.close()
        service.index.close()


class TestFormatRobustness:
    def _archive(self, tmp_path):
        path = tmp_path / "r.sparch"
        archive_pairs(path, make_pairs(25))
        return path

    def test_bad_magic_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveFormatError, match="magic"):
            ArchiveReader.open(path)

    def test_future_version_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        data = bytearray(path.read_bytes())
        data[8:10] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveFormatError, match="version"):
            ArchiveReader.open(path)

    def test_truncation_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(ArchiveFormatError):
            ArchiveReader.open(path)

    def test_manifest_corruption_rejected(self, tmp_path):
        path = self._archive(tmp_path)
        data = bytearray(path.read_bytes())
        # The manifest sits between its footer-recorded offset and the
        # footer itself; flip one byte inside it.
        offset = int.from_bytes(data[-FOOTER.size + 8:-FOOTER.size + 16], "little")
        data[offset + 4] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveFormatError, match="manifest"):
            ArchiveReader.open(path)

    def test_segment_corruption_rejected_on_access(self, tmp_path):
        path = self._archive(tmp_path)
        data = bytearray(path.read_bytes())
        # First segment page: flip a byte in the records payload.
        data[align_up(1) + 8] ^= 0xFF
        path.write_bytes(bytes(data))
        with ArchiveReader.open(path) as reader:  # attach succeeds (lazy)
            with pytest.raises(ArchiveFormatError, match="checksum"):
                reader.verify()

    def test_aborted_append_keeps_archive_readable(self, tmp_path):
        path = self._archive(tmp_path)
        before = path.read_bytes()
        writer = ArchiveWriter.open(path)
        writer.append_generation("2024-09-12", {"x.blob": b"zzz"}, {"demo": {}})
        writer.abort()
        with ArchiveReader.open(path) as reader:
            assert [g.date for g in reader.generations] == ["2024-09-11"]
            assert reader.verify() > 0
        assert path.read_bytes() == before

    def test_empty_and_garbage_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.sparch"
        empty.write_bytes(b"")
        with pytest.raises(ArchiveFormatError):
            ArchiveReader.open(empty)
        garbage = tmp_path / "garbage.sparch"
        garbage.write_bytes(b"\x00" * 100)
        with pytest.raises(ArchiveFormatError):
            ArchiveReader.open(garbage)

    def test_footer_crc_guards_torn_tail(self, tmp_path):
        """A tail appended without a committed footer is detected."""
        path = self._archive(tmp_path)
        with open(path, "ab") as stream:
            stream.write(b"\x00" * 64)
        with pytest.raises(ArchiveFormatError):
            ArchiveReader.open(path)

    def test_crc32_view_is_plain_crc(self):
        assert crc32_view(memoryview(b"abc")) == crc32_view(b"abc")

    def test_empty_pool_names_rejected_at_append(self, tmp_path):
        path = tmp_path / "pool.sparch"
        with ArchiveWriter.open(path) as writer:
            with pytest.raises(ArchiveFormatError, match="empty"):
                writer.append_pool(["ok.example", ""])
            writer.append_pool(["ok.example"])
        with ArchiveReader.open(path) as reader:
            assert reader.pool_names() == ["ok.example"]

    def test_legacy_empty_pool_payload_tolerated_on_read(self, tmp_path):
        """An archive written before the empty-name guard (one ``""``
        name joins to a zero-length payload) must still read back."""
        path = tmp_path / "legacy.sparch"
        writer = ArchiveWriter.open(path)
        pool = writer._manifest["pool"]
        pool["segments"].append(
            {"name": "pool.0", "count": 1,
             "segment": writer._append_segment(b"")}
        )
        pool["count"] = 1
        writer.close()
        with ArchiveReader.open(path) as reader:
            assert reader.pool_names() == [""]


def mapped_answers(path, queries):
    """(snapshot, pairs, per-query LPM answers) read back from *path*."""
    index = load_mapped_index(path)
    try:
        answers = []
        for query in queries:
            result = index.lookup(query)
            answers.append(result and (result.matched, result.pairs))
        return index.snapshot, tuple(index.pairs), answers
    finally:
        index.close()


def live_offsets(data: bytes) -> list[int]:
    """Every byte offset a reader interprets: the header preamble, each
    segment payload, the manifest and the footer (not page padding)."""
    _, manifest_at, manifest_len, _, _ = FOOTER.unpack_from(
        data, len(data) - FOOTER.size
    )
    manifest = json.loads(data[manifest_at:manifest_at + manifest_len])
    spans = [
        (0, HEADER.size),
        (manifest_at, manifest_len),
        (len(data) - FOOTER.size, FOOTER.size),
    ]
    for generation in manifest["generations"]:
        spans.extend(
            (offset, length)
            for offset, length, _crc in generation["segments"].values()
        )
    return [at for start, length in spans for at in range(start, start + length)]


class TestArchiveFuzz:
    """Damaged archive bytes give the original answers or raise
    :class:`ArchiveFormatError` — never another exception, never a
    different answer."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        path = directory / "tiny.sparch"
        memory = archive_pairs(path, make_pairs(6, seed=4) + tri_state_pairs())
        queries = queries_for(memory, 24, seed=9)
        archive = path.read_bytes()
        return (
            archive,
            live_offsets(archive),
            queries,
            mapped_answers(path, queries),
            directory / "damaged.sparch",
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damage_is_rejected_or_harmless(self, original, data):
        archive, live, queries, expected, path = original
        damaged = bytearray(archive)
        action = data.draw(st.sampled_from(("flip", "overwrite", "truncate")))
        if action == "truncate":
            del damaged[data.draw(st.integers(0, len(archive) - 1)):]
        else:
            at = live[data.draw(st.integers(0, len(live) - 1))]
            if action == "flip":
                damaged[at] ^= 1 << data.draw(st.integers(0, 7))
            else:
                chunk = data.draw(st.binary(min_size=1, max_size=16))
                damaged[at:at + len(chunk)] = chunk
        path.write_bytes(bytes(damaged))
        try:
            got = mapped_answers(path, queries)
        except ArchiveFormatError:
            return
        assert got == expected


# -- crash recovery ----------------------------------------------------------

#: Child-process body for the SIGKILL crash-point matrix: append one
#: generation and die at a named point of the append/commit protocol.
#: Writes are flushed + fsynced before the kill, so the on-disk state
#: at death is exactly the named crash point, not an OS buffering
#: accident.
_CRASH_CHILD = """
import json, os, signal, sys
sys.path.insert(0, sys.argv[3])
from repro.storage.archive import ArchiveWriter
from repro.storage.format import align_up, crc32_view, pack_footer

path, point = sys.argv[1], sys.argv[2]
writer = ArchiveWriter.open(path)

def die():
    writer._file.flush()
    os.fsync(writer._file.fileno())
    os.kill(os.getpid(), signal.SIGKILL)

writer._append_segment(b"A" * 5000)
if point == "after_segment_1":
    die()
writer.append_generation(
    "2024-09-12", {"x.blob": b"x" * 3000, "y.blob": b"y" * 50}, {"demo": {}}
)
if point == "after_segment_2":
    die()
payload = json.dumps(writer._manifest, separators=(",", ":")).encode("utf-8")
offset = align_up(writer._end)
writer._file.seek(offset)
writer._file.write(payload)
if point == "after_manifest":
    die()
footer = pack_footer(offset, len(payload), crc32_view(payload))
writer._file.write(footer[: len(footer) // 2])
if point == "mid_footer":
    die()
"""

CRASH_POINTS = (
    "after_segment_1", "after_segment_2", "after_manifest", "mid_footer"
)


class TestCrashRecovery:
    """kill -9 mid-append must never cost a committed generation."""

    def _committed_archive(self, tmp_path) -> tuple[pathlib.Path, bytes]:
        path = tmp_path / "crash.sparch"
        archive_pairs(path, make_pairs(25))
        return path, path.read_bytes()

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_sigkill_matrix_recovers_last_committed(self, tmp_path, point):
        path, committed = self._committed_archive(tmp_path)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        child = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(path), point, str(src)],
            capture_output=True,
            timeout=60,
        )
        assert child.returncode == -9, child.stderr.decode()
        assert path.stat().st_size > len(committed), "crash left no torn tail"

        # Strict open rejects the torn tail; recover=True reads through
        # it without modifying the file.
        with pytest.raises(ArchiveFormatError):
            ArchiveReader.open(path)
        with ArchiveReader.open(path, recover=True) as reader:
            assert reader.recovered
            assert reader.committed_end == len(committed)
            assert [g.date for g in reader.generations] == ["2024-09-11"]
            assert reader.verify() > 0

        # The writer's default recovery truncates, after which strict
        # readers (and the serving layer) see exactly the committed
        # generation — zero data loss.
        with ArchiveWriter.open(path) as writer:
            assert writer.generation_dates == ["2024-09-11"]
        assert path.read_bytes() == committed
        service = SiblingQueryService.from_archive(path)
        assert service.index.snapshot == datetime.date(2024, 9, 11)
        service.index.close()

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_append_after_recovery_commits_cleanly(self, tmp_path, point):
        path, committed = self._committed_archive(tmp_path)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        child = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(path), point, str(src)],
            capture_output=True,
            timeout=60,
        )
        assert child.returncode == -9, child.stderr.decode()
        archive_pairs(path, make_pairs(30, seed=2), datetime.date(2024, 9, 12))
        with ArchiveReader.open(path) as reader:
            assert not reader.recovered
            assert [g.date for g in reader.generations] == [
                "2024-09-11", "2024-09-12",
            ]
            assert reader.verify() > 0

    def test_truncation_sweep_recovers_prefix(self, tmp_path):
        """Deterministic byte-level matrix: for every sampled cut point
        between commit N and commit N+1, recovery yields exactly the
        generations of commit N."""
        path = tmp_path / "sweep.sparch"
        archive_pairs(path, make_pairs(10, seed=1), datetime.date(2024, 9, 10))
        first = len(path.read_bytes())
        archive_pairs(path, make_pairs(15, seed=2))
        data = path.read_bytes()
        second = len(data)

        cuts = sorted(
            {
                first, first + 1, first + 17,
                min(first + 4096, second - 1),
                (first + second) // 2,
                second - FOOTER.size - 1, second - FOOTER.size,
                second - FOOTER.size + 1, second - 1,
            }
        )
        for cut in cuts:
            assert first <= cut < second
            torn = tmp_path / f"cut{cut}.sparch"
            torn.write_bytes(data[:cut])
            with ArchiveReader.open(torn, recover=True) as reader:
                assert reader.committed_end == first, cut
                assert reader.recovered == (cut != first), cut
                assert [g.date for g in reader.generations] == ["2024-09-10"], cut
                assert reader.verify() > 0
            with ArchiveWriter.open(torn):
                pass
            assert len(torn.read_bytes()) == first, cut

    def test_headerless_and_never_committed_files(self, tmp_path):
        # A header-only file (crash before the first commit): the
        # reader has nothing to recover; the writer restarts it empty.
        from repro.storage.format import pack_header

        fresh = tmp_path / "fresh.sparch"
        fresh.write_bytes(pack_header() + b"\x55" * 300)
        with pytest.raises(ArchiveFormatError, match="no valid footer"):
            ArchiveReader.open(fresh, recover=True)
        with ArchiveWriter.open(fresh) as writer:
            assert writer.generation_dates == []
        with ArchiveReader.open(fresh) as reader:
            assert reader.generations == []

        # Garbage never becomes a fresh archive, even with recovery on.
        garbage = tmp_path / "garbage.sparch"
        garbage.write_bytes(b"\x13" * 8192)
        with pytest.raises(ArchiveFormatError):
            ArchiveWriter.open(garbage)

    def test_recover_ignores_footer_magic_inside_segments(self, tmp_path):
        """Payload bytes that *look* like a footer (magic inside a
        segment) must not fool the backward scan — adjacency and CRC
        validation reject them."""
        from repro.storage.format import FOOTER_MAGIC, pack_footer

        path = tmp_path / "decoy.sparch"
        decoy = FOOTER_MAGIC + pack_footer(4096, 11, 7) + FOOTER_MAGIC
        with ArchiveWriter.open(path) as writer:
            writer.append_generation(
                "2024-09-11", {"decoy.blob": decoy * 3}, {"demo": {}}
            )
        committed = path.read_bytes()
        with open(path, "ab") as stream:
            stream.write(b"\x00" * 128)  # torn tail
        with ArchiveReader.open(path, recover=True) as reader:
            assert reader.recovered
            assert reader.committed_end == len(committed)
            assert [g.date for g in reader.generations] == ["2024-09-11"]
