"""The rolling detect-series must be bit-identical to per-date detection.

The invariant behind ``detect_series``: at every
date, detection over the delta-maintained index — with the columnar
state and persistent Step-3 counters *patched*, never rebuilt — equals a
from-scratch run on that date's snapshot, for every engine.  Hypothesis
drives randomized multi-date churn scenarios (domains appearing,
disappearing, flipping dual-stack, renumbering, moving prefixes) through
a small series shim; the properties then compare the complete observable
output per date, via the shared ``as_mapping`` agreement definition.

Also here: the white-box guarantees the invariant rests on — the
counter retract/add arithmetic behind ``engine.patch``, the structural
fingerprint check that drops a patched state gone astray, and the
annotator-signature rebuild gate.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_mapping, detect_each_date

from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.core.domainsets import build_index
from repro.core.substrate import ColumnarSubstrate, get_substrate
from repro.dns.openintel import DnsSnapshot, DomainObservation
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix

# Public, non-reserved pools (the annotator discards reserved space).
V4_POOL = [
    Prefix.from_address(IPV4, (20 << 24) | (i << 8), 24) for i in range(10)
]
V6_POOL = [
    Prefix.from_address(IPV6, (0x2400_00DB << 96) | (i << 80), 48)
    for i in range(10)
]

BASE_DATE = datetime.date(2024, 9, 1)


def make_annotator(extra_prefix: Prefix | None = None) -> PrefixAnnotator:
    rib = Rib()
    for position, prefix in enumerate(V4_POOL + V6_POOL):
        rib.announce(prefix, 65000 + position)
    if extra_prefix is not None:
        rib.announce(extra_prefix, 64999)
    return PrefixAnnotator(rib, missing_fraction=0.0)


class SeriesShim:
    """Duck-typed stand-in for :class:`repro.synth.universe.Universe` —
    the pipeline only calls ``snapshot_at`` and ``annotator_at``."""

    def __init__(self, snapshots, annotator_for_date=None):
        self._snapshots = {s.date: s for s in snapshots}
        self._annotator = make_annotator()
        self._annotator_for_date = annotator_for_date

    def snapshot_at(self, date):
        return self._snapshots[date]

    def annotator_at(self, date):
        if self._annotator_for_date is not None:
            return self._annotator_for_date(date)
        return self._annotator


def snapshot_from_table(date, table) -> DnsSnapshot:
    """A snapshot from ``{domain: (v4 address ids, v6 address ids)}``;
    an address id is ``(pool index, offset)``."""
    return DnsSnapshot(
        date,
        (
            DomainObservation(
                domain,
                tuple(
                    V4_POOL[pool].first_address + offset
                    for pool, offset in sorted(v4_ids)
                ),
                tuple(
                    V6_POOL[pool].first_address + offset
                    for pool, offset in sorted(v6_ids)
                ),
            )
            for domain, (v4_ids, v6_ids) in table.items()
        ),
    )


@st.composite
def churn_series(draw, max_dates: int = 4):
    """A list of per-date observation tables with correlated churn.

    Date 0 is drawn in full; every later date copies the previous table
    and mutates a random subset of slots — remove, add, renumber within
    a prefix, move prefixes, or flip one family empty (dual-stack flip).
    """
    address_id = st.tuples(
        st.integers(0, len(V4_POOL) - 1), st.integers(1, 250)
    )
    families = st.tuples(
        st.sets(address_id, min_size=0, max_size=3),
        st.sets(address_id, min_size=0, max_size=3),
    )
    n_domains = draw(st.integers(2, 14))
    labels = [f"d{i}.example" for i in range(n_domains)]
    table = {
        label: draw(families) for label in draw(st.sets(st.sampled_from(labels), min_size=1))
    }
    tables = [table]
    for _ in range(draw(st.integers(1, max_dates - 1))):
        table = dict(table)
        for label in labels:
            action = draw(
                st.sampled_from(("keep", "keep", "keep", "set", "drop"))
            )
            if action == "drop":
                table.pop(label, None)
            elif action == "set":
                table[label] = draw(families)
        tables.append(table)
    return tables


def run_both(tables, engine_factory, engine=None):
    """Per-date and rolling detection over *tables*; the rolling run
    uses *engine* when given, else a new one from *engine_factory*."""
    dates = [BASE_DATE + datetime.timedelta(days=i) for i in range(len(tables))]
    shim = SeriesShim(
        [snapshot_from_table(date, table) for date, table in zip(dates, tables)]
    )
    from repro.analysis.pipeline import detect_series

    full = detect_each_date(shim, dates, substrate=engine_factory())
    incremental = detect_series(
        shim, dates, substrate=engine if engine is not None else engine_factory()
    )
    return dates, full, incremental


def in_prefix_space(state, counts):
    """A packed Step-3 counter keyed by (v4 prefix, v6 prefix) instead of
    rows, so counters of differently numbered states compare."""
    return {
        (
            state.v4_prefixes[key >> 32],
            state.v6_prefixes[key & 0xFFFFFFFF],
        ): count
        for key, count in counts.items()
    }


class RecordingColumnar(ColumnarSubstrate):
    """A columnar engine that counts its full builds and records its
    Step-3 counter, in prefix space, after every select."""

    def __init__(self):
        super().__init__()
        self.columnarized = 0
        self.counters = []

    def columnarize(self, index):
        self.columnarized += 1
        return super().columnarize(index)

    def select(self, index, *args, **kwargs):
        result = super().select(index, *args, **kwargs)
        state = self.prepare(index)
        self.counters.append(in_prefix_space(state, state.counts))
        return result


@given(tables=churn_series())
@settings(max_examples=25)
def test_incremental_equals_full_columnar(tables):
    """Columnar engine: per-date bit-identical output under churn, and
    the patch path really runs — the fixed-routing series columnarizes
    once, and the patched counter equals a fresh accumulation on every
    date."""
    engine = RecordingColumnar()
    dates, full, incremental = run_both(tables, ColumnarSubstrate, engine)
    assert [d for d, _ in incremental] == dates
    for (_, siblings_full), (_, siblings_incremental) in zip(full, incremental):
        assert as_mapping(siblings_full) == as_mapping(siblings_incremental)
    assert engine.columnarized == 1
    assert len(engine.counters) == len(dates)
    for date, table, patched in zip(dates, tables, engine.counters):
        fresh = ColumnarSubstrate().columnarize(
            build_index(snapshot_from_table(date, table), make_annotator())
        )
        assert patched == in_prefix_space(
            fresh, ColumnarSubstrate.pair_counts(fresh)
        )


@given(tables=churn_series())
@settings(max_examples=8)
def test_incremental_equals_reference_oracle(tables):
    """Incremental columnar output equals the paper-literal reference
    engine run from scratch on every date — the strongest oracle."""
    dates, _, incremental = run_both(tables, ColumnarSubstrate)
    shim = SeriesShim(
        [snapshot_from_table(date, table) for date, table in zip(dates, tables)]
    )
    reference = detect_each_date(shim, dates, substrate=get_substrate("reference"))
    for (_, siblings), (_, fresh) in zip(incremental, reference):
        assert as_mapping(siblings) == as_mapping(fresh)


# ---------------------------------------------------------------------------
# White-box: the persistent counter really is patched, not rebuilt
# ---------------------------------------------------------------------------


def _two_date_tables():
    return [
        {
            "a.example": ({(0, 1)}, {(0, 1)}),
            "b.example": ({(0, 2), (1, 9)}, {(1, 7)}),
            "c.example": ({(2, 3)}, {(2, 3)}),
        },
        {
            "a.example": ({(0, 1)}, {(0, 1)}),          # unchanged
            "b.example": ({(3, 2)}, {(1, 7), (3, 8)}),  # moved prefixes
            "d.example": ({(4, 4)}, {(4, 4)}),          # appeared
        },  # c.example disappeared
    ]


def test_counter_is_patched_in_place_and_exact():
    """The persistent counter is patched bit-exactly by the retract/add
    merge — including the retraction-to-zero path:
    c.example disappears, so its (pool 2, pool 2) pair count falls to
    exactly zero and the key must be *eliminated*, not left at zero."""
    tables = _two_date_tables()
    annotator = make_annotator()
    s0 = snapshot_from_table(BASE_DATE, tables[0])
    s1 = snapshot_from_table(BASE_DATE + datetime.timedelta(days=1), tables[1])
    engine = ColumnarSubstrate()
    index = build_index(s0, annotator)
    first = engine.select(index)
    state_before = engine.prepare(index)
    assert state_before.counts is not None  # persisted by select
    # The pair that will be retracted to zero is present on date 0.
    assert (
        in_prefix_space(state_before, state_before.counts)[
            (V4_POOL[2], V6_POOL[2])
        ]
        == 1
    )
    engine.patch(index, index.apply_delta(s0.delta_to(s1), annotator))
    second = engine.select(index)
    state_after = engine.prepare(index)
    # Same state object — patched, not rebuilt — and the patched
    # counter equals a from-scratch accumulation on a rebuilt state,
    # compared in prefix space (row numbering may legitimately
    # differ).
    assert state_after is state_before
    fresh_engine = ColumnarSubstrate()
    fresh_state = fresh_engine.prepare(build_index(s1, make_annotator()))
    fresh_counts = ColumnarSubstrate.pair_counts(fresh_state)
    patched = in_prefix_space(state_after, state_after.counts)
    assert patched == in_prefix_space(fresh_state, fresh_counts)
    # Retraction-to-zero: the disappeared domain's pair is gone from
    # the counter entirely, and no key is left at a zero count.
    assert (V4_POOL[2], V6_POOL[2]) not in patched
    assert 0 not in state_after.counts.values()
    # And the selected outputs match the oracle on both dates.
    reference = get_substrate("reference")
    assert as_mapping(first) == as_mapping(
        reference.select(build_index(s0, make_annotator()))
    )
    assert as_mapping(second) == as_mapping(reference.select(index))


def test_unmarked_hand_edit_behind_delta_still_rebuilds():
    """A hand-edit followed by ``apply_delta`` and ``engine.patch`` must
    not slip past the patch path: the patched state's structure
    disagrees with the index fingerprint, so patch drops the state and
    the next prepare rebuilds — the fingerprint safety net survives."""
    tables = _two_date_tables()
    annotator = make_annotator()
    s0 = snapshot_from_table(BASE_DATE, tables[0])
    s1 = snapshot_from_table(BASE_DATE + datetime.timedelta(days=1), tables[1])
    engine = ColumnarSubstrate()
    index = build_index(s0, annotator)
    engine.select(index)
    # Structure-changing hand-edit behind the engine's back, on a
    # domain the delta does NOT touch (a.example is identical on both
    # dates), so the edit persists after apply_delta: a.example also
    # joins pool 7 on the v4 side.
    index.v4_domains.setdefault(V4_POOL[7], set()).add("a.example")
    index.domain_v4_prefixes["a.example"] = set(
        index.domain_v4_prefixes["a.example"]
    ) | {V4_POOL[7]}
    engine.patch(index, index.apply_delta(s0.delta_to(s1), annotator))
    mapping = as_mapping(engine.select(index))
    assert mapping == as_mapping(get_substrate("reference").select(index))
    assert any(v4 == V4_POOL[7] for v4, _ in mapping)


def test_annotator_change_forces_full_rebuild_and_stays_exact():
    """A routing change between dates invalidates delta application —
    the pipeline must rebuild that date from scratch and still agree
    with per-date detection."""
    from repro.analysis.pipeline import detect_series

    tables = _two_date_tables() + [_two_date_tables()[0]]
    dates = [BASE_DATE + datetime.timedelta(days=i) for i in range(len(tables))]
    annotators = {
        dates[0]: make_annotator(),
        # Announce a more-specific inside pool 0 from date 1 on: every
        # address in it re-annotates, including unchanged domains'.
        dates[1]: make_annotator(V4_POOL[0].subnets(25).__next__()),
        dates[2]: make_annotator(V4_POOL[0].subnets(25).__next__()),
    }
    shim = SeriesShim(
        [snapshot_from_table(date, table) for date, table in zip(dates, tables)],
        annotator_for_date=annotators.__getitem__,
    )
    full = detect_each_date(shim, dates, substrate=ColumnarSubstrate())
    incremental = detect_series(shim, dates, substrate=ColumnarSubstrate())
    for (_, siblings_full), (_, siblings_incremental) in zip(full, incremental):
        assert as_mapping(siblings_full) == as_mapping(siblings_incremental)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
