"""The Step 3-4 batch operations' own suite: the counter patch, the wire
format and the edge cases.

``repro.core.kernels`` is held to two contracts here:

* **the counter** — :func:`patch_counts` is retract-then-add with
  retraction-to-exactly-zero key elimination, bit-exact against a
  hand-rolled dict oracle, and :func:`sorted_columns` round-trips
  through the archive's u64/u32 wire format;
* **edges** — empty and single-pair inputs, an unknown metric, and
  empty, one-family and single-pair universes produce sane output.

The cross-engine properties over full scenario universes live in
``test_differential_engines.py``; this file is the unit level.
"""

import datetime
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_mapping

from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.core.detection import TIE_EPSILON
from repro.core.domainsets import build_index
from repro.core.kernels import (
    accumulate_rowlists,
    kernel_name,
    patch_counts,
    select_scored,
    sorted_columns,
)
from repro.core.substrate import ColumnarSubstrate
from repro.dns.openintel import DnsSnapshot, DomainObservation
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix


def test_kernel_name_is_python():
    assert kernel_name() == "python"


# ---------------------------------------------------------------------------
# The counter: patch_counts and sorted_columns
# ---------------------------------------------------------------------------


def patch_oracle(base, retract, add):
    """Reference semantics of :func:`patch_counts` on plain dicts."""
    out = dict(base)
    for key, retracted in retract.items():
        remaining = out.get(key, 0) - retracted
        if remaining:
            out[key] = remaining
        else:
            out.pop(key, None)
    for key, added in add.items():
        out[key] = out.get(key, 0) + added
    return out


@st.composite
def patch_cases(draw):
    """``(base, retract, add)`` with retract a sub-counter of base.

    The pipeline only ever retracts contributions it previously added,
    so retractions never exceed the standing count; drawing the retract
    amount up to *and including* the full count exercises the
    drop-to-exactly-zero elimination path."""
    keys = st.integers(0, 40)
    base = draw(st.dictionaries(keys, st.integers(1, 9), max_size=12))
    retract = {
        key: draw(st.integers(1, count))
        for key, count in base.items()
        if draw(st.booleans())
    }
    add = draw(st.dictionaries(keys, st.integers(1, 9), max_size=8))
    return base, retract, add


@given(case=patch_cases())
@settings(max_examples=40)
def test_patch_matches_counter_oracle(case):
    """patch == retract-then-add with exact-zero elimination."""
    base, retract, add = case
    counts = Counter(base)
    patch_counts(
        counts, Counter(retract) if retract else None, Counter(add) if add else None
    )
    expected = patch_oracle(base, retract, add)
    assert dict(counts) == expected
    # The post-patch wire format agrees too: eliminated keys are gone
    # from the sorted columns, not just masked in the mapping view.
    keys_column, counts_column = sorted_columns(counts)
    assert list(keys_column) == sorted(expected)
    assert list(counts_column) == [expected[key] for key in sorted(expected)]


def test_patch_drop_to_zero_eliminates_key():
    """A retraction landing on exactly zero removes the key everywhere:
    membership, length, and the serialized columns."""
    counts = Counter({1: 2, 5: 1, 9: 3})
    patch_counts(counts, Counter({5: 1, 9: 3}), Counter({9: 1}))
    assert 5 not in counts
    assert dict(counts) == {1: 2, 9: 1}
    keys_column, _ = sorted_columns(counts)
    assert list(keys_column) == [1, 9]


def test_patch_cancelling_delta_is_identity():
    """retract == add nets to zero: the counter is unchanged."""
    counts = Counter({1: 2, 7: 4})
    patch_counts(counts, Counter({1: 1, 7: 4}), Counter({1: 1, 7: 4}))
    assert dict(counts) == {1: 2, 7: 4}


def test_patch_none_operands_are_noops():
    counts = Counter({3: 1})
    patch_counts(counts, None, None)
    assert dict(counts) == {3: 1}
    empty = Counter()
    patch_counts(empty, None, Counter({8: 2}))
    assert dict(empty) == {8: 2}


@given(
    mapping=st.dictionaries(
        st.integers(0, (1 << 40) - 1), st.integers(1, 1_000_000), max_size=20
    )
)
@settings(max_examples=25)
def test_wire_format_round_trips(mapping):
    """sorted_columns -> bytes -> columns is lossless: sorted u64 keys,
    aligned u32 counts."""
    keys_column, counts_column = sorted_columns(Counter(mapping))
    keys_wire = array("Q")
    keys_wire.frombytes(keys_column.tobytes())
    counts_wire = array("I")
    counts_wire.frombytes(counts_column.tobytes())
    assert list(keys_wire) == sorted(mapping)
    assert dict(zip(keys_wire, counts_wire)) == mapping


# ---------------------------------------------------------------------------
# Batch operations on empty and single-pair inputs
# ---------------------------------------------------------------------------


def test_accumulate_rowlists_empty():
    counts = accumulate_rowlists([], [])
    assert counts == Counter()
    keys_column, counts_column = sorted_columns(counts)
    assert len(keys_column) == 0 and len(counts_column) == 0


def test_select_scored_empty_counts():
    kept_keys, kept_values, scored = select_scored(
        Counter(), array("I"), array("I"), "jaccard", True, True, False, TIE_EPSILON
    )
    assert kept_keys == [] and kept_values == [] and scored == 0


def test_select_scored_single_pair():
    """One pair, full overlap: similarity exactly 1.0, kept in every
    mode that wants anything."""
    kept_keys, kept_values, scored = select_scored(
        Counter({0: 2}), array("I", [2]), array("I", [2]), "jaccard",
        True, True, True, TIE_EPSILON,
    )
    assert kept_keys == [0]
    assert kept_values == [1.0]
    assert scored == 1


def test_select_scored_unknown_metric_raises_keyerror():
    with pytest.raises(KeyError):
        select_scored(
            Counter({0: 1}), array("I", [1]), array("I", [1]), "cosine",
            True, True, False, TIE_EPSILON,
        )


# ---------------------------------------------------------------------------
# Full-pipeline edges: empty / one-family / single-pair universes
# ---------------------------------------------------------------------------

_V4 = Prefix.from_address(IPV4, 20 << 24, 24)
_V6 = Prefix.from_address(IPV6, 0x2400_00DB << 96, 48)
_DATE = datetime.date(2024, 9, 1)


def _annotator() -> PrefixAnnotator:
    rib = Rib()
    rib.announce(_V4, 65001)
    rib.announce(_V6, 65002)
    return PrefixAnnotator(rib, missing_fraction=0.0)


def test_empty_universe_detects_nothing():
    index = build_index(DnsSnapshot(_DATE, ()), _annotator())
    assert as_mapping(ColumnarSubstrate().select(index)) == {}


def test_one_family_domain_yields_no_pairs():
    """A v4-only domain contributes no packed pairs."""
    snapshot = DnsSnapshot(
        _DATE,
        (DomainObservation("only4.example", (_V4.first_address + 1,), ()),),
    )
    index = build_index(snapshot, _annotator())
    assert as_mapping(ColumnarSubstrate().select(index)) == {}


def test_single_pair_universe():
    """One dual-stack domain: exactly one sibling pair, similarity 1.0."""
    snapshot = DnsSnapshot(
        _DATE,
        (
            DomainObservation(
                "a.example",
                (_V4.first_address + 1,),
                (_V6.first_address + 1,),
            ),
        ),
    )
    index = build_index(snapshot, _annotator())
    mapping = as_mapping(ColumnarSubstrate().select(index))
    assert mapping == {(_V4, _V6): (1.0, frozenset({"a.example"}), 1, 1)}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
