"""Differential properties of universe synthesis.

``Universe.snapshot_at`` evaluates its observations straight from the
domain specs; the authoritative zone measured through the CNAME-chasing
resolver (``DnsSnapshot.measure(zone_at(d), queried_names_at(d), d)``)
is its oracle, and the two must agree observation for observation, in
order.  The dual-stack adoption draw compares each month's hash with an
integer threshold instead of dividing it by ``2**64``; it must pick the
same month as the float comparison for every probability, and the
universe's lazy, memoised draw must equal the eager one.  ``stable_hash``
encodes its key in one call; it must digest exactly the bytes of the
part-by-part ``key_bytes`` encoding.

The blocking CI differential job runs this file under
``HYPOTHESIS_PROFILE=differential``.
"""

import datetime
import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dates import (
    REFERENCE_DATE,
    STUDY_END,
    STUDY_START,
    month_range,
    second_wednesday,
)
from repro.determinism import stable_hash, stable_uniform, uniform_threshold
from repro.dns.openintel import DnsSnapshot
from repro.dns.toplists import FR_CCTLD_ADDED
from repro.synth import build_universe
from repro.synth.services import ds_adoption_date

_STUDY_MONTHS = list(month_range(STUDY_START, STUDY_END))


@pytest.fixture(scope="module")
def universe():
    return build_universe("tiny")


@settings(max_examples=25)
@given(
    month=st.sampled_from(_STUDY_MONTHS),
    day=st.integers(min_value=1, max_value=28),
)
@example(month=(REFERENCE_DATE.year, REFERENCE_DATE.month), day=REFERENCE_DATE.day)
@example(month=(FR_CCTLD_ADDED.year, FR_CCTLD_ADDED.month), day=FR_CCTLD_ADDED.day)
@example(month=(2022, 7), day=28)
def test_direct_snapshot_equals_resolver_measurement(universe, month, day):
    when = datetime.date(*month, day)
    expected = DnsSnapshot.measure(
        universe.zone_at(when), universe.queried_names_at(when), when
    )
    snapshot = universe.snapshot_at(when)
    assert list(snapshot.observations()) == list(expected.observations())


def test_direct_snapshot_across_one_month(universe):
    # Deployments are announced and domains adopt dual stack on second
    # Wednesdays (2023-11-08), churn strikes on the 15th: the days on
    # and around both, and the month's ends.
    for day in (1, 7, 8, 9, 14, 15, 16, 30):
        when = datetime.date(2023, 11, day)
        expected = DnsSnapshot.measure(
            universe.zone_at(when), universe.queried_names_at(when), when
        )
        assert list(universe.snapshot_at(when).observations()) == list(
            expected.observations()
        )


_PROBABILITIES = st.floats(min_value=0.0, max_value=1.0)


@given(
    probability=_PROBABILITIES,
    offset=st.integers(min_value=-(2**12), max_value=2**12),
)
@example(probability=0.5, offset=-512)
@example(probability=0.5, offset=-513)
@example(probability=1.0, offset=0)
@example(probability=0.0, offset=0)
def test_threshold_matches_float_draw_near_threshold(probability, offset):
    threshold = uniform_threshold(probability)
    value = min(max(threshold + offset, 0), 2**64 - 1)
    assert (value < threshold) == (value / 2**64 < probability)


@given(probability=_PROBABILITIES, value=st.integers(0, 2**64 - 1))
def test_threshold_matches_float_draw(probability, value):
    assert (value < uniform_threshold(probability)) == (value / 2**64 < probability)


@given(probability=_PROBABILITIES)
def test_threshold_is_the_least_passing_integer(probability):
    threshold = uniform_threshold(probability)
    assert 0 <= threshold <= 2**64
    assert threshold / 2**64 >= probability
    assert threshold == 0 or (threshold - 1) / 2**64 < probability


@settings(max_examples=50)
@given(
    probability=st.one_of(
        st.floats(min_value=0.0, max_value=0.05), _PROBABILITIES
    ),
    name=st.from_regex(r"[a-z0-9]{1,12}\.example", fullmatch=True),
)
def test_adoption_month_matches_float_draw(universe, probability, name):
    seed = universe.config.seed
    expected = next(
        (
            second_wednesday(year, month)
            for year, month in _STUDY_MONTHS
            if stable_uniform(seed, "adopt", name, year, month) < probability
        ),
        None,
    )
    assert ds_adoption_date(seed, name, uniform_threshold(probability)) == expected


def test_lazy_adoption_equals_eager_draw():
    # A fresh universe has drawn nothing yet; a snapshot draws for the
    # domains it queries, then every single-stack spec is asked for in a
    # shuffled order.
    fresh = build_universe("tiny")
    fresh.snapshot_at(REFERENCE_DATE)
    seed = fresh.config.seed
    threshold = uniform_threshold(fresh.config.ds_adoption_monthly)
    specs = [spec for spec in fresh.fabric.domains.values() if spec.single_stack]
    assert any(spec.v6_only for spec in specs)
    eager = {spec.name: ds_adoption_date(seed, spec.name, threshold) for spec in specs}
    assert any(eager.values())
    random.Random(7).shuffle(specs)
    for spec in specs:
        adoption = eager[spec.name]
        if spec.v6_only or adoption is None:
            assert not fresh.dual_stack_on(spec, datetime.date(2100, 1, 1))
            continue
        assert not fresh.dual_stack_on(spec, adoption - datetime.timedelta(days=1))
        assert fresh.dual_stack_on(spec, adoption)


#: Key parts: ints, bools, None, floats, ASCII and non-ASCII strings
#: (no lone surrogates: ``repr`` escapes them), and tuples of these.
_KEY_PARTS = st.recursive(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
        st.text(alphabet="aé漢🦊\x1f'", max_size=4),
    ),
    lambda inner: st.tuples(inner, inner),
    max_leaves=6,
)


@given(parts=st.lists(_KEY_PARTS, max_size=6))
def test_stable_hash_digests_part_by_part_key_bytes(parts):
    old_key = b"".join([repr(part).encode() + b"\x1f" for part in parts])
    digest = hashlib.blake2b(old_key, digest_size=8).digest()
    assert stable_hash(*parts) == int.from_bytes(digest, "little")
