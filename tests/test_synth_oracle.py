"""Differential properties of universe synthesis.

``Universe.snapshot_at`` evaluates its observations straight from the
domain specs; the authoritative zone measured through the CNAME-chasing
resolver (``DnsSnapshot.measure(zone_at(d), queried_names_at(d), d)``)
is its oracle, and the two must agree observation for observation, in
order.  The dual-stack adoption draw compares each month's hash with an
integer threshold instead of dividing it by ``2**64``; it must pick the
same month as the float comparison for every probability.

The blocking CI differential job runs this file under
``HYPOTHESIS_PROFILE=differential``.
"""

import dataclasses
import datetime

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
from repro.determinism import stable_uniform, uniform_threshold
from repro.dns.openintel import DnsSnapshot
from repro.dns.toplists import FR_CCTLD_ADDED
from repro.synth import build_universe
from repro.synth.services import _ServiceBuilder

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
    config = dataclasses.replace(universe.config, ds_adoption_monthly=probability)
    builder = _ServiceBuilder(config, universe.population)
    expected = next(
        (
            second_wednesday(year, month)
            for year, month in _STUDY_MONTHS
            if stable_uniform(config.seed, "adopt", name, year, month) < probability
        ),
        None,
    )
    assert builder._ds_adoption_date(name) == expected
