"""Shared fixtures: one tiny universe per test session.

Also registers the hypothesis profiles the property-based differential
suite (``test_differential_engines.py``) runs under:

* ``dev`` (default) — a handful of examples per property, deadline
  disabled, so the tier-1 run stays fast.
* ``differential`` — the blocking CI job's profile: more examples,
  deadline disabled, and failure blobs printed so any counterexample is
  reproducible from the CI log (``HYPOTHESIS_PROFILE=differential``).
"""

import os

import pytest

from repro.dates import REFERENCE_DATE
from repro.synth import build_universe


def pytest_configure(config):
    """Register the telemetry marker used by the CI serving-stress job."""
    config.addinivalue_line(
        "markers",
        "obs: observability/telemetry suites (metrics registry, tracing, "
        "status endpoints) — selected by the blocking CI serving-stress job",
    )

try:
    from hypothesis import HealthCheck, settings

    # "dev" keeps hypothesis's stock example budget (the pre-existing
    # nettypes/metrics property tests rely on it); it only disables the
    # deadline so slow CI containers don't flake.  The expensive
    # process-forking differential tests carry their own explicit
    # @settings(max_examples=...) caps instead.
    settings.register_profile(
        "dev",
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "differential",
        deadline=None,
        max_examples=100,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis ships with the CI image
    pass


def as_mapping(siblings):
    """Every observable field of every pair, keyed by the prefix pair.

    The shared definition of "two engines agree" used by the substrate
    equivalence, differential, rolling-index and archive suites — extend it
    here (not in one suite) when :class:`SiblingPair` grows a field.
    """
    return {
        (pair.v4_prefix, pair.v6_prefix): (
            pair.similarity,
            pair.shared_domains,
            pair.v4_domain_count,
            pair.v6_domain_count,
        )
        for pair in siblings
    }


def detect_each_date(universe, dates, substrate=None):
    """The per-date oracle: ``detect_at`` from scratch on every date.

    What the rolling index of ``detect_series`` and ``repro watch`` must
    equal on each date; shaped like a ``detect_series`` result.
    """
    from repro.analysis.pipeline import detect_at

    return [(d, detect_at(universe, d, substrate=substrate)[0]) for d in dates]


@pytest.fixture(scope="session")
def tiny_universe():
    return build_universe("tiny")


@pytest.fixture(scope="session")
def tiny_detection(tiny_universe):
    """(siblings, index) for the reference date on the tiny universe."""
    from repro.core.detection import detect_with_index

    return detect_with_index(
        tiny_universe.snapshot_at(REFERENCE_DATE),
        tiny_universe.annotator_at(REFERENCE_DATE),
    )
