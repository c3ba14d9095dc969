"""Unit tests of the telemetry registry (``repro.obs``).

Covers the contracts the HTTP server and ``--stats`` rely on:

* canonical metric identity — label order never matters, values are
  escaped, ``split_key`` inverts ``name{k="v"}``;
* thread-safety — concurrent increments are never lost, and a snapshot
  taken mid-storm is internally consistent per metric (a histogram's
  ``count`` always equals the sum of its bucket counts);
* Prometheus exposition — ``_total`` counters, cumulative ``le``
  buckets ending at ``+Inf == count``.
"""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    MetricsError,
    MetricsRegistry,
    render_json,
    render_prometheus,
    split_key,
)

pytestmark = pytest.mark.obs


# -- identity ----------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.counter("serve.lookups").inc()
    registry.counter("serve.lookups").inc(4)
    registry.gauge("serve.generation").set(3)
    registry.gauge("serve.generation").add(2)
    registry.histogram("serve.batch_size", bounds=(1, 4, 16)).observe(3)
    snap = registry.snapshot()
    assert snap["counters"]["serve.lookups"] == 5
    assert snap["gauges"]["serve.generation"] == 5.0
    state = snap["histograms"]["serve.batch_size"]
    assert state["counts"] == [0, 1, 0, 0]  # le=4 bucket, +Inf overflow slot
    assert state["count"] == 1 and state["sum"] == 3.0


def test_label_order_is_canonical():
    registry = MetricsRegistry()
    registry.counter("stage.calls", stage="step3", shard="1").inc()
    registry.counter("stage.calls", shard="1", stage="step3").inc()
    snap = registry.snapshot()
    assert snap["counters"] == {
        'stage.calls{shard="1",stage="step3"}': 2
    }


def test_split_key_inverts_escaping():
    registry = MetricsRegistry()
    awkward = 'quote " backslash \\ newline \n done'
    registry.counter("serve.lookups", source=awkward).inc()
    (key,) = registry.snapshot()["counters"]
    name, labels = split_key(key)
    assert name == "serve.lookups"
    assert labels == {"source": awkward}


def test_invalid_names_raise():
    registry = MetricsRegistry()
    with pytest.raises(MetricsError):
        registry.counter("Serve.Lookups")
    with pytest.raises(MetricsError):
        registry.counter("serve lookups")
    with pytest.raises(MetricsError):
        registry.counter("serve.lookups", **{"bad-label": "x"})
    with pytest.raises(MetricsError):
        registry.counter("serve.lookups").inc(-1)


def test_histogram_bounds_conflict_raises():
    registry = MetricsRegistry()
    registry.histogram("serve.batch_size", bounds=(1, 2, 4))
    with pytest.raises(MetricsError):
        registry.histogram("serve.batch_size", bounds=(1, 2, 8))
    with pytest.raises(MetricsError):
        MetricsRegistry().histogram("x", bounds=(2, 2))


def test_histogram_le_semantics():
    registry = MetricsRegistry()
    histogram = registry.histogram("t", bounds=(1.0, 2.0))
    for value in (0.5, 1.0, 1.5, 2.0, 99.0):
        histogram.observe(value)
    assert histogram.state()["counts"] == [2, 2, 1]


# -- thread-safety -----------------------------------------------------------


def test_concurrent_increments_are_exact():
    registry = MetricsRegistry()
    threads = 8
    per_thread = 5000

    def worker():
        counter = registry.counter("storm.hits")
        histogram = registry.histogram("storm.sizes", bounds=DEFAULT_COUNT_BUCKETS)
        for _ in range(per_thread):
            counter.inc()
            histogram.observe(3)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    snap = registry.snapshot()
    assert snap["counters"]["storm.hits"] == threads * per_thread
    assert snap["histograms"]["storm.sizes"]["count"] == threads * per_thread


def test_snapshot_never_tears_under_mutation():
    """A scrape racing writers sees per-metric consistent histograms."""
    registry = MetricsRegistry()
    stop = threading.Event()

    def writer():
        histogram = registry.histogram("swap.seconds", bounds=(0.5, 1.5))
        counter = registry.counter("swap.count")
        while not stop.is_set():
            histogram.observe(1.0)
            counter.inc()

    pool = [threading.Thread(target=writer) for _ in range(4)]
    for thread in pool:
        thread.start()
    try:
        for _ in range(300):
            snap = registry.snapshot()
            for state in snap["histograms"].values():
                assert state["count"] == sum(state["counts"]), (
                    "torn histogram read: bucket counts disagree with count"
                )
                # every observation here is exactly 1.0
                assert state["sum"] == state["count"] * 1.0
    finally:
        stop.set()
        for thread in pool:
            thread.join()


# -- exposition --------------------------------------------------------------


def test_prometheus_rendering():
    registry = MetricsRegistry()
    registry.counter("serve.lookups").inc(7)
    registry.gauge("serve.generation").set(2)
    registry.histogram("serve.lookup_seconds", bounds=(0.1, 1.0)).observe(0.05)
    registry.histogram("serve.lookup_seconds", bounds=(0.1, 1.0)).observe(5.0)
    text = render_prometheus(registry.snapshot())
    lines = text.splitlines()
    assert "# TYPE repro_serve_lookups_total counter" in lines
    assert "repro_serve_lookups_total 7" in lines
    assert "repro_serve_generation 2" in lines
    assert 'repro_serve_lookup_seconds_bucket{le="0.1"} 1' in lines
    assert 'repro_serve_lookup_seconds_bucket{le="1"} 1' in lines
    assert 'repro_serve_lookup_seconds_bucket{le="+Inf"} 2' in lines
    assert "repro_serve_lookup_seconds_count 2" in lines
    assert text.endswith("\n")


def test_prometheus_buckets_are_cumulative_and_end_at_count():
    registry = MetricsRegistry()
    histogram = registry.histogram("t.h", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 100.0):
        histogram.observe(value)
    lines = render_prometheus(registry.snapshot()).splitlines()
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in lines
        if line.startswith("repro_t_h_bucket")
    ]
    assert buckets == sorted(buckets), "buckets must be cumulative"
    count = next(
        int(line.rsplit(" ", 1)[1])
        for line in lines
        if line.startswith("repro_t_h_count")
    )
    assert buckets[-1] == count == 4


def test_json_rendering_round_trips():
    import json

    registry = MetricsRegistry()
    registry.counter("a.b").inc(3)
    assert json.loads(render_json(registry.snapshot()))["counters"]["a.b"] == 3
