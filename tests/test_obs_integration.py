"""End-to-end telemetry: pipeline spans, endpoints, CLI.

The unit contracts live in ``test_obs_metrics.py``; this suite proves
the wiring — detection Steps 1–4 record into the process registry, the
HTTP server exposes ``/v1/status`` + ``/v1/metrics``, and the ``repro
status`` / ``detect --stats`` CLI surfaces render it all.
"""

import datetime
import json
import urllib.request

import pytest

from repro.core.detection import detect_with_index
from repro.core.domainsets import build_index
from repro.dates import REFERENCE_DATE
from repro.nettypes.prefix import Prefix
from repro.obs.metrics import MetricsRegistry, split_key
from repro.obs.tracing import (
    get_registry,
    record_stage,
    set_enabled,
    set_registry,
    stage_table,
    trace,
    tracing_enabled,
)
from repro.publish import PublishedPair
from repro.serving.http import make_server
from repro.serving.index import SiblingLookupIndex
from repro.serving.service import SiblingQueryService

pytestmark = pytest.mark.obs


@pytest.fixture
def fresh_registry():
    """Install an empty process-wide registry; restore the old after."""
    previous = set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(previous)


def _demo_index(generation: int = 0) -> SiblingLookupIndex:
    pair = PublishedPair(
        v4_prefix=Prefix.parse("192.0.2.0/24"),
        v6_prefix=Prefix.parse("2001:db8::/32"),
        jaccard=1.0,
        shared_domains=3,
        v4_domains=3,
        v6_domains=3,
        same_org=None,
        rov_status=None,
    )
    return SiblingLookupIndex.from_pairs(
        [pair], datetime.date(2024, 1, 1) + datetime.timedelta(days=generation)
    )


def _fetch(url: str) -> "tuple[int, str, str]":
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


# -- spans -------------------------------------------------------------------


def test_trace_span_records(fresh_registry):
    with trace("demo.stage", items=2) as span:
        span.add_items(3)
    snap = fresh_registry.snapshot()
    assert snap["counters"]['stage.calls{stage="demo.stage"}'] == 1
    assert snap["counters"]['stage.items{stage="demo.stage"}'] == 5
    wall = snap["histograms"]['stage.wall_seconds{stage="demo.stage"}']
    assert wall["count"] == 1 and wall["sum"] >= 0.0


def test_disabled_tracing_is_noop(fresh_registry):
    assert tracing_enabled()
    previous = set_enabled(False)
    try:
        assert not tracing_enabled()
        with trace("demo.stage"):
            pass
        record_stage("demo.stage", 1.0, 1.0)
        snap = fresh_registry.snapshot()
        assert not snap["counters"] and not snap["histograms"]
    finally:
        set_enabled(previous)


def test_detect_records_pipeline_stages(fresh_registry, tiny_universe):
    siblings, _ = detect_with_index(
        tiny_universe.snapshot_at(REFERENCE_DATE),
        tiny_universe.annotator_at(REFERENCE_DATE),
    )
    assert len(siblings) > 0
    stages = {
        split_key(key)[1]["stage"]
        for key in fresh_registry.snapshot()["counters"]
        if split_key(key)[0] == "stage.calls"
    }
    for stage in (
        "step12.build_index",
        "step12.columnarize",
        "step3.accumulate",
        "step4.select",
        "step34.select",
    ):
        assert stage in stages, f"stage {stage!r} never recorded: {stages}"


def test_stage_table_renders_rows(fresh_registry):
    assert stage_table(fresh_registry.snapshot()) == (
        "no stage timings recorded"
    )
    record_stage("x.y", 0.5, 0.25, items=10)
    record_stage("step4.select", 0.1, 0.1, items=4)
    table = stage_table(fresh_registry.snapshot())
    assert "wall_ms/call" in table
    stages = [line.split()[0] for line in table.splitlines()[2:]]
    assert stages == ["step4.select", "x.y"]


def test_detect_stats_cli(fresh_registry, capsys):
    from repro.cli import main

    assert main(["detect", "--scenario", "tiny", "--stats"]) == 0
    err = capsys.readouterr().err
    assert "step3.accumulate" in err
    assert "wall_ms/call" in err
    # Synthesis, the dominant layers of a detect run, is attributed too.
    rows = err.splitlines()
    for stage in ("synth.build_universe", "synth.snapshot_at"):
        (row,) = [line for line in rows if line.split()[:1] == [stage]]
        assert row.split()[1] == "1", row  # one build, one snapshot


def _stage_calls(err: str) -> dict[str, int]:
    """Stage name → calls, from a rendered ``--stats`` table."""
    return {
        line.split()[0]: int(line.split()[1])
        for line in err.splitlines()[2:]
        if len(line.split()) > 1 and line.split()[1].isdigit()
    }


def test_detect_stats_cli_lists_every_layer(fresh_registry, capsys):
    from repro.cli import main

    assert main(["detect", "--scenario", "tiny", "--tune", "28,96", "--stats"]) == 0
    calls = _stage_calls(capsys.readouterr().err)
    for stage in (
        "synth.build_universe",
        "synth.snapshot_at",
        "synth.annotator_at",
        "step12.build_index",
        "step34.select",
        "sptuner.build_tries",
        "sptuner.tune",
        "publish.enrich",
        "publish.write",
    ):
        assert calls.get(stage) == 1, (stage, calls)


def test_detect_series_incremental_stats_count_every_full_build(
    fresh_registry, capsys, tmp_path
):
    from repro.analysis.pipeline import paper_offsets
    from repro.cli import main
    from repro.synth import build_universe

    dates = [date for _, date in paper_offsets(REFERENCE_DATE)]
    universe = build_universe("tiny")
    signatures = [universe.annotator_at(date).signature() for date in dates]
    # The rolling loop rebuilds whenever the routing table changed.
    full_builds = 1 + sum(a != b for a, b in zip(signatures, signatures[1:]))
    argv = [
        "detect-series", "--scenario", "tiny", "--offsets", "paper",
        "--stats", "--format", "csv",
        "-o", str(tmp_path / "series.csv"),
    ]
    assert main(argv) == 0
    calls = _stage_calls(capsys.readouterr().err)
    assert calls["step12.build_index"] == full_builds
    assert calls["step12.build_index"] + calls.get("series.delta_apply", 0) == len(
        dates
    )


# -- worker endpoints --------------------------------------------------------


def test_worker_status_and_metrics_endpoints():
    service = SiblingQueryService(_demo_index(), registry=MetricsRegistry())
    with make_server(service, port=0) as server:
        server.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"

        status_code, content_type, body = _fetch(base + "/v1/status")
        assert status_code == 200 and content_type.startswith("application/json")
        payload = json.loads(body)
        assert set(payload) == {"worker", "service"}
        assert payload["worker"]["pid"] > 0
        assert payload["worker"]["uptime_seconds"] >= 0.0
        assert payload["service"]["generation"] == service.generation

        _fetch(base + "/v1/lookup?ip=192.0.2.7")
        status_code, content_type, text = _fetch(base + "/v1/metrics")
        assert status_code == 200 and content_type.startswith("text/plain")
        assert "repro_serve_lookups_total 1" in text.splitlines()
        assert "repro_serve_generation" in text
        assert "repro_serve_uptime_seconds" in text


def test_service_metrics_count_hits_misses_and_errors():
    registry = MetricsRegistry()
    service = SiblingQueryService(_demo_index(), registry=registry)
    service.lookup("192.0.2.7")
    service.lookup("192.0.2.7")  # cached answer
    service.batch(["192.0.2.7", "203.0.113.9"])
    with pytest.raises(Exception):
        service.lookup("not-an-address")
    service.observe_gauges()
    snap = registry.snapshot()
    assert snap["counters"]["serve.lookups"] == 3
    assert snap["counters"]["serve.query_errors"] == 1
    assert snap["counters"]["serve.batches"] == 1
    assert snap["counters"]["serve.batch_items"] == 2
    assert snap["counters"]["serve.cache_hits"] >= 1
    assert snap["gauges"]["serve.generation"] == float(service.generation)


# -- status CLI --------------------------------------------------------------


def test_status_cli_worker_view(capsys):
    from repro.cli import main

    service = SiblingQueryService(_demo_index(), registry=MetricsRegistry())
    with make_server(service, port=0) as server:
        server.status_extras["watch"] = lambda: {"backlog": 0, "lag": 0.12345}
        server.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"

        assert main(["status", base]) == 0
        out = capsys.readouterr().out
        assert out.startswith("worker pid=")
        assert f"generation={service.generation}" in out
        assert "watch:\n  backlog: 0\n  lag: 0.123\n" in out

        assert main(["status", base + "/v1/status", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"worker", "service", "watch"}
        assert payload["watch"] == {"backlog": 0, "lag": 0.12345}


def test_status_cli_unreachable_is_exit_2(capsys):
    from repro.cli import main

    assert main(["status", "http://127.0.0.1:1", "--timeout", "0.5"]) == 2
    assert "error" in capsys.readouterr().err
