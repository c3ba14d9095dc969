"""Multi-process stress proof for the serving fleet's swap guarantees.

``tests/test_serving_stress.py`` proves the single-process
:class:`SiblingQueryService` invariants with threads; this suite
re-proves them across *OS process* boundaries, the way the fleet
actually runs:

* client **processes** hammer the fleet's one SO_REUSEPORT port with
  point and batch queries over keep-alive connections, recording every
  answer's snapshot dates and a system-monotonic completion time;
* the test body plays publisher: it appends 40+ distinguishable
  generations to the shared ``.sparch`` archive (each snapshot date
  encodes its generation number) and broadcasts a swap after each
  commit, recording a monotonic timestamp *before* each append starts;
* halfway through the storm one worker is ``SIGKILL``-ed under full
  load; the supervisor must restart it **on the newest committed
  generation**, and once the restart is confirmed no client request
  may fail.

The invariants checked over every recorded answer:

* a batch answer carries exactly one snapshot date — no worker ever
  mixes two generations within one response;
* every answer's snapshot is a generation whose archive append had
  *started* before the response completed — an uncommitted or
  never-published generation can never be served (``time.monotonic``
  is system-wide on the platforms the fleet supports, so publisher
  and client timestamps are directly comparable);
* connection failures happen only inside the kill window — zero
  failed requests after the bounded drain, with real traffic after it.
"""

import datetime
import json
import multiprocessing
import os
import signal
import socket
import time
from http.client import HTTPConnection, HTTPException

import pytest

from repro.nettypes.prefix import Prefix
from repro.publish import PublishedPair
from repro.serving.fleet import FleetError, ServiceSource, ServingFleet
from repro.serving.index import SiblingLookupIndex
from repro.storage.format import ArchiveFormatError
from repro.storage.index_io import append_index

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="serving fleet requires SO_REUSEPORT",
)

#: Worker cap so CI's 2-core runners stay deterministic
#: (the fleet-stress job pins REPRO_FLEET_WORKERS=2).
FLEET_WORKERS = max(1, int(os.environ.get("REPRO_FLEET_WORKERS", "2")))

CLIENTS = 2
GENERATIONS = 40

V4 = Prefix.parse("192.0.2.0/24")
V6 = Prefix.parse("2001:db8::/32")
BASE_DATE = datetime.date(2024, 1, 1)

#: Hits on both families plus guaranteed misses, with repeats so the
#: per-generation answer cache is exercised too.
QUERIES = [
    "192.0.2.7",
    "192.0.2.9",
    "2001:db8::1",
    "203.0.113.5",
    "192.0.2.7",
    "2001:db8:dead::beef",
    "198.51.100.1",
] * 2

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def _snapshot_of(generation: int) -> str:
    return (BASE_DATE + datetime.timedelta(days=generation)).isoformat()


def _make_index(generation: int) -> SiblingLookupIndex:
    """One pair whose jaccard and snapshot date encode *generation*."""
    pair = PublishedPair(
        v4_prefix=V4,
        v6_prefix=V6,
        jaccard=round(0.001 * generation, 6),
        shared_domains=generation + 1,
        v4_domains=generation + 2,
        v6_domains=generation + 3,
        same_org=None,
        rov_status=None,
    )
    return SiblingLookupIndex.from_pairs(
        [pair], datetime.date.fromisoformat(_snapshot_of(generation))
    )


def _storm_client(url: str, stop, out_path: str) -> None:
    """Client process body: alternate point/batch load, record answers.

    Each record is ``{"t": monotonic completion time, "kind": ...,
    "ok": bool, "snapshots": sorted distinct snapshot dates}``; a
    connection-level failure is recorded with ``ok: False`` and *no*
    retry, so the kill window is visible to the assertions.
    """
    host, port = url.removeprefix("http://").split(":")
    records = []
    connection = None
    turn = 0
    while not stop.is_set():
        kind = "batch" if turn % 3 == 0 else "point"
        turn += 1
        try:
            if connection is None:
                connection = HTTPConnection(host, int(port), timeout=10)
            if kind == "point":
                connection.request(
                    "GET", "/v1/lookup?ip=" + QUERIES[turn % len(QUERIES)]
                )
            else:
                connection.request(
                    "POST",
                    "/v1/batch",
                    body=json.dumps({"queries": QUERIES}),
                    headers={"Content-Type": "application/json"},
                )
            body = connection.getresponse().read()
        except (OSError, HTTPException):
            if connection is not None:
                connection.close()
            connection = None
            records.append(
                {"t": time.monotonic(), "kind": kind, "ok": False}
            )
            continue
        done = time.monotonic()
        payload = json.loads(body)
        rows = payload["results"] if kind == "batch" else [payload]
        records.append(
            {
                "t": done,
                "kind": kind,
                "ok": True,
                "snapshots": sorted(
                    {row["snapshot"] for row in rows if "snapshot" in row}
                ),
            }
        )
    if connection is not None:
        connection.close()
    with open(out_path, "w") as stream:
        json.dump(records, stream)


def _await_restart(fleet: ServingFleet, minimum: int, deadline: float) -> dict:
    """Fleet status once every worker is alive and restarts >= minimum."""
    while True:
        status = fleet.status()
        if status["restarts"] >= minimum and all(
            worker.get("alive") for worker in status["workers"]
        ):
            return status
        if time.monotonic() > deadline:
            raise AssertionError(
                f"fleet did not recover in time: {status}"
            )
        time.sleep(0.05)


def test_swap_storm_with_worker_kill(tmp_path):
    """The headline stress: 40-generation storm + SIGKILL under load."""
    archive = tmp_path / "storm.sparch"
    commit_started = {_snapshot_of(0): time.monotonic()}
    append_index(archive, _make_index(0))

    stop = _CTX.Event()
    out_paths = [str(tmp_path / f"client-{slot}.json") for slot in range(CLIENTS)]
    clients = []
    killed_at = drained_at = None
    with ServingFleet(
        ServiceSource(archive), workers=FLEET_WORKERS
    ) as fleet:
        fleet.start()
        clients = [
            _CTX.Process(
                target=_storm_client, args=(fleet.url, stop, out_path)
            )
            for out_path in out_paths
        ]
        for client in clients:
            client.start()
        victim_pid = fleet.status()["workers"][0]["pid"]

        for generation in range(1, GENERATIONS + 1):
            date = _snapshot_of(generation)
            commit_started[date] = time.monotonic()
            append_index(archive, _make_index(generation))
            for ack in fleet.broadcast_swap():
                # A swap ack may only ever name the generation just
                # committed (never a future or uncommitted one).
                assert ack["snapshot"] == date, ack
            if generation == GENERATIONS // 2 and FLEET_WORKERS > 1:
                os.kill(victim_pid, signal.SIGKILL)
                killed_at = time.monotonic()
                status = _await_restart(
                    fleet, minimum=1, deadline=killed_at + 30
                )
                drained_at = time.monotonic()
                # The restarted worker came back on the newest
                # *committed* generation — never stale, never ahead.
                restarted = next(
                    worker
                    for worker in status["workers"]
                    if worker["pid"] != victim_pid
                    and worker["slot"] == 0
                )
                assert restarted["snapshot"] == date, restarted

        time.sleep(0.3)  # settled traffic against the final generation
        stop.set()
        for client in clients:
            client.join(timeout=30)
            assert client.exitcode == 0, "storm client crashed"

        final = fleet.status()
        assert all(worker["alive"] for worker in final["workers"])
        assert {worker["snapshot"] for worker in final["workers"]} == {
            _snapshot_of(GENERATIONS)
        }
        if FLEET_WORKERS > 1:
            assert final["restarts"] >= 1

    records = []
    for out_path in out_paths:
        with open(out_path) as stream:
            records.extend(json.load(stream))
    okay = [record for record in records if record["ok"]]
    failed = [record for record in records if not record["ok"]]
    assert len(okay) > 50, "storm produced too little verified traffic"

    for record in okay:
        # Batch answers are generation-consistent; point answers carry
        # exactly one snapshot by construction.
        assert len(record["snapshots"]) == 1, (
            f"mixed-generation answer: {record}"
        )
        snapshot = record["snapshots"][0]
        assert snapshot in commit_started, (
            f"answer from unknown generation {snapshot!r}"
        )
        assert commit_started[snapshot] <= record["t"], (
            f"generation {snapshot} served before its commit started "
            f"({commit_started[snapshot]:.6f} > {record['t']:.6f})"
        )

    if killed_at is not None:
        for record in failed:
            assert record["t"] <= drained_at, (
                f"request failed after the restart drain: {record}"
            )
        assert any(record["t"] > drained_at for record in okay), (
            "no verified traffic after the restart drain"
        )
    else:
        assert not failed, failed[:3]


def test_restarted_worker_attaches_newest_generation(tmp_path):
    """A plain (no-load) kill: the replacement serves current state."""
    archive = tmp_path / "restart.sparch"
    append_index(archive, _make_index(0))
    with ServingFleet(
        ServiceSource(archive), workers=FLEET_WORKERS
    ) as fleet:
        fleet.start()
        append_index(archive, _make_index(1))
        acks = fleet.broadcast_swap()
        assert len(acks) == FLEET_WORKERS
        assert {ack["snapshot"] for ack in acks} == {_snapshot_of(1)}

        victim = fleet.status()["workers"][-1]
        os.kill(victim["pid"], signal.SIGKILL)
        status = _await_restart(
            fleet, minimum=1, deadline=time.monotonic() + 30
        )
        replacement = status["workers"][victim["slot"]]
        assert replacement["pid"] != victim["pid"]
        assert replacement["snapshot"] == _snapshot_of(1)
        # The restart is attributed to the killed slot, and the
        # replacement rejoined current (no swap lag).
        assert replacement["restarts"] >= 1
        assert replacement["lag"] == 0
        untouched = [
            worker
            for worker in status["workers"]
            if worker["slot"] != victim["slot"]
        ]
        assert all(worker["restarts"] == 0 for worker in untouched)


def test_fleet_serves_on_one_port_across_workers(tmp_path):
    """All workers answer on the same port with identical answers."""
    archive = tmp_path / "port.sparch"
    append_index(archive, _make_index(3))
    with ServingFleet(
        ServiceSource(archive), workers=FLEET_WORKERS
    ) as fleet:
        fleet.start()
        host, port = fleet.host, fleet.port
        answers = set()
        # Fresh connection per request: SO_REUSEPORT spreads these
        # across workers; every answer must be identical regardless.
        for _ in range(8):
            connection = HTTPConnection(host, port, timeout=10)
            try:
                connection.request("GET", "/v1/lookup?ip=192.0.2.7")
                payload = json.loads(connection.getresponse().read())
            finally:
                connection.close()
            assert payload["found"] is True
            answers.add(payload["snapshot"])
        assert answers == {_snapshot_of(3)}
        status = fleet.status()
        assert len(status["workers"]) == FLEET_WORKERS
        assert all(worker["alive"] for worker in status["workers"])
        # Telemetry keys: a freshly started fleet has zero restarts and
        # zero swap lag, and every row reports its generation.
        assert status["swap_lag"] == 0
        assert status["uptime_seconds"] > 0.0
        assert status["control_port"] is not None
        for worker in status["workers"]:
            assert worker["restarts"] == 0
            assert worker["lag"] == 0
            assert worker["generation"] == status["generation"]


def test_serve_series_fleet_pipeline(tmp_path, tiny_universe):
    """The pipeline bridge: detect a series into an archive, serve it."""
    from repro.analysis.pipeline import serve_series_fleet
    from repro.dates import REFERENCE_DATE

    dates = [REFERENCE_DATE - datetime.timedelta(days=1), REFERENCE_DATE]
    archive = tmp_path / "series.sparch"
    fleet = serve_series_fleet(
        tiny_universe, dates, archive, serve_workers=FLEET_WORKERS
    )
    try:
        status = fleet.status()
        assert len(status["workers"]) == FLEET_WORKERS
        assert all(worker["alive"] for worker in status["workers"])
        connection = HTTPConnection(fleet.host, fleet.port, timeout=10)
        try:
            connection.request("GET", "/v1/snapshot")
            payload = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        assert payload["index"]["snapshot"] == REFERENCE_DATE.isoformat()
        assert payload["index"]["pairs"] > 0
    finally:
        fleet.stop()


def test_fleet_rejects_bad_configuration(tmp_path):
    with pytest.raises(FleetError):
        ServingFleet(ServiceSource(tmp_path / "x.sparch"), workers=0)
    fleet = ServingFleet(ServiceSource(tmp_path / "x.sparch"))
    with pytest.raises(FleetError):
        fleet.port  # not started
    with pytest.raises(ArchiveFormatError):
        ServiceSource(tmp_path / "not-an-archive.sparch").build()


def test_fleet_start_fails_cleanly_on_missing_archive(tmp_path):
    """A worker that cannot attach dies; start() raises, no leaks."""
    fleet = ServingFleet(
        ServiceSource(tmp_path / "missing.sparch"),
        workers=1,
        ready_timeout=10,
    )
    with pytest.raises(FleetError):
        fleet.start()
    fleet.stop()  # idempotent on the failed fleet


def test_cli_serve_workers_validation(tmp_path, capsys):
    from repro.cli import main

    csv_path = tmp_path / "pairs.csv"
    csv_path.write_text("v4_prefix,v6_prefix\n")
    assert main(["serve", str(csv_path), "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err
    assert main(["serve", str(csv_path), "--workers", "2"]) == 2
    assert "detect --archive" in capsys.readouterr().err
