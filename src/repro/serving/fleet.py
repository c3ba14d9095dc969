"""Multi-process serving fleet: N workers, one archive, one port.

The single-process HTTP endpoint (:mod:`repro.serving.http`) tops out
at one core.  This module scales it across processes without giving up
the atomic-swap guarantees :class:`~repro.serving.service.SiblingQueryService`
proves in-process:

* **Workers** are separate OS processes that each bind their *own*
  listening socket on the *same* ``(host, port)`` with ``SO_REUSEPORT``
  — the kernel load-balances incoming connections across them — and
  each :func:`mmap-attach <repro.storage.index_io.load_mapped_index>`
  the *same* ``.sparch`` archive, so the page cache backing the index
  is shared fleet-wide and per-worker memory stays flat.
* **Swap propagation**: the supervisor broadcasts a ``swap`` command
  over per-worker control pipes; each worker runs
  :meth:`~repro.serving.service.SiblingQueryService.swap_from_archive`
  (attach the newest committed generation, swap atomically, in-flight
  queries finish on the generation they started with) and acks with
  the generation it now serves.  Workers swap independently — two
  workers may briefly serve different generations, but every answer
  any worker returns is from a single *committed* generation, never a
  mix (``tests/test_serving_fleet.py`` stress-proves this under swap
  storms and worker kills).
* **Supervision**: a monitor thread restarts dead workers (crash,
  ``SIGKILL``); a restarted worker attaches the newest committed
  generation at startup, so it rejoins current.  :meth:`ServingFleet.status`
  aggregates per-worker liveness, generation, and counters.

Entry points: ``repro serve --workers N`` (CLI) and
:func:`repro.analysis.pipeline.serve_series_fleet` (detect a series
into an archive, then serve it with a fleet).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import socket
import threading

import time

from repro.core.kernels import kernel_name
from repro.obs.metrics import merge_snapshots, render_prometheus
from repro.obs.tracing import reset_registry
from repro.serving.http import SiblingHTTPServer, StatusHTTPServer
from repro.serving.service import SiblingQueryService

#: Seconds a freshly spawned worker gets to bind + attach + ack ready.
READY_TIMEOUT = 30.0

#: Seconds the supervisor waits for one command ack before giving up.
COMMAND_TIMEOUT = 30.0

#: Monitor thread liveness-poll period, seconds.
POLL_INTERVAL = 0.05


class FleetError(RuntimeError):
    """Fleet-level failure: no SO_REUSEPORT, worker never came up, …"""


def _require_reuseport() -> None:
    if not hasattr(socket, "SO_REUSEPORT"):
        raise FleetError(
            "this platform lacks SO_REUSEPORT; the serving fleet needs it "
            "to bind N workers on one port (use --workers 1)"
        )


@dataclasses.dataclass(frozen=True)
class ServiceSource:
    """Where a worker builds (and refreshes) its query service from: the
    newest generation of the ``.sparch`` snapshot archive at *path*,
    attached zero-copy.  :meth:`refresh` (re-attach, swap atomically)
    is what the supervisor's ``swap`` broadcast triggers.
    """

    path: "str | pathlib.Path"
    cache_size: int = 4096

    def build(self) -> SiblingQueryService:
        """A fresh service over the newest committed generation."""
        return SiblingQueryService.from_archive(
            self.path, cache_size=self.cache_size
        )

    def refresh(self, service: SiblingQueryService) -> None:
        """Swap *service* to the newest committed generation.

        The previous index is dropped (not force-closed): in-flight
        queries still hold a reference and finish on it; the mapping
        is released when the last reference goes.
        """
        service.swap_from_archive(self.path)


def _serving_info(slot: int, service: SiblingQueryService) -> dict:
    """One worker's status payload (ready/swapped/status replies)."""
    index = service.index
    info = service.snapshot_info()
    return {
        "slot": slot,
        "pid": os.getpid(),
        "generation": service.generation,
        "snapshot": None if index is None else index.snapshot.isoformat(),
        "swaps": info["swaps"],
        "queries": info["queries"],
        "uptime_seconds": info["uptime_seconds"],
        "generation_age_seconds": info["generation_age_seconds"],
    }


def _worker_main(
    slot: int,
    source: ServiceSource,
    host: str,
    port: int,
    conn,
    inherited_fds: "tuple[int, ...]" = (),
    quiet: bool = True,
) -> None:
    """Worker process body: bind, attach, serve, obey the control pipe.

    Protocol (strict request/response after the initial ready):

    * ``("ready", info)``   — sent once, after bind + attach succeed.
    * ``("swap", seq)``     → refresh from the source, reply
      ``("swapped", seq, info)``.
    * ``("status", seq)``   → reply ``("status", seq, info)``.
    * ``("metrics", seq)``  → reply ``("metrics", seq, {"info": …,
      "metrics": registry snapshot})`` — the fleet-aggregation leg.
    * ``("stop", seq)``     → reply ``("stopping", seq, info)``, shut
      the HTTP server down cleanly, exit 0.

    EOF on the pipe (supervisor gone) is a stop.
    """
    # Fork-start children inherit the supervisor's other fds (the port
    # guard, sibling pipes); close our copies so a dead supervisor
    # reliably EOFs every worker and the guard dies with its owner.
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    # A fork-started worker inherits the supervisor's process registry
    # — including any detection/archive metrics recorded before the
    # fleet started.  Fresh registry, or fleet merges double-count.
    registry = reset_registry()
    service = source.build()
    with SiblingHTTPServer((host, port), service, quiet, reuse_port=True) as server:
        server.worker_info = {"slot": slot}
        server.start()
        conn.send(("ready", _serving_info(slot, service)))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            command, seq = message[0], message[1]
            if command == "swap":
                source.refresh(service)
                conn.send(("swapped", seq, _serving_info(slot, service)))
            elif command == "status":
                conn.send(("status", seq, _serving_info(slot, service)))
            elif command == "metrics":
                service.observe_gauges()
                payload = {"info": _serving_info(slot, service)}
                payload["metrics"] = registry.snapshot()
                conn.send(("metrics", seq, payload))
            elif command == "stop":
                conn.send(("stopping", seq, _serving_info(slot, service)))
                break
            else:
                conn.send(("error", seq, f"unknown command {command!r}"))


class _WorkerSlot:
    """Supervisor-side record of one worker: process + control pipe.

    ``generation_offset`` re-bases a restarted worker's generation
    counter: a fresh service restarts counting at 1, but the
    replacement attaches the newest committed state — without the
    offset it would report a phantom swap lag forever after.
    """

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.info: dict = {}
        self.generation_offset = 0

    def adjusted(self, info: dict) -> dict:
        """*info* with the generation re-based onto the fleet's count."""
        if self.generation_offset and "generation" in info:
            info = dict(info)
            info["generation"] += self.generation_offset
        return info


class ServingFleet:
    """Supervisor for N SO_REUSEPORT serving workers over one source.

    ``port=0`` picks a free ephemeral port once (a bound, never
    listening, guard socket reserves it for the fleet's lifetime —
    only listening sockets receive connections, so the guard steals
    none) and every worker binds it with ``SO_REUSEPORT``.

    The SO_REUSEPORT data port is kernel-load-balanced — no worker can
    answer for the fleet — so the supervisor additionally binds a
    *control port* (``control_port=0`` picks one; ``None`` disables)
    serving fleet-wide ``/v1/status`` (live per-worker round-trips:
    generation, restarts, swap lag) and ``/v1/metrics`` (per-worker
    registries merged via :func:`repro.obs.metrics.merge_snapshots`).

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        source: ServiceSource,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        ready_timeout: float = READY_TIMEOUT,
        control_port: "int | None" = 0,
    ):
        if workers < 1:
            raise FleetError(f"workers must be >= 1, got {workers}")
        _require_reuseport()
        self.source = source
        self.workers = workers
        self.host = host
        self._requested_port = port
        self._requested_control_port = control_port
        self.quiet = quiet
        self.ready_timeout = ready_timeout
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._is_fork = "fork" in methods
        self._guard: socket.socket | None = None
        self._control: StatusHTTPServer | None = None
        self._slots: list[_WorkerSlot | None] = [None] * workers
        self._lock = threading.RLock()
        self._seq = 0
        self._restarts = 0
        self._slot_restarts = [0] * workers
        self._started_monotonic: "float | None" = None
        self._stopping = threading.Event()
        self._monitor_thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ServingFleet":
        """Reserve the port, spawn every worker, await readiness."""
        if self._guard is not None:
            raise FleetError("fleet already started")
        guard = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            guard.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            guard.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            guard.bind((self.host, self._requested_port))
        except OSError:
            guard.close()
            raise
        self._guard = guard
        self._started_monotonic = time.monotonic()
        try:
            for slot in range(self.workers):
                self._spawn(slot)
            if self._requested_control_port is not None:
                self._control = StatusHTTPServer(
                    (self.host, self._requested_control_port),
                    status_provider=self.status,
                    metrics_provider=lambda: render_prometheus(
                        self.metrics()["merged"]
                    ),
                    quiet=self.quiet,
                )
                self._control.start()
        except Exception:
            self.stop()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="fleet-monitor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def stop(self) -> None:
        """Stop workers (graceful, then force), the monitor, the guard."""
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10)
            self._monitor_thread = None
        if self._control is not None:
            self._control.close()
            self._control = None
        with self._lock:
            for worker in self._slots:
                if worker is None:
                    continue
                try:
                    worker.conn.send(("stop", self._next_seq()))
                except (OSError, BrokenPipeError):
                    pass
            for worker in self._slots:
                if worker is None:
                    continue
                worker.process.join(timeout=5)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=2)
                if worker.process.is_alive():  # pragma: no cover - defensive
                    worker.process.kill()
                    worker.process.join(timeout=2)
                worker.conn.close()
            self._slots = [None] * self.workers
        if self._guard is not None:
            self._guard.close()
            self._guard = None

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addressing -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The fleet's bound port (after :meth:`start`)."""
        if self._guard is None:
            raise FleetError("fleet not started")
        return self._guard.getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL clients hit, e.g. ``http://127.0.0.1:8080``."""
        return f"http://{self.host}:{self.port}"

    @property
    def control_port(self) -> "int | None":
        """The control-plane port (``None`` when disabled/not started)."""
        if self._control is None:
            return None
        return self._control.server_address[1]

    @property
    def control_url(self) -> "str | None":
        """Base URL of the fleet-wide status/metrics endpoints."""
        port = self.control_port
        if port is None:
            return None
        return f"http://{self.host}:{port}"

    # -- commands -------------------------------------------------------------

    def broadcast_swap(self, timeout: float = COMMAND_TIMEOUT) -> list[dict]:
        """Tell every live worker to swap to the newest generation.

        Returns one ack info dict per worker that acked (a worker that
        died mid-broadcast is skipped — its restart attaches the
        newest generation anyway, so it cannot come back stale).
        """
        with self._lock:
            replies = self._ask_live("swap", "swapped", timeout)
            for slot, reply in replies.items():
                worker = self._slots[slot]
                worker.info = worker.adjusted(reply)
            return [self._slots[slot].info for slot in replies]

    def status(self, timeout: float = COMMAND_TIMEOUT) -> dict:
        """Fleet status: address, restart counts, one row per worker.

        Every live worker is queried with a live seq-echoed round-trip
        (so ``generation`` / ``snapshot`` / counters reflect *now*,
        not the monitor's last poll); a dead-and-not-yet restarted
        slot reports ``alive: False`` with its last known info.  Each
        row carries the slot's cumulative ``restarts`` and its swap
        ``lag`` (fleet max generation minus the worker's, with
        restarted workers' counters re-based so a replacement on the
        newest state reports lag 0); the fleet level reports the max
        ``generation`` and worst ``swap_lag``.
        """
        rows = []
        with self._lock:
            replies = self._ask_live("status", "status", timeout)
            for slot, worker in enumerate(self._slots):
                row = {"slot": slot, "alive": False}
                if worker is not None:
                    if slot in replies:
                        worker.info = worker.adjusted(replies[slot])
                    alive = slot in replies or worker.process.is_alive()
                    row = dict(worker.info, slot=slot, alive=alive)
                row["restarts"] = self._slot_restarts[slot]
                rows.append(row)
            live = [row for row in rows if row["alive"] and "generation" in row]
            generation = max((row["generation"] for row in live), default=0)
            for row in live:
                row["lag"] = generation - row["generation"]
            return {
                "host": self.host,
                "port": self.port if self._guard is not None else None,
                "control_port": self.control_port,
                # Workers are forked from (or spawned with the exported
                # REPRO_KERNEL of) this supervisor, so its active kernel
                # is the fleet's.
                "kernel": kernel_name(),
                "workers": rows,
                "restarts": self._restarts,
                "generation": generation,
                "swap_lag": max((row.get("lag", 0) for row in rows), default=0),
                "uptime_seconds": (
                    None
                    if self._started_monotonic is None
                    else time.monotonic() - self._started_monotonic
                ),
            }

    def metrics(self, timeout: float = COMMAND_TIMEOUT) -> dict:
        """Fleet metrics: per-worker registry snapshots plus the merge.

        Issues a live seq-echoed ``metrics`` round-trip per worker and
        folds the returned snapshots with
        :func:`~repro.obs.metrics.merge_snapshots` (counters and
        histograms add; gauges take the max).  Supervisor-side fleet
        facts are injected as ``fleet.*`` gauges.  Returns
        ``{"workers": [...], "merged": snapshot}``.
        """
        per_worker = []
        with self._lock:
            replies = self._ask_live("metrics", "metrics", timeout)
            for slot, reply in replies.items():
                worker = self._slots[slot]
                worker.info = worker.adjusted(reply["info"])
                per_worker.append(
                    {"slot": slot, "info": worker.info, "metrics": reply["metrics"]}
                )
            restarts = self._restarts
            started = self._started_monotonic
        merged = merge_snapshots(entry["metrics"] for entry in per_worker)
        gauges = merged["gauges"]
        gauges["fleet.workers"] = float(self.workers)
        gauges["fleet.workers_alive"] = float(len(per_worker))
        gauges["fleet.restarts"] = float(restarts)
        generations = [entry["info"].get("generation", 0) for entry in per_worker]
        generation = max(generations, default=0)
        gauges["fleet.generation"] = float(generation)
        gauges["fleet.swap_lag"] = float(generation - min(generations, default=0))
        if started is not None:
            gauges["fleet.uptime_seconds"] = time.monotonic() - started
        merged["gauges"] = dict(sorted(gauges.items()))
        return {"workers": per_worker, "merged": merged}

    # -- internals ------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _inherited_fds(self) -> tuple:
        """Fds a fork-started child must close (guard + sibling pipes)."""
        if not self._is_fork:
            return ()
        fds = []
        if self._guard is not None:
            fds.append(self._guard.fileno())
        for worker in self._slots:
            if worker is not None:
                try:
                    fds.append(worker.conn.fileno())
                except OSError:
                    pass
        return tuple(fds)

    def _spawn(self, slot: int) -> None:
        """Start worker *slot* and wait for its ready ack."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                slot,
                self.source,
                self.host,
                self.port,
                child_conn,
                self._inherited_fds(),
                self.quiet,
            ),
            name=f"fleet-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _WorkerSlot(process, parent_conn)
        if not parent_conn.poll(self.ready_timeout):
            process.terminate()
            process.join(timeout=2)
            parent_conn.close()
            raise FleetError(
                f"worker {slot} did not become ready within "
                f"{self.ready_timeout}s"
            )
        try:
            kind, info = parent_conn.recv()
        except (EOFError, OSError) as exc:
            process.join(timeout=2)
            parent_conn.close()
            raise FleetError(f"worker {slot} died during startup") from exc
        if kind != "ready":  # pragma: no cover - defensive
            raise FleetError(f"worker {slot} sent {kind!r} instead of ready")
        # A replacement rejoins on the newest committed state, so its
        # reported generation continues from the fleet's, not from 1.
        peers = [
            peer.info["generation"] + peer.generation_offset
            for peer in self._slots
            if peer is not None and "generation" in peer.info
        ]
        worker.generation_offset = max(
            0, max(peers, default=0) - info.get("generation", 0)
        )
        worker.info = worker.adjusted(info)
        self._slots[slot] = worker

    def _ask_live(self, command: str, expect: str, timeout: float) -> dict:
        """Send *command* to every live worker; ``{slot: payload}`` of the
        seq-echoed *expect* replies that came back.  Hold the lock."""
        pending = []
        for slot, worker in enumerate(self._slots):
            if worker is None or not worker.process.is_alive():
                continue
            seq = self._next_seq()
            try:
                worker.conn.send((command, seq))
            except (OSError, BrokenPipeError):
                continue
            pending.append((slot, worker, seq))
        replies = {}
        for slot, worker, seq in pending:
            reply = self._recv_reply(worker, expect, seq, timeout)
            if reply is not None:
                replies[slot] = reply
        return replies

    def _recv_reply(self, worker, expect: str, seq: int, timeout: float):
        """The reply payload for (*expect*, *seq*), or None on loss.

        Stale replies from an earlier timed-out command are drained and
        dropped (the seq echo makes them identifiable).
        """
        while True:
            try:
                if not worker.conn.poll(timeout):
                    return None
                message = worker.conn.recv()
            except (EOFError, OSError):
                return None
            if len(message) >= 2 and message[1] == seq:
                return message[2] if message[0] == expect else None
            # else: stale reply from a previous command; keep draining.

    def _monitor(self) -> None:
        """Restart dead workers until the fleet stops."""
        while not self._stopping.wait(POLL_INTERVAL):
            with self._lock:
                if self._stopping.is_set():
                    return
                for slot, worker in enumerate(self._slots):
                    if worker is not None:
                        if worker.process.is_alive():
                            continue
                        worker.process.join(timeout=0)
                        worker.conn.close()
                        self._slots[slot] = None
                    try:
                        self._spawn(slot)
                    except FleetError:
                        continue  # retry on the next tick
                    self._restarts += 1
                    self._slot_restarts[slot] += 1

    def __repr__(self) -> str:
        state = "started" if self._guard is not None else "stopped"
        return (
            f"ServingFleet({self.source.path}, "
            f"workers={self.workers}, {state})"
        )
