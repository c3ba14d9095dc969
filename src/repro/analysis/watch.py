"""Streaming ingestion: ``repro watch``, snapshots to live answers.

The daemon the ROADMAP's "streaming ingestion" item asks for, in one
long-running process: tail a snapshot *source* (a directory of snapshot
files, or any callable feed), roll each new
:class:`~repro.dns.openintel.DnsSnapshot` through the same
:class:`~repro.analysis.pipeline.RollingDetection` as ``detect-series``
(full build on the first date or an annotator change,
:class:`~repro.dns.openintel.SnapshotDelta` otherwise), append
the resulting generation to a ``.sparch`` archive through the
footer-commit protocol, and atomically hot-swap the in-process
:class:`~repro.serving.service.SiblingQueryService`.

Crash semantics are the archive's: every generation is durable at
commit, and a kill -9 anywhere — including mid-append — costs only the
uncommitted tail.  On restart the watcher repairs the archive
(:meth:`~repro.storage.archive.ArchiveWriter.open` with its default
``recover=True`` truncates any torn tail back to the committed end),
re-serves the newest committed generation immediately, and skips
snapshots already archived under the current annotator digest, so
replaying the same source directory is idempotent.

Every cycle is instrumented on the :mod:`repro.obs` layer (``watch.*``
metrics and stages, catalogued in ``docs/OBSERVABILITY.md``) and
surfaced on ``/v1/status`` through
:attr:`~repro.serving.http.SiblingHTTPServer.status_extras`.

The per-generation latency *budget* is observational, not preemptive —
pure-Python detection cannot be interrupted mid-date — so an overrun
increments ``watch.budget_overruns`` rather than aborting the cycle;
the churn-replay benchmark (``benchmarks/bench_watch_replay.py``)
asserts the publish-lag SLO built on these measurements.

Snapshot files are UTF-8 JSON (one snapshot per file, written
atomically via :func:`write_snapshot_file`)::

    {"format_version": 1, "date": "2024-09-01",
     "observations": [
        {"domain": "www.example.org",
         "v4": ["192.0.2.9"], "v6": ["2001:db8::9"]}]}
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import threading
import time
from typing import Callable, Iterable

from repro.analysis.pipeline import (
    RollingDetection,
    _append_archive,
    _pool_for_archive,
)
from repro.core.substrate import Substrate, get_substrate
from repro.dns.openintel import DnsSnapshot, DomainObservation
from repro.nettypes.addr import AddressError, format_address, parse_address
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_registry, trace
from repro.storage import substrate_io
from repro.storage.archive import ArchiveReader, ArchiveWriter

#: Snapshot-file schema version (independent of the archive format).
SNAPSHOT_FORMAT_VERSION = 1

#: Parse attempts per snapshot file before the source gives up on it.
MAX_PARSE_RETRIES = 3


class WatchError(RuntimeError):
    """A malformed snapshot file or an unusable watch configuration."""


# -- snapshot file codec -----------------------------------------------------


def write_snapshot_file(
    snapshot: DnsSnapshot, directory: "str | pathlib.Path"
) -> pathlib.Path:
    """Write *snapshot* into *directory* as ``<date>.json``, atomically.

    The temp-file + ``rename`` dance guarantees a concurrently polling
    :class:`SnapshotDirectorySource` never observes a half-written
    file.  Returns the final path.
    """
    directory = pathlib.Path(directory)
    payload = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "date": snapshot.date.isoformat(),
        "observations": [
            {
                "domain": observation.domain,
                "v4": [format_address(4, v) for v in observation.v4_addresses],
                "v6": [format_address(6, v) for v in observation.v6_addresses],
            }
            for observation in sorted(
                snapshot.observations(), key=lambda o: o.domain
            )
        ],
    }
    path = directory / f"{snapshot.date.isoformat()}.json"
    scratch = directory / f".{path.name}.tmp"
    scratch.write_text(json.dumps(payload, separators=(",", ":")))
    os.replace(scratch, path)
    return path


def read_snapshot_file(
    path: "str | pathlib.Path",
    known: "dict[str, tuple[int, int]] | None" = None,
    parsed: "dict[str, tuple[int, int]] | None" = None,
) -> DnsSnapshot:
    """Parse one snapshot file; raises :class:`WatchError` on anything
    malformed (bad JSON, wrong schema version, a domain that is not a
    non-empty string, addresses of the wrong family in a ``v4``/``v6``
    bucket).

    *known* maps address texts already accepted by
    :func:`~repro.nettypes.addr.parse_address` to their ``(version,
    value)``, so a text seen before is not parsed again.  Every string
    address of this file that parses is recorded in *parsed*; a caller
    that keeps *parsed* only when the call returns holds exactly the
    texts of the last clean file.  Neither changes the result.
    """
    known = {} if known is None else known
    parsed = {} if parsed is None else parsed
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bad UTF-8 and integer
        # literals over the int-digit limit; RecursionError, files
        # nested deeper than the decoder's stack.
        raise WatchError(f"cannot read snapshot file {path}: {exc}") from exc
    try:
        if payload["format_version"] != SNAPSHOT_FORMAT_VERSION:
            raise WatchError(
                f"{path}: unsupported snapshot format version "
                f"{payload['format_version']!r}"
            )
        date = datetime.date.fromisoformat(payload["date"])
        observations = [
            DomainObservation(
                _parse_domain(entry["domain"], path),
                _parse_family(entry.get("v4", ()), 4, path, known, parsed),
                _parse_family(entry.get("v6", ()), 6, path, known, parsed),
            )
            for entry in payload["observations"]
        ]
    except WatchError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WatchError(f"malformed snapshot file {path}: {exc}") from exc
    return DnsSnapshot(date, observations)


def _parse_domain(domain, path: pathlib.Path) -> str:
    if not isinstance(domain, str) or not domain:
        raise WatchError(f"{path}: bad domain {domain!r}")
    return domain


def _parse_family(
    texts: Iterable[str],
    version: int,
    path: pathlib.Path,
    known: dict[str, tuple[int, int]],
    parsed: dict[str, tuple[int, int]],
) -> tuple[int, ...]:
    values = []
    for text in texts:
        if isinstance(text, str):
            address = known.get(text) or parsed.get(text)
            if address is None:
                address = _parse_text(text, path)
            parsed[text] = address
        else:
            address = _parse_text(text, path)
        if address[0] != version:
            raise WatchError(
                f"{path}: address {text!r} is not IPv{version}"
            )
        values.append(address[1])
    return tuple(values)


def _parse_text(text, path: pathlib.Path) -> tuple[int, int]:
    try:
        return parse_address(str(text))
    except AddressError as exc:
        raise WatchError(f"{path}: bad address {text!r}: {exc}") from exc


# -- snapshot sources --------------------------------------------------------


class SnapshotDirectorySource:
    """Tails a directory of snapshot files, newest-unseen first served.

    Each :meth:`poll` returns the snapshots of every not-yet-consumed
    file (date order), marking them consumed.  A file that fails to
    parse is retried on later polls — a non-atomic writer may still be
    mid-write — and abandoned after :data:`MAX_PARSE_RETRIES` attempts;
    every failed attempt is reported through the watcher's
    ``watch.source_errors`` counter via :attr:`errors`.

    Consecutive files repeat most of their address texts, so the source
    passes the texts of the last file that parsed cleanly to
    :func:`read_snapshot_file` and parses only the new ones.  The memo
    holds one file's texts at most; a file that fails leaves it as it
    was.
    """

    def __init__(self, directory: "str | pathlib.Path", pattern: str = "*.json"):
        self.directory = pathlib.Path(directory)
        self.pattern = pattern
        #: Cumulative failed parse attempts (drained by the watcher).
        self.errors = 0
        self._consumed: set[str] = set()
        self._failures: dict[str, int] = {}
        self._texts: dict[str, tuple[int, int]] = {}

    def _pending(self) -> list[pathlib.Path]:
        return sorted(
            path
            for path in self.directory.glob(self.pattern)
            if path.name not in self._consumed
        )

    def backlog(self) -> int:
        """Files visible in the directory but not yet consumed."""
        return len(self._pending())

    def poll(self) -> list[DnsSnapshot]:
        """Consume every parseable pending file; date-ordered snapshots."""
        snapshots = []
        for path in self._pending():
            texts: dict[str, tuple[int, int]] = {}
            try:
                snapshot = read_snapshot_file(path, self._texts, texts)
            except WatchError:
                self.errors += 1
                failures = self._failures.get(path.name, 0) + 1
                self._failures[path.name] = failures
                if failures >= MAX_PARSE_RETRIES:
                    self._consumed.add(path.name)  # give up on this file
                continue
            self._texts = texts
            self._consumed.add(path.name)
            self._failures.pop(path.name, None)
            snapshots.append(snapshot)
        snapshots.sort(key=lambda snapshot: snapshot.date)
        return snapshots


class _CallableSource:
    """Adapts a feed callable (``() -> iterable of snapshots | None``)
    to the source protocol."""

    def __init__(self, feed: Callable):
        self._feed = feed
        self.errors = 0

    def backlog(self) -> int:
        return 0

    def poll(self) -> list[DnsSnapshot]:
        produced = self._feed()
        snapshots = list(produced) if produced is not None else []
        snapshots.sort(key=lambda snapshot: snapshot.date)
        return snapshots


class _SingleDateUniverse:
    """The one-date universe shim ``_append_archive`` consumes."""

    def __init__(self, snapshot: DnsSnapshot, annotator):
        self._snapshot = snapshot
        self._annotator = annotator

    def snapshot_at(self, date):
        return self._snapshot

    def annotator_at(self, date):
        return self._annotator


# -- the watcher -------------------------------------------------------------


class SnapshotWatcher:
    """The ``repro watch`` loop: source → delta → archive → hot-swap.

    *source* is a :class:`SnapshotDirectorySource` (or anything with
    ``poll()``/``backlog()``/``errors``), or a bare feed callable.
    *annotator_for* maps a date to its routing annotator (a universe's
    ``annotator_at`` bound method in practice).  *service* (optional)
    is hot-swapped after every changed generation.

    Constructing the watcher repairs the archive (truncating any torn
    tail), adopts its intern pool, and — when *service* is given and
    the archive already holds generations — immediately re-serves the
    newest committed one, which is the kill -9 recovery path end to
    end.
    """

    def __init__(
        self,
        source,
        annotator_for: Callable,
        archive: "str | pathlib.Path",
        service=None,
        substrate: "str | Substrate | None" = None,
        budget_seconds: "float | None" = None,
        poll_interval: float = 0.5,
        registry: "MetricsRegistry | None" = None,
    ):
        self.source = source if hasattr(source, "poll") else _CallableSource(source)
        self.archive = pathlib.Path(archive)
        self.poll_interval = poll_interval
        self.budget_seconds = budget_seconds
        self._annotator_for = annotator_for
        self._service = service

        registry = registry if registry is not None else get_registry()
        self._m_snapshots = registry.counter("watch.snapshots")
        self._m_generations = registry.counter("watch.generations")
        self._m_swaps_skipped = registry.counter("watch.swaps_skipped")
        self._m_budget_overruns = registry.counter("watch.budget_overruns")
        self._m_source_errors = registry.counter("watch.source_errors")
        self._m_publish_lag = registry.histogram("watch.publish_lag_seconds")
        self._m_cycle = registry.histogram("watch.cycle_seconds")
        self._m_backlog = registry.gauge("watch.backlog")
        self._m_last_lag = registry.gauge("watch.last_publish_lag_seconds")

        # Repair (or create) the archive, then adopt its state: torn
        # tails are truncated here, so every later append starts from
        # the committed end.
        with ArchiveWriter.open(self.archive):
            pass
        with ArchiveReader.open(self.archive) as reader:
            pool_names = reader.pool_names()
            self._archived = {
                generation.date: generation.annotator_signature
                for generation in reader.generations
                if substrate_io.SIBLINGS_KIND in generation.meta
            }
        engine, self._pool = _pool_for_archive(
            get_substrate(substrate), pool_names
        )
        self._rolling = RollingDetection(engine)

        self.generations = len(self._archived)
        #: Snapshots polled but not yet processed (an early return from
        #: :meth:`run` — ``max_generations`` or *stop* — must not drop
        #: the rest of the batch: the source already consumed it).
        self._pending: list[DnsSnapshot] = []
        self._reported_errors = 0
        self._published = None
        self._last_date: "datetime.date | None" = None
        self._last_lag: "float | None" = None
        self._last_cycle: "float | None" = None
        self._overruns = 0

        if self._service is not None and self.generations:
            self._service.swap_from_archive(self.archive)

    # -- one cycle -----------------------------------------------------------

    def process(self, snapshot: DnsSnapshot, seen_at: "float | None" = None) -> bool:
        """Ingest one snapshot; returns whether a generation was appended.

        *seen_at* (``time.monotonic``) is when the snapshot became
        available; the publish lag recorded for the SLO spans from
        there to the completed hot-swap.
        """
        start = time.monotonic()
        seen_at = start if seen_at is None else seen_at
        self._m_snapshots.inc()
        date = snapshot.date
        if self._last_date is not None and date <= self._last_date:
            # Stale or duplicate date: the rolling index only moves
            # forward.  Counted with the source errors — a well-formed
            # feed never goes backward.
            self._m_source_errors.inc()
            return False
        annotator = self._annotator_for(date)
        digest = substrate_io.annotator_digest(annotator)
        if self._archived.get(date.isoformat()) == digest:
            # Restart catch-up: this date survived the crash (it was
            # committed); replaying its file is a no-op.
            self._last_date = date
            return False
        with trace("watch.detect"):
            siblings = self._rolling.advance(snapshot, annotator)
        with trace("watch.append"):
            # No final index, so no columnar state: a restarted watcher
            # starts a fresh roll, and nothing else would read it.
            _append_archive(
                self.archive,
                _SingleDateUniverse(snapshot, annotator),
                [(date, siblings)],
                self._pool,
                self._rolling.engine,
                None,
            )
        self._archived[date.isoformat()] = digest
        self.generations += 1
        self._m_generations.inc()
        with trace("watch.publish"):
            if self._published is not None and self._published.same_pairs(
                siblings
            ):
                # Same pairs as served: skip the remap/swap — generation
                # counters track real publishes only.
                self._m_swaps_skipped.inc()
            elif self._service is not None:
                self._service.swap_from_archive(self.archive)
        self._published = siblings
        self._last_date = date
        done = time.monotonic()
        self._last_lag = done - seen_at
        self._last_cycle = done - start
        self._m_publish_lag.observe(self._last_lag)
        self._m_last_lag.set(self._last_lag)
        self._m_cycle.observe(self._last_cycle)
        if (
            self.budget_seconds is not None
            and self._last_cycle > self.budget_seconds
        ):
            self._overruns += 1
            self._m_budget_overruns.inc()
        return True

    # -- the loop ------------------------------------------------------------

    def run(
        self,
        stop: "threading.Event | None" = None,
        max_generations: "int | None" = None,
        once: bool = False,
    ) -> int:
        """Poll-and-process until stopped; returns generations appended.

        ``once=True`` drains the currently visible backlog and returns
        (the replay/benchmark mode); otherwise the loop sleeps
        ``poll_interval`` between empty polls until *stop* is set (or
        *max_generations* new generations landed).  *max_generations*
        below 1 raises :class:`ValueError`.
        """
        if max_generations is not None and max_generations < 1:
            raise ValueError(
                f"max_generations must be at least 1, got {max_generations}"
            )
        stop = stop if stop is not None else threading.Event()
        appended = 0
        while not stop.is_set():
            with trace("watch.poll") as span:
                polled = self.source.poll()
                span.add_items(len(polled))
            self._drain_source_errors()
            batch = self._pending + polled
            self._pending = []
            seen_at = time.monotonic()
            for position, snapshot in enumerate(batch):
                if self.process(snapshot, seen_at=seen_at):
                    appended += 1
                if max_generations is not None and appended >= max_generations:
                    self._pending = batch[position + 1:]
                    self._m_backlog.set(self._backlog())
                    return appended
                if stop.is_set():
                    self._pending = batch[position + 1:]
                    break
            self._m_backlog.set(self._backlog())
            if not batch:
                if once:
                    return appended
                stop.wait(self.poll_interval)
        return appended

    def _backlog(self) -> int:
        return self.source.backlog() + len(self._pending)

    def _drain_source_errors(self) -> None:
        errors = getattr(self.source, "errors", 0)
        if errors > self._reported_errors:
            self._m_source_errors.inc(errors - self._reported_errors)
            self._reported_errors = errors

    # -- status --------------------------------------------------------------

    def status(self) -> dict:
        """JSON-able loop state, merged into ``/v1/status`` via the
        server's ``status_extras`` seam."""
        backlog = self._backlog()
        self._m_backlog.set(backlog)
        return {
            "archive": str(self.archive),
            "generations": self.generations,
            "last_date": (
                self._last_date.isoformat() if self._last_date else None
            ),
            "backlog": backlog,
            "swaps_skipped": self._m_swaps_skipped.value,
            "publish_lag_seconds": self._last_lag,
            "cycle_seconds": self._last_cycle,
            "budget_seconds": self.budget_seconds,
            "budget_overruns": self._overruns,
            "poll_interval_seconds": self.poll_interval,
        }


__all__ = [
    "MAX_PARSE_RETRIES",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotDirectorySource",
    "SnapshotWatcher",
    "WatchError",
    "read_snapshot_file",
    "write_snapshot_file",
]
