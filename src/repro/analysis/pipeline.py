"""Pipeline plumbing shared by the analyses and benches.

All entry points accept a ``substrate=`` argument (name or
:class:`~repro.core.substrate.Substrate` instance) and default to a
fresh columnar engine; :func:`detect_series` resolves the substrate
once so a longitudinal run reuses one interned domain table across every
snapshot it detects on.

Every multi-date run — :func:`detect_series` and the ``repro watch``
daemon (:mod:`repro.analysis.watch`) — rolls one
:class:`RollingDetection` forward: the first date builds its index in
full, every later date applies the snapshot delta to the *same*
evolving index (re-annotating only churned domains) and hands each
index delta to the substrate, which patches its persistent Step-3
counters, so detection cost scales with daily churn instead of dataset
size.  The roll is exact —
bit-identical to :func:`detect_at` on every date — because delta
application is gated on the annotator's content signature: a date whose
routing tables changed rebuilds from scratch, automatically.

``archive=PATH`` (on :func:`detect_series`, plus the single-date
:func:`archive_detection` behind ``repro detect --archive``) persists
every detected date into a ``.sparch`` snapshot archive
(:mod:`repro.storage`) and *resumes* from one: dates already archived
load back instead of recomputing (gated on the annotator digest), and
the run restores the newest archived columnar state — interned pool,
CSR posting lists, packed Step-3 counters — so it continues
delta-rolling from the last archived date rather than re-detecting the
whole prefix of the series.
"""

from __future__ import annotations

import datetime
import pathlib
from typing import Iterable

from repro.core.detection import detect_with_index
from repro.core.domainsets import PrefixDomainIndex, build_index
from repro.core.siblings import SiblingSet
from repro.core.sptuner import SpTunerMS, TunerConfig
from repro.core.substrate import (
    ColumnarSubstrate,
    DomainPool,
    Substrate,
    get_substrate,
)
from repro.dates import add_months
from repro.obs.tracing import trace
from repro.synth.universe import Universe


def detect_at(
    universe: Universe,
    date: datetime.date,
    substrate: "str | Substrate | None" = None,
) -> tuple[SiblingSet, PrefixDomainIndex]:
    """Default-case (BGP-announced) sibling detection on one date."""
    snapshot = universe.snapshot_at(date)
    annotator = universe.annotator_at(date)
    return detect_with_index(snapshot, annotator, substrate=substrate)


def tuned_at(
    universe: Universe,
    date: datetime.date,
    config: TunerConfig = TunerConfig(),
    substrate: "str | Substrate | None" = None,
) -> tuple[SiblingSet, PrefixDomainIndex]:
    """SP-Tuner-refined sibling detection on one date."""
    siblings, index = detect_at(universe, date, substrate=substrate)
    tuner = SpTunerMS(index, config)
    return tuner.tune_all(siblings), index


class RollingDetection:
    """One sibling index rolled forward from snapshot to snapshot.

    :meth:`advance` builds the index in full on the first snapshot and
    whenever the annotator's content signature changed (a routing change
    can re-annotate *any* domain, not just churned ones); otherwise it
    applies the :class:`~repro.dns.openintel.SnapshotDelta` from the
    previous snapshot to the same index and hands the resulting index
    delta to :meth:`engine.patch <repro.core.substrate.Substrate.patch>`,
    which patches its columnar view and persistent Step-3 counters.
    Each date's sibling set equals :func:`detect_at` on that date.  The
    roll may be seeded with an *index* and the *snapshot* and
    annotator *signature* it was built from (archive resume).
    """

    def __init__(
        self,
        engine: Substrate,
        index: "PrefixDomainIndex | None" = None,
        snapshot=None,
        signature=None,
    ):
        self.engine = engine
        #: The evolving index (``None`` before the first snapshot).
        self.index = index
        self._snapshot = snapshot
        self._signature = signature

    def advance(self, snapshot, annotator) -> SiblingSet:
        """Roll the index onto *snapshot*; returns its sibling set."""
        signature = annotator.signature()
        if self.index is None or signature != self._signature:
            self.index = build_index(snapshot, annotator)
        else:
            with trace("series.delta_compute") as span:
                delta = self._snapshot.delta_to(snapshot)
                span.add_items(delta.touched_domains)
            with trace("series.delta_apply", items=delta.touched_domains):
                index_delta = self.index.apply_delta(delta, annotator)
            self.engine.patch(self.index, index_delta)
        self._snapshot = snapshot
        self._signature = signature
        with trace("step34.select") as span:
            siblings = self.engine.select(self.index)
            span.add_items(len(siblings))
        return siblings


def _roll(
    rolling: RollingDetection, universe: Universe, dates: Iterable[datetime.date]
) -> list[tuple[datetime.date, SiblingSet]]:
    return [
        (
            date,
            rolling.advance(universe.snapshot_at(date), universe.annotator_at(date)),
        )
        for date in dates
    ]


def detect_series(
    universe: Universe,
    dates: Iterable[datetime.date],
    substrate: "str | Substrate | None" = None,
    archive: "str | pathlib.Path | None" = None,
) -> list[tuple[datetime.date, SiblingSet]]:
    """Detect siblings on every date, rolling one index forward.

    The resolved substrate is threaded through all snapshots, so the
    columnar engine interns each domain string once for the whole run
    rather than once per date.  The first date builds its index in
    full; each later date applies its snapshot delta to the same index
    unless the routing changed (see :class:`RollingDetection`).  Results
    are bit-identical to :func:`detect_at` on every date.

    With ``archive=PATH`` the series is backed by a ``.sparch``
    snapshot archive: leading dates already archived (same date, same
    annotator digest) load back instead of recomputing, the remaining
    dates resume from the archived columnar state of the last archived
    date when it matches, and every newly computed date is appended to
    the archive (sibling list + compiled lookup index, plus the final
    date's substrate state).  Results stay bit-identical to an
    archiveless run; if a passed engine's intern pool has diverged from
    the archived one, a fresh engine of the same class is used for the
    run instead.
    """
    engine = get_substrate(substrate)
    if archive is not None:
        return _detect_series_archived(
            universe, list(dates), engine, pathlib.Path(archive)
        )
    return _roll(RollingDetection(engine), universe, dates)


def _pool_for_archive(engine: Substrate, pool_names: list[str]):
    """The (engine, pool) pair an archived run writes gids against.

    A columnar engine must share its intern pool with the archive
    (archived state CSR data *is* pool gids); adoption fails only when
    a passed engine already interned a different universe, in which
    case a fresh engine of the same class takes over — exactness beats
    instance reuse.  Other engines write against a new
    :class:`~repro.core.substrate.DomainPool`.
    """
    if not isinstance(engine, ColumnarSubstrate):
        pool = DomainPool()
        pool.adopt(pool_names)
        return engine, pool
    try:
        engine.pool.adopt(pool_names)
    except ValueError:
        engine = type(engine)()
        engine.pool.adopt(pool_names)
    return engine, engine.pool


def _append_archive(
    path: pathlib.Path,
    universe: Universe,
    new_results: list[tuple[datetime.date, SiblingSet]],
    pool,
    engine: Substrate,
    final_index: "PrefixDomainIndex | None",
    published_by_date: "dict | None" = None,
    raw: bool = True,
) -> None:
    """Append newly computed dates to the archive.

    Each generation holds the date's sibling list and lookup index.
    With a *final_index* and a columnar *engine*, the last date also
    carries the engine's columnar state and the index's content
    signature, which a later :func:`detect_series` resumes from;
    ``detect-series --archive`` and ``detect --archive`` pass one, the
    ``repro watch`` loop does not.

    *raw* records whether the sibling lists are untransformed detection
    output; tuned or filtered lists are archived with ``raw: false`` so
    an archived ``detect_series`` never replays them as detections.
    """
    from repro.serving.index import SiblingLookupIndex
    from repro.storage import index_io, substrate_io
    from repro.storage.archive import ArchiveWriter

    with ArchiveWriter.open(path) as writer:
        for position, (date, siblings) in enumerate(new_results):
            digest = substrate_io.annotator_digest(universe.annotator_at(date))
            # Idempotence is per (date, detection identity): a date whose
            # routing changed since it was archived gets a *new*
            # generation — newest wins on read — so the archive heals
            # instead of serving the stale result forever.
            if writer.has_generation(
                date.isoformat(), substrate_io.SIBLINGS_KIND, digest
            ):
                continue
            segments, siblings_meta = substrate_io.siblings_segments(
                siblings, pool.intern
            )
            siblings_meta["raw"] = raw
            published = (published_by_date or {}).get(date)
            lookup_segments, index_meta = index_io.index_segments(
                SiblingLookupIndex.from_pairs(published, date)
                if published is not None
                else SiblingLookupIndex.from_siblings(siblings)
            )
            segments.update(lookup_segments)
            meta = {
                substrate_io.SIBLINGS_KIND: siblings_meta,
                index_io.KIND: index_meta,
            }
            index_signature = None
            is_final = position == len(new_results) - 1
            if (
                is_final
                and final_index is not None
                and isinstance(engine, ColumnarSubstrate)
            ):
                state = engine.prepare(final_index)
                state_segments, state_meta = substrate_io.state_segments(state)
                state_segments["state.dom_gids"] = substrate_io.state_dom_gids(
                    state, pool.intern
                )
                segments.update(state_segments)
                meta[substrate_io.STATE_KIND] = state_meta
                index_signature = final_index.content_signature()
            writer.append_generation(
                date.isoformat(),
                segments,
                meta,
                annotator_signature=digest,
                index_signature=index_signature,
            )
        writer.append_pool(pool.names[writer.pool_count:])


def _detect_series_archived(
    universe: Universe,
    dates: list[datetime.date],
    engine: Substrate,
    path: pathlib.Path,
) -> list[tuple[datetime.date, SiblingSet]]:
    """The archive-backed :func:`detect_series` body: load the archived
    prefix of the series, resume state when possible, append the rest."""
    from repro.storage import substrate_io
    from repro.storage.archive import ArchiveReader

    archived: list[tuple[datetime.date, SiblingSet]] = []
    pool_names: list[str] = []
    rolling = None
    if path.exists():
        with ArchiveReader.open(path) as reader:
            pool_names = reader.pool_names()
            by_date = reader.generations_by_date(substrate_io.SIBLINGS_KIND)
            for date in dates:
                generation = by_date.get(date.isoformat())
                if generation is None or (
                    not generation.meta[substrate_io.SIBLINGS_KIND].get(
                        "raw", True
                    )
                ) or (
                    generation.annotator_signature
                    != substrate_io.annotator_digest(universe.annotator_at(date))
                ):
                    break
                archived.append(
                    (date, substrate_io.load_siblings(generation, pool_names))
                )
            if archived and len(archived) < len(dates):
                engine, pool = _pool_for_archive(engine, pool_names)
                rolling = _resumed(
                    reader,
                    universe,
                    archived[-1][0],
                    dates[len(archived)],
                    engine,
                    pool_names,
                )
    remaining = dates[len(archived):]
    if not remaining:
        return archived

    if rolling is None:
        engine, pool = _pool_for_archive(engine, pool_names)
        rolling = RollingDetection(engine)
    new_results = _roll(rolling, universe, remaining)
    _append_archive(path, universe, new_results, pool, engine, rolling.index)
    return archived + new_results


def _resumed(
    reader,
    universe: Universe,
    date: datetime.date,
    next_date: datetime.date,
    engine: Substrate,
    pool_names: list[str],
) -> RollingDetection:
    """A roll seeded from the archived columnar state of *date*.

    The state is adopted only when it was archived for *date* itself,
    the routing does not change between *date* and *next_date* (else
    the roll would rebuild at once) and the rebuilt index's content
    signature matches the archived one; otherwise the returned roll
    starts from scratch.
    """
    from repro.storage import substrate_io

    state_generation = reader.latest(substrate_io.STATE_KIND)
    if (
        state_generation is None
        or state_generation.date != date.isoformat()
        or not isinstance(engine, ColumnarSubstrate)
    ):
        return RollingDetection(engine)
    annotator = universe.annotator_at(date)
    if annotator.signature() != universe.annotator_at(next_date).signature():
        return RollingDetection(engine)
    snapshot = universe.snapshot_at(date)
    index = build_index(snapshot, annotator)
    if state_generation.index_signature != index.content_signature():
        return RollingDetection(engine)
    state = substrate_io.restore_state(state_generation, pool_names)
    try:
        engine.adopt_state(index, state)
    except ValueError:
        return RollingDetection(engine)  # structure drifted: plain rebuild
    return RollingDetection(engine, index, snapshot, annotator.signature())


def archive_detection(
    archive: "str | pathlib.Path",
    universe: Universe,
    date: datetime.date,
    siblings: SiblingSet,
    index: "PrefixDomainIndex | None" = None,
    substrate: "str | Substrate | None" = None,
    published: "list | None" = None,
    raw: bool = True,
) -> pathlib.Path:
    """Append one date's detection artifacts to a ``.sparch`` archive.

    The single-date sibling of the ``archive=`` mode of
    :func:`detect_series`, behind ``repro detect --archive``: the
    sibling list, a compiled lookup index (built from *published*
    enriched pairs when given, else from the raw *siblings*), and —
    when *index* is the detection's :class:`PrefixDomainIndex` and the
    engine is columnar — the substrate state, so a later
    ``detect-series --archive`` resumes from this date.  Pass the
    engine that detected as *substrate*: a fresh one archives the
    state without its Step-3 counter.  A date already
    archived under the same annotator digest is skipped (appends are
    idempotent per (date, annotator digest); a date whose routing
    changed gets a new generation).  Creates the archive if missing;
    returns its path.
    """
    from repro.storage.archive import ArchiveReader

    path = pathlib.Path(archive)
    engine = get_substrate(substrate)
    pool_names: list[str] = []
    if path.exists():
        with ArchiveReader.open(path) as reader:
            pool_names = reader.pool_names()
    engine, pool = _pool_for_archive(engine, pool_names)
    _append_archive(
        path,
        universe,
        [(date, siblings)],
        pool,
        engine,
        index,
        published_by_date={date: published} if published is not None else None,
        raw=raw,
    )
    return path


def paper_offsets(
    reference: datetime.date,
) -> list[tuple[str, datetime.date]]:
    """The x-axis of Figures 7/9/11/12: Year -4 … Day 0."""
    return [
        ("Year -4", add_months(reference, -48)),
        ("Year -3", add_months(reference, -36)),
        ("Year -2", add_months(reference, -24)),
        ("Year -1", add_months(reference, -12)),
        ("Month -6", add_months(reference, -6)),
        ("Month -3", add_months(reference, -3)),
        ("Month -1", add_months(reference, -1)),
        ("Week -1", reference - datetime.timedelta(days=7)),
        ("Day -1", reference - datetime.timedelta(days=1)),
        ("Day 0", reference),
    ]


def stability_offsets(
    reference: datetime.date,
) -> list[tuple[str, datetime.date]]:
    """The x-axis of Figure 7 centre/right (one-year lookback)."""
    return [
        ("Day 0", reference),
        ("Day -1", reference - datetime.timedelta(days=1)),
        ("Week -1", reference - datetime.timedelta(days=7)),
        ("Month -1", add_months(reference, -1)),
        ("Month -3", add_months(reference, -3)),
        ("Month -6", add_months(reference, -6)),
        ("Year -1", add_months(reference, -12)),
    ]
