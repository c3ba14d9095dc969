"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``detect``     — run the detection pipeline on a scenario and print or
  export the sibling prefix list (CSV/JSONL, optionally tuned), and/or
  append it with its compiled lookup index to a ``.sparch`` snapshot
  archive (``--archive``).
* ``detect-series`` — run detection over a longitudinal date series
  (one shared substrate/intern pool across all snapshots); with
  ``--archive`` the series resumes from / appends to an archive.
* ``experiment`` — run any registered per-figure experiment.
* ``scenarios``  — list the available scenario presets.
* ``scenario``   — run a scripted longitudinal event scenario (rollout,
  renumber, rotation, aliased, orgchurn, mixed) through the rolling
  detection loop — or the full watch daemon with ``--via watch`` — and score
  detection exactly against the generator's ground-truth ledger
  (``--score``).
* ``lookup``     — longest-prefix-match query against a ``.sparch``
  archive (``mmap`` attach) or a CSV export (streamed).
* ``serve``      — stand up the JSON HTTP lookup endpoint over a CSV
  export, or ``--archive`` for a zero-copy ``mmap`` attach.
* ``status``     — fetch and render a serving endpoint's ``/v1/status``.
* ``watch``      — the streaming ingestion daemon: tail a directory of
  snapshot files, roll each new snapshot through the same detection
  loop, append the generation to a ``.sparch`` archive, and
  hot-swap the (optionally HTTP-served) query service.
* ``archive``    — operate on a ``.sparch`` archive: ``verify`` scrubs
  every segment CRC, ``repair`` truncates a torn tail back to the last
  committed generation.

``detect`` and ``detect-series`` accept ``--stats`` to print the
per-stage wall/CPU timing table (Steps 1-4) recorded by the
telemetry layer (:mod:`repro.obs`) after the run.

Exit codes: 0 success, 1 lookup miss, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.sptuner import SpTunerMS, TunerConfig
from repro.dates import REFERENCE_DATE


def _add_stats_option(command: argparse.ArgumentParser) -> None:
    """The shared ``--stats`` flag."""
    command.add_argument(
        "--stats",
        action="store_true",
        help="after the run, print the per-stage wall/CPU timing table "
        "(Steps 1-4) to stderr",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sibling prefix detection (IMC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="detect sibling prefixes")
    detect.add_argument("--scenario", default="tiny", help="scenario preset")
    detect.add_argument(
        "--tune",
        metavar="V4,V6",
        help="apply SP-Tuner with these thresholds, e.g. 28,96",
    )
    detect.add_argument(
        "--format", choices=("table", "csv", "jsonl"), default="table"
    )
    detect.add_argument(
        "--output", "-o", help="write to this file instead of stdout"
    )
    detect.add_argument(
        "--archive",
        metavar="PATH",
        help="append this date's detection (sibling list, compiled lookup "
        "index, substrate state) to the .sparch snapshot archive at PATH, "
        "creating it if missing (servable via `repro serve --archive`)",
    )
    detect.add_argument(
        "--with-rov", action="store_true", help="attach ROV status (slower)"
    )
    detect.add_argument(
        "--min-jaccard", type=float, default=0.0, help="similarity floor"
    )
    _add_stats_option(detect)

    series = sub.add_parser(
        "detect-series", help="detect over a longitudinal date series"
    )
    series.add_argument("--scenario", default="tiny", help="scenario preset")
    series.add_argument(
        "--offsets",
        choices=("paper", "stability"),
        default="paper",
        help="date grid: the paper's Year -4 … Day 0 axis, or the "
        "one-year stability lookback",
    )
    series.add_argument(
        "--format", choices=("table", "csv"), default="table"
    )
    series.add_argument(
        "--output", "-o", help="write to this file instead of stdout"
    )
    series.add_argument(
        "--archive",
        metavar="PATH",
        help="back the series by the .sparch snapshot archive at PATH: "
        "already-archived dates load back instead of recomputing "
        "(the run resumes from the archived substrate state), and newly "
        "detected dates are appended",
    )
    _add_stats_option(series)

    experiment = sub.add_parser("experiment", help="run a per-figure experiment")
    experiment.add_argument("experiment_id", help="e.g. fig05, sec42")
    experiment.add_argument("--scenario", default="tiny")

    sub.add_parser("scenarios", help="list scenario presets")

    scenario = sub.add_parser(
        "scenario",
        help="run a scripted longitudinal event scenario with exact "
        "ground-truth scoring",
    )
    scenario.add_argument(
        "op",
        choices=("run", "list"),
        help="run: drive the named event script through the rolling "
        "detection loop and score detection against the generator's ledger; "
        "list: show the scripted scenario grid",
    )
    scenario.add_argument(
        "name",
        nargs="?",
        help="event scenario name (e.g. rollout, rotation, aliased, "
        "mixed); required for run",
    )
    scenario.add_argument(
        "--score",
        action="store_true",
        help="print the per-date precision/recall/F1/churn-lag table "
        "against the ground-truth ledger",
    )
    scenario.add_argument(
        "--scale",
        type=int,
        default=1,
        metavar="N",
        help="multiply the script's deployment cast by N (the bench grid "
        "runs 1/10/100)",
    )
    scenario.add_argument(
        "--base",
        default="tiny",
        help="scenario preset supplying the organization population the "
        "scripted deployments are attributed to",
    )
    scenario.add_argument(
        "--archive",
        metavar="PATH",
        help="back the run by the .sparch snapshot archive at PATH "
        "(resume + append, exactly as detect-series --archive)",
    )
    scenario.add_argument(
        "--via",
        choices=("pipeline", "watch"),
        default="pipeline",
        help="pipeline: call detect_series directly; watch: write the "
        "event series into a snapshot-file feed and drain it through "
        "the `repro watch` daemon (archive-backed), then score the "
        "archived generations",
    )
    _add_stats_option(scenario)

    lookup = sub.add_parser("lookup", help="query an exported list (LPM)")
    lookup.add_argument(
        "list_file",
        help="CSV export from `detect --format csv` or a .sparch archive "
        "from `detect --archive`",
    )
    lookup.add_argument("query", help="IPv4/IPv6 prefix or address")

    serve = sub.add_parser("serve", help="run the JSON HTTP lookup service")
    serve.add_argument(
        "list_file",
        nargs="?",
        help="CSV export to serve (omit with --archive)",
    )
    serve.add_argument(
        "--archive",
        metavar="PATH",
        help="serve the newest generation of the .sparch snapshot archive "
        "at PATH (mmap attach: no recompilation at start)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)

    watch = sub.add_parser(
        "watch", help="stream snapshots from a directory into an archive"
    )
    watch.add_argument(
        "directory",
        help="snapshot source directory to tail (one JSON snapshot file "
        "per date; see repro.analysis.watch.write_snapshot_file)",
    )
    watch.add_argument(
        "--archive",
        metavar="PATH",
        required=True,
        help="the .sparch archive to append generations to (created if "
        "missing, repaired if a previous run crashed mid-append)",
    )
    watch.add_argument(
        "--scenario",
        default="tiny",
        help="scenario preset supplying the per-date routing annotators",
    )
    watch.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="S",
        help="seconds between source polls when idle",
    )
    watch.add_argument(
        "--budget",
        type=float,
        default=5.0,
        metavar="S",
        help="per-generation latency budget in seconds; overruns are "
        "counted on watch.budget_overruns (0 disables)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="drain the currently visible backlog and exit (replay mode)",
    )
    watch.add_argument(
        "--max-generations",
        type=int,
        default=None,
        metavar="N",
        help="exit after appending N new generations",
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="P",
        help="also serve lookups plus /v1/status and /v1/metrics over "
        "HTTP on this port (0 = pick a free port; omit to run headless)",
    )
    _add_stats_option(watch)

    archive = sub.add_parser(
        "archive", help="verify or repair a .sparch snapshot archive"
    )
    archive.add_argument(
        "op",
        choices=("verify", "repair"),
        help="verify: CRC-scrub every segment (torn archives are "
        "rejected); repair: scan backward for the last committed footer "
        "and truncate the torn tail",
    )
    archive.add_argument("path", help="the .sparch archive file")

    status = sub.add_parser(
        "status", help="fetch and render a serving endpoint's /v1/status"
    )
    status.add_argument(
        "url",
        help="base URL of a `serve` or `watch --port` endpoint, e.g. "
        "http://127.0.0.1:8080 (the /v1/status path is appended if "
        "missing)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON payload instead of the rendered view",
    )
    status.add_argument(
        "--timeout", type=float, default=10.0, help="HTTP timeout, seconds"
    )
    return parser


def _print_stage_stats() -> None:
    """The ``--stats`` payload: the telemetry layer's stage table."""
    from repro.obs.tracing import get_registry, stage_table

    print(stage_table(get_registry().snapshot()), file=sys.stderr)


def _parse_thresholds(text: str) -> TunerConfig:
    try:
        v4_text, v6_text = text.split(",")
        return TunerConfig(v4_threshold=int(v4_text), v6_threshold=int(v6_text))
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"invalid --tune value {text!r}: {exc}")


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.core.detection import detect_with_index
    from repro.core.siblings import SiblingSet
    from repro import publish
    from repro.obs.tracing import trace
    from repro.synth import build_universe

    universe = build_universe(args.scenario)
    siblings, index = detect_with_index(
        universe.snapshot_at(REFERENCE_DATE),
        universe.annotator_at(REFERENCE_DATE),
    )
    if args.tune:
        config = _parse_thresholds(args.tune)
        siblings = SpTunerMS(index, config).tune_all(siblings)
    if args.min_jaccard > 0.0:
        siblings = SiblingSet(
            siblings.date,
            (p for p in siblings if p.similarity >= args.min_jaccard),
        )

    repository = None
    if args.with_rov:
        from repro.rpki.builder import repository_from_universe

        repository = repository_from_universe(universe)
    published = publish.enrich_pairs(
        universe, siblings, REFERENCE_DATE, repository
    )
    if args.archive:
        from repro.analysis.pipeline import archive_detection

        archive_detection(
            args.archive,
            universe,
            REFERENCE_DATE,
            siblings,
            index=index,
            published=published,
            raw=not (args.tune or args.min_jaccard > 0.0),
        )
        print(
            f"archived {len(published)} pairs into {args.archive}",
            file=sys.stderr,
        )

    with trace("publish.write", items=len(published)):
        stream = open(args.output, "w") if args.output else sys.stdout
        try:
            if args.format == "csv":
                publish.write_csv(published, stream, REFERENCE_DATE)
            elif args.format == "jsonl":
                publish.write_jsonl(published, stream, REFERENCE_DATE)
            else:
                stream.write(
                    f"{len(published)} sibling pairs "
                    f"(perfect: {siblings.perfect_match_share:.1%})\n"
                )
                org = {True: "same-org", False: "diff-org", None: "?"}
                for pair in published:
                    stream.write(
                        f"{str(pair.v4_prefix):<22} {str(pair.v6_prefix):<30} "
                        f"J={pair.jaccard:<8.3f} domains={pair.shared_domains:<5d} "
                        f"{org[pair.same_org]}"
                        + (f" rov={pair.rov_status}" if pair.rov_status else "")
                        + "\n"
                    )
        finally:
            if args.output:
                stream.close()
    if args.stats:
        _print_stage_stats()
    return 0


def _cmd_detect_series(args: argparse.Namespace) -> int:
    from repro.analysis.pipeline import (
        detect_series,
        paper_offsets,
        stability_offsets,
    )
    from repro.synth import build_universe

    offsets_fn = paper_offsets if args.offsets == "paper" else stability_offsets
    labelled = offsets_fn(REFERENCE_DATE)
    label_of = {date: label for label, date in labelled}
    universe = build_universe(args.scenario)
    dates = [date for _, date in labelled]
    series = detect_series(universe, dates, archive=args.archive)

    stream = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "csv":
            stream.write("label,date,pairs,perfect_share,mean_jaccard\n")
            for date, siblings in series:
                stream.write(
                    f"{label_of[date]},{date.isoformat()},{len(siblings)},"
                    f"{siblings.perfect_match_share:.6f},"
                    f"{siblings.mean_similarity:.6f}\n"
                )
        else:
            stream.write(
                f"{'label':<10} {'date':<12} {'pairs':>6} "
                f"{'perfect':>8} {'mean J':>8}\n"
            )
            for date, siblings in series:
                stream.write(
                    f"{label_of[date]:<10} {date.isoformat():<12} "
                    f"{len(siblings):>6} "
                    f"{siblings.perfect_match_share:>7.1%} "
                    f"{siblings.mean_similarity:>8.3f}\n"
                )
    finally:
        if args.output:
            stream.close()
    if args.stats:
        _print_stage_stats()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.reporting.experiments import run_experiment
    from repro.synth import build_universe

    universe = build_universe(args.scenario)
    result = run_experiment(args.experiment_id, universe)
    print(result.title)
    print("=" * len(result.title))
    print(result.text)
    print()
    for line in result.summary_lines():
        print(line)
    return 0


def _cmd_scenarios() -> int:
    from repro.synth.scenarios import SCENARIOS

    for name, config in SCENARIOS.items():
        print(
            f"{name:<8} service_orgs={config.n_service_orgs:<6} "
            f"hgcdn={config.n_hgcdn_orgs:<3} probes={config.n_probes:<5} "
            f"monitoring={config.monitoring_v4_placements}x"
            f"{config.monitoring_v6_placements}"
        )
    return 0


def _scenario_results_via_watch(universe, args) -> list:
    """Drive the event series through the ``repro watch`` daemon.

    The series is written out as snapshot files, drained by a
    :class:`~repro.analysis.watch.SnapshotWatcher` into a ``.sparch``
    archive (the caller's ``--archive`` or a run-scoped temporary), and
    the committed generations are loaded back as the per-date results —
    the full snapshots → archive → serve loop, not a shortcut.
    """
    import contextlib
    import tempfile

    from repro.analysis.watch import (
        SnapshotDirectorySource,
        SnapshotWatcher,
        write_snapshot_file,
    )
    from repro.storage import substrate_io
    from repro.storage.archive import ArchiveReader

    with contextlib.ExitStack() as stack:
        feed_dir = stack.enter_context(tempfile.TemporaryDirectory())
        archive = args.archive
        if archive is None:
            archive_dir = stack.enter_context(tempfile.TemporaryDirectory())
            archive = f"{archive_dir}/scenario.sparch"
        for date in universe.dates:
            write_snapshot_file(universe.snapshot_at(date), feed_dir)
        watcher = SnapshotWatcher(
            SnapshotDirectorySource(feed_dir),
            universe.annotator_at,
            archive,
        )
        watcher.run(once=True)
        with ArchiveReader.open(archive) as reader:
            pool_names = reader.pool_names()
            by_date = {
                date: substrate_io.load_siblings(generation, pool_names)
                for date, generation in reader.generations_by_date(
                    substrate_io.SIBLINGS_KIND
                ).items()
            }
    # Archive generations are keyed by ISO date string.
    return [(date, by_date[date.isoformat()]) for date in universe.dates]


def _cmd_scenario(args: argparse.Namespace) -> int:
    """The ``repro scenario`` body: scripted events + exact scoring."""
    from repro.synth.events import EVENT_SCENARIOS, build_event_universe

    if args.op == "list":
        for name, script in EVENT_SCENARIOS.items():
            events = ", ".join(type(e).__name__ for e in script.events)
            print(
                f"{name:<10} dates={script.n_dates:<3} "
                f"deployments={script.n_deployments:<5} "
                f"domains/dep={script.domains_per_deployment}  [{events}]"
            )
        return 0
    if not args.name:
        print("error: scenario run needs a NAME (see `repro scenario "
              "list`)", file=sys.stderr)
        return 2
    try:
        universe = build_event_universe(
            args.name, base=args.base, scale=args.scale
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.via == "watch":
        results = _scenario_results_via_watch(universe, args)
    else:
        from repro.analysis.pipeline import detect_series

        results = detect_series(universe, universe.dates, archive=args.archive)

    script = universe.script
    print(
        f"scenario {script.name!r}: {script.n_deployments} deployments, "
        f"{len(results)} dates via {args.via}"
    )
    for date, siblings in results:
        print(f"  {date.isoformat()}  pairs={len(siblings)}")
    if args.score:
        from repro.analysis.quality import render_score, score_series

        print(render_score(score_series(results, universe.ledger,
                                        scenario=script.name)))
    if args.stats:
        _print_stage_stats()
    return 0


def _is_archive(path: str) -> bool:
    """Does *path* start with the ``.sparch`` magic?  (False if unreadable.)"""
    from repro.storage.format import MAGIC

    try:
        with open(path, "rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _cmd_lookup(args: argparse.Namespace) -> int:
    import csv

    from repro import publish
    from repro.nettypes.prefix import PrefixError
    from repro.serving.index import parse_query, scan_lookup
    from repro.storage.format import ArchiveFormatError
    from repro.storage.index_io import load_mapped_index

    try:
        query = parse_query(args.query)
    except PrefixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if _is_archive(args.list_file):
            # Archive: mmap-attach the newest index, answer by bisection.
            index = load_mapped_index(args.list_file)
            try:
                result = index.lookup(query)
            finally:
                index.close()
        else:
            # CSV export: one streamed pass keeps only the longest match.
            with open(args.list_file) as stream:
                result = scan_lookup(publish.stream_csv(stream), query)
    except OSError as exc:
        print(f"error: cannot read {args.list_file!r}: {exc}", file=sys.stderr)
        return 2
    except (
        publish.PublishFormatError,
        ArchiveFormatError,
        UnicodeDecodeError,
        csv.Error,
    ) as exc:
        print(f"error: {args.list_file!r}: {exc}", file=sys.stderr)
        return 2

    if result is None:
        print(f"no sibling pair covers {query}")
        return 1
    for pair in result.pairs:
        print(
            f"{pair.v4_prefix} <-> {pair.v6_prefix}  J={pair.jaccard:.3f} "
            f"domains={pair.shared_domains}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import csv

    from repro import publish
    from repro.serving.http import serve_forever
    from repro.serving.index import SiblingLookupIndex
    from repro.serving.service import SiblingQueryService
    from repro.storage.format import ArchiveFormatError

    if bool(args.archive) == bool(args.list_file):
        print(
            "error: serve needs exactly one of FILE or --archive PATH",
            file=sys.stderr,
        )
        return 2

    try:
        if args.archive:
            service = SiblingQueryService.from_archive(args.archive)
        else:
            with open(args.list_file) as stream:
                # Honor the export's own snapshot date when recorded.
                date = publish.header_snapshot_date(stream.readline())
                stream.seek(0)
                pairs = list(publish.stream_csv(stream))
            index = SiblingLookupIndex.from_pairs(
                pairs, date or REFERENCE_DATE
            )
            service = SiblingQueryService(index)
    except OSError as exc:
        print(f"error: cannot read {args.list_file!r}: {exc}", file=sys.stderr)
        return 2
    except (
        publish.PublishFormatError,
        ArchiveFormatError,
        UnicodeDecodeError,
        csv.Error,
    ) as exc:
        print(
            f"error: {(args.archive or args.list_file)!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    try:
        serve_forever(service, args.host, args.port)
    except OSError as exc:
        # e.g. port in use or privileged; a usage error, not a crash.
        print(
            f"error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """The ``repro watch`` body: snapshots → archive → hot-swap."""
    from repro.analysis.watch import SnapshotDirectorySource, SnapshotWatcher
    from repro.serving.http import make_server
    from repro.serving.service import SiblingQueryService
    from repro.storage.format import ArchiveFormatError
    from repro.synth import build_universe

    directory = args.directory
    import pathlib

    if not pathlib.Path(directory).is_dir():
        print(f"error: {directory!r} is not a directory", file=sys.stderr)
        return 2
    universe = build_universe(args.scenario)
    service = SiblingQueryService()
    try:
        watcher = SnapshotWatcher(
            SnapshotDirectorySource(directory),
            universe.annotator_at,
            args.archive,
            service=service,
            budget_seconds=args.budget or None,
            poll_interval=args.poll_interval,
        )
    except ArchiveFormatError as exc:
        print(f"error: {args.archive!r}: {exc}", file=sys.stderr)
        return 2
    server = None
    if args.port is not None:
        try:
            server = make_server(service, args.host, args.port).start()
        except OSError as exc:
            print(
                f"error: cannot bind {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 2
        server.status_extras["watch"] = watcher.status
        bound_host, bound_port = server.server_address[:2]
        print(
            f"serving lookups and watch status on "
            f"http://{bound_host}:{bound_port}/v1/",
            file=sys.stderr,
        )
    print(
        f"watching {directory} into {args.archive} "
        f"({watcher.generations} generations committed)",
        file=sys.stderr,
    )
    try:
        appended = watcher.run(
            once=args.once, max_generations=args.max_generations
        )
        print(f"appended {appended} generations", file=sys.stderr)
    except KeyboardInterrupt:
        print("\nshutting down watch", file=sys.stderr)
    finally:
        if server is not None:
            server.close()
    if args.stats:
        _print_stage_stats()
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    """The ``repro archive`` body: verify / repair a ``.sparch`` file."""
    import os

    from repro.storage.archive import ArchiveReader, ArchiveWriter
    from repro.storage.format import ArchiveFormatError

    try:
        if args.op == "verify":
            with ArchiveReader.open(args.path) as reader:
                checked = reader.verify()
                print(
                    f"ok: {len(reader.generations)} generations, "
                    f"{checked} segments CRC-verified"
                )
            return 0
        before = os.path.getsize(args.path)
        with ArchiveWriter.open(args.path, recover=True) as writer:
            generations = len(writer.generation_dates)
        after = os.path.getsize(args.path)
        if after < before:
            print(
                f"repaired: truncated {before - after} torn bytes; "
                f"{generations} committed generations retained"
            )
        else:
            print(f"clean: {generations} committed generations, no torn tail")
    except (ArchiveFormatError, OSError) as exc:
        print(f"error: {args.path!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Fetch ``/v1/status`` and render the worker view plus extras."""
    import json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/")
    if not url.endswith("/v1/status"):
        url += "/v1/status"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            payload = json.load(response)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"error: cannot fetch {url}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    worker = payload.get("worker", {})
    service = payload.get("service", {})
    print(
        f"worker pid={worker.get('pid')} "
        f"generation={worker.get('generation')} "
        f"uptime={worker.get('uptime_seconds', 0.0):.1f}s"
    )
    for key in (
        "generation",
        "swaps",
        "queries",
        "generation_age_seconds",
    ):
        if key in service:
            print(f"  {key}: {_status_value(service[key])}")
    cache = service.get("cache")
    if cache:
        print(
            f"  cache: size={cache.get('size')} hits={cache.get('hits')} "
            f"misses={cache.get('misses')}"
        )
    # The server's status_extras, e.g. the `repro watch` loop state.
    for name, extra in payload.items():
        if name in ("worker", "service"):
            continue
        print(f"{name}:")
        items = extra.items() if isinstance(extra, dict) else [("value", extra)]
        for key, value in items:
            print(f"  {key}: {_status_value(value)}")
    return 0


def _status_value(value):
    """*value* as ``repro status`` prints it: floats to 3 places."""
    return round(value, 3) if isinstance(value, float) else value


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "detect":
        return _cmd_detect(args)
    if args.command == "detect-series":
        return _cmd_detect_series(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "lookup":
        return _cmd_lookup(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "archive":
        return _cmd_archive(args)
    if args.command == "status":
        return _cmd_status(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
