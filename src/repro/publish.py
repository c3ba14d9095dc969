"""Publishing sibling prefix lists (Section 6).

The authors "plan to regularly publish a list of sibling prefixes to be
used by network operators and fellow researchers".  This module defines
that artifact: a versioned, line-oriented export with the fields a
consumer needs (prefixes, similarity, domain counts, origin organization
relation, ROV status), in CSV or JSON-lines form, plus a loader that
round-trips it.
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import dataclass
from typing import Iterable, TextIO

from repro.analysis.organizations import pair_origins
from repro.core.siblings import SiblingSet, pair_order
from repro.nettypes.prefix import Prefix
from repro.obs.tracing import trace
from repro.rpki.pair_status import classify_pair
from repro.rpki.repository import RpkiRepository
from repro.synth.universe import Universe

FORMAT_VERSION = 1

FIELDS = (
    "v4_prefix",
    "v6_prefix",
    "jaccard",
    "shared_domains",
    "v4_domains",
    "v6_domains",
    "same_org",
    "rov_status",
)


@dataclass(frozen=True, slots=True)
class PublishedPair:
    """One row of the published list."""

    v4_prefix: Prefix
    v6_prefix: Prefix
    jaccard: float
    shared_domains: int
    v4_domains: int
    v6_domains: int
    same_org: bool | None
    rov_status: str | None

    def as_row(self) -> dict[str, object]:
        return {
            "v4_prefix": str(self.v4_prefix),
            "v6_prefix": str(self.v6_prefix),
            "jaccard": round(self.jaccard, 6),
            "shared_domains": self.shared_domains,
            "v4_domains": self.v4_domains,
            "v6_domains": self.v6_domains,
            "same_org": "" if self.same_org is None else int(self.same_org),
            "rov_status": self.rov_status or "",
        }

    @classmethod
    def from_row(cls, row: dict[str, object]) -> "PublishedPair":
        same_org_raw = row.get("same_org", "")
        return cls(
            v4_prefix=Prefix.parse(str(row["v4_prefix"])),
            v6_prefix=Prefix.parse(str(row["v6_prefix"])),
            jaccard=float(row["jaccard"]),  # type: ignore[arg-type]
            shared_domains=int(row["shared_domains"]),  # type: ignore[arg-type]
            v4_domains=int(row["v4_domains"]),  # type: ignore[arg-type]
            v6_domains=int(row["v6_domains"]),  # type: ignore[arg-type]
            same_org=(
                None if same_org_raw in ("", None) else bool(int(same_org_raw))  # type: ignore[arg-type]
            ),
            rov_status=(str(row["rov_status"]) or None),
        )


def enrich_pairs(
    universe: Universe,
    siblings: SiblingSet,
    date: datetime.date,
    repository: RpkiRepository | None = None,
) -> list[PublishedPair]:
    """Attach organization and ROV metadata to every pair."""
    with trace("publish.enrich", items=len(siblings)):
        rib = universe.rib_at(date)
        published: list[PublishedPair] = []
        for pair in sorted(siblings, key=pair_order):
            origins = pair_origins(universe, pair, date)
            same_org = origins.same_org if origins.v4_asn is not None else None
            rov_status = None
            if repository is not None:
                route4 = rib.route_for_prefix(pair.v4_prefix)
                route6 = rib.route_for_prefix(pair.v6_prefix)
                if route4 is not None and route6 is not None:
                    rov_status = classify_pair(
                        repository.validate(route4.prefix, route4.origin, date),
                        repository.validate(route6.prefix, route6.origin, date),
                    ).value
            published.append(
                PublishedPair(
                    v4_prefix=pair.v4_prefix,
                    v6_prefix=pair.v6_prefix,
                    jaccard=pair.similarity,
                    shared_domains=len(pair.shared_domains),
                    v4_domains=pair.v4_domain_count,
                    v6_domains=pair.v6_domain_count,
                    same_org=same_org,
                    rov_status=rov_status,
                )
            )
    return published


def _header_comment(date: datetime.date, count: int) -> str:
    return (
        f"# sibling-prefixes list v{FORMAT_VERSION} | snapshot={date.isoformat()} "
        f"| pairs={count}"
    )


def header_snapshot_date(line: str) -> datetime.date | None:
    """The snapshot date recorded in a CSV export's header comment,
    or ``None`` when *line* is not such a comment.

    Inverse of the ``snapshot=`` field written by :func:`write_csv`;
    lets ``repro serve`` stamp an index compiled from a CSV with the
    export's true data vintage rather than a default date.
    """
    if not line.startswith("#"):
        return None
    for part in line.split("|"):
        part = part.strip()
        if part.startswith("snapshot="):
            try:
                return datetime.date.fromisoformat(part[len("snapshot="):])
            except ValueError:
                return None
    return None


def write_csv(
    pairs: Iterable[PublishedPair], stream: TextIO, date: datetime.date
) -> int:
    """Write the CSV form (with a commented header line); returns rows."""
    rows = [pair.as_row() for pair in pairs]
    stream.write(_header_comment(date, len(rows)) + "\n")
    writer = csv.DictWriter(stream, fieldnames=list(FIELDS))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return len(rows)


def read_csv(stream: TextIO) -> list[PublishedPair]:
    """Load a CSV export (header comments skipped).

    Materializing wrapper over :func:`stream_csv`, so both paths share
    one parser and the same :class:`PublishFormatError` validation.
    """
    return list(stream_csv(stream))


def write_jsonl(
    pairs: Iterable[PublishedPair], stream: TextIO, date: datetime.date
) -> int:
    """Write the JSON-lines form; the first record is metadata."""
    rows = [pair.as_row() for pair in pairs]
    meta = {
        "format_version": FORMAT_VERSION,
        "snapshot": date.isoformat(),
        "pairs": len(rows),
    }
    stream.write(json.dumps({"meta": meta}) + "\n")
    for row in rows:
        stream.write(json.dumps(row) + "\n")
    return len(rows)


def read_jsonl(stream: TextIO) -> tuple[dict, list[PublishedPair]]:
    """Load a JSONL export; returns (metadata, pairs)."""
    first = stream.readline()
    if not first:
        return {}, []
    meta_record = json.loads(first)
    meta = meta_record.get("meta", {})
    pairs = [PublishedPair.from_row(json.loads(line)) for line in stream if line.strip()]
    return meta, pairs


class PublishFormatError(ValueError):
    """Raised when an exported sibling list cannot be parsed."""


def stream_csv(stream: TextIO) -> Iterable[PublishedPair]:
    """Iterate a CSV export one pair at a time (constant memory).

    The streaming sibling of :func:`read_csv`: the CLI ``lookup`` path
    scans exports of any size without materializing the list.  Raises
    :class:`PublishFormatError` (with the offending *file* line number,
    comment lines included) on malformed rows so callers can fail with
    a clear message.
    """
    consumed_lines = [0]

    def data_lines():
        for number, line in enumerate(stream, start=1):
            if not line.startswith("#"):
                consumed_lines[0] = number
                yield line

    reader = csv.DictReader(data_lines())
    missing = set(FIELDS) - set(reader.fieldnames or FIELDS)
    if missing:
        raise PublishFormatError(
            f"not a sibling list export: header lacks {sorted(missing)}"
        )
    for row in reader:
        try:
            if any(value is None for value in row.values()) or None in row:
                raise ValueError("wrong number of columns")
            yield PublishedPair.from_row(row)
        except (KeyError, TypeError, ValueError) as exc:
            raise PublishFormatError(
                f"malformed sibling list row at line {consumed_lines[0]}: {exc}"
            ) from exc
