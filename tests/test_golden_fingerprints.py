"""Golden end-to-end fingerprints of the synthetic universe.

Synthesis keys every pseudo-random draw on
:func:`repro.determinism.stable_hash`, which hashes the ``repr()`` of its
arguments.  A refactor of the hashing or the month tables, or a Python
release that changes a ``repr()``, would silently move every address,
route and published pair.  These sha256 pins make any such drift fail
tier-1 on every Python version in the CI matrix:

* the reference-date snapshot's observations, sorted by domain,
* the snapshot's observations in ``observations()`` order, at the
  reference date and at a mid-window date where dual-stack adoption is
  partial (the order is what archive pool numbering follows),
* the reference-date RIB's routes and origin sets, and
* the ``repro detect --tune 28,96 --format csv`` export, which must
  also equal the pin the benchmark checks (``perfbench/workloads.py``),
* the tiny ``repro detect-series --format csv`` export on both date
  grids (``--offsets paper`` and ``stability``), and
* every archive segment (and the meta) that
  :func:`~repro.storage.index_io.index_segments` writes for a fixed pair
  list with narrow and wide (longer than /64) IPv6 groups.  The
  round-trip tests cannot see a layout drift, because the writer and the
  reader change together; this pin can, so archives written earlier
  keep opening.

Two more pins hold the identity strings every archive generation
stores: the reference-date annotator digest and the reference-date
index's content signature.  The watcher's restart catch-up and the
archive-resume gates compare them against archives already on disk, so
a drift would silently force every archive to rebuild.
"""

import datetime
import hashlib
import json

import pytest

from repro.cli import main
from repro.core.domainsets import build_index
from repro.dates import REFERENCE_DATE
from repro.nettypes.prefix import Prefix
from repro.publish import PublishedPair
from repro.serving.index import SiblingLookupIndex
from repro.storage.index_io import index_segments
from repro.storage.substrate_io import annotator_digest
from repro.synth import build_universe

#: scale -> (snapshot observations, RIB routes, detect CSV) sha256.
GOLDEN = {
    "tiny": (
        "b5fd591ee9cafd405928158c4f91c408a86be5c7a3949fdaf8a1bf330dfb5c9b",
        "7b03eb363a2e09b1ae0ddae82b57880f1c84ad39bdfc3a007131cae1337020ba",
        "d05c291acd4b84b9dc7ec66543bb0497d186f4765821ab69f306be15851e2679",
    ),
    "small": (
        "bb59754302700542c059d00802c3e12e9eaa34fc73d5351665421e5b8ee13527",
        "c6d59e5828bcd9eeb1437eb02c6bbefaa186d8f4779c4cec6d1b41cc552e3c35",
        "858e0d00bfde9fbc6fcee18c5fc9daadb195eeb9ae252e7225a86ae96309cafd",
    ),
}

#: A mid-window date where only some single-stack domains have adopted
#: dual stack yet.
MID_WINDOW_DATE = datetime.date(2021, 6, 9)

#: scale -> date -> sha256 of the snapshot's observations in
#: ``observations()`` order (not sorted).
ORDERED = {
    "tiny": {
        REFERENCE_DATE: "f4efff90e0b88ad9c064d83c04cdc8100201d7020399f2f35b9394b1fb683e78",
        MID_WINDOW_DATE: "36f028132aca679fa131b18de6c4ca0f6f80b1c7ab752215a65bc906cc84b7d7",
    },
    "small": {
        REFERENCE_DATE: "3414565fa222599d112ff35a8bc92360a044c297865a6640b659ea990de48beb",
        MID_WINDOW_DATE: "5a4b7135c2260ccee7a374f08beceaf928b96af1c0f426143835a8a60839c003",
    },
}

#: scale -> (annotator digest, index content signature) at the reference date.
IDENTITIES = {
    "tiny": (
        "f0f0aad4577f529e72346a5d5650e1c1c35fb9af0cd92ac700a251b617eb2a80",
        "c683d3a24c4939c4c951b96586914e97fe704cc7f5ba17b5e0cfbe9ca40f2709",
    ),
    "small": (
        "f4bdd01bd3d9e6651a413edd1ce9f73c04c01208e6689a086d68529f6fb75366",
        "201d264cff696b46f0e81639e4b6921e35bebaddcbbb797af292576840bd4f69",
    ),
}

#: offsets -> sha256 of ``repro detect-series --scenario tiny --offsets
#: <offsets> --format csv``: the longitudinal series, whose later dates
#: ride snapshot deltas on one rolling index.
SERIES_CSV = {
    "paper": "f63b77fb769f4dc6078b4310fc77b47be4081e967b285f8d34732f53406a9c37",
    "stability": "6f36bae56927b1052239eef7875c3cef1610be21f01b9f65d5f6ca413cb20e5d",
}

SCALES = sorted(GOLDEN)


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _observation_line(observation) -> str:
    return (
        f"{observation.domain}|{','.join(map(str, observation.v4_addresses))}"
        f"|{','.join(map(str, observation.v6_addresses))}"
    )


def observations_fingerprint(universe) -> str:
    """sha256 over ``domain|v4,...|v6,...`` lines, sorted by domain."""
    snapshot = universe.snapshot_at(REFERENCE_DATE)
    return _digest(
        _observation_line(o)
        for o in sorted(snapshot.observations(), key=lambda o: o.domain)
    )


def ordered_observations_fingerprint(universe, when) -> str:
    """sha256 over ``domain|v4,...|v6,...`` lines in ``observations()``
    order."""
    return _digest(map(_observation_line, universe.snapshot_at(when).observations()))


def rib_fingerprint(universe) -> str:
    """sha256 over ``prefix|origin,...`` lines, in prefix order."""
    rib = universe.rib_at(REFERENCE_DATE)
    return _digest(
        f"{route.prefix}|{','.join(map(str, sorted(route.origins)))}"
        for route in sorted(rib.routes(), key=lambda route: route.prefix)
    )


@pytest.fixture(scope="module", params=SCALES)
def scaled_universe(request):
    return request.param, build_universe(request.param)


def test_snapshot_observations_pinned(scaled_universe):
    scale, universe = scaled_universe
    assert observations_fingerprint(universe) == GOLDEN[scale][0]


@pytest.mark.parametrize(
    "when", [REFERENCE_DATE, MID_WINDOW_DATE], ids=["reference", "mid-window"]
)
def test_snapshot_observation_order_pinned(scaled_universe, when):
    scale, universe = scaled_universe
    assert ordered_observations_fingerprint(universe, when) == ORDERED[scale][when]


def test_rib_routes_pinned(scaled_universe):
    scale, universe = scaled_universe
    assert rib_fingerprint(universe) == GOLDEN[scale][1]


def test_annotator_digest_pinned(scaled_universe):
    scale, universe = scaled_universe
    annotator = universe.annotator_at(REFERENCE_DATE)
    assert annotator_digest(annotator) == IDENTITIES[scale][0]
    # A second digest of the same annotator is served from the routing
    # tables' cached route text and must not move.
    assert annotator_digest(annotator) == IDENTITIES[scale][0]


def test_index_content_signature_pinned(scaled_universe):
    scale, universe = scaled_universe
    index = build_index(
        universe.snapshot_at(REFERENCE_DATE),
        universe.annotator_at(REFERENCE_DATE),
    )
    assert index.content_signature() == IDENTITIES[scale][1]


@pytest.mark.parametrize("offsets", sorted(SERIES_CSV))
def test_detect_series_csv_pinned(offsets, tmp_path):
    out = tmp_path / f"{offsets}.csv"
    argv = ["detect-series", "--scenario", "tiny", "--offsets", offsets,
            "--format", "csv"]
    assert main([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SERIES_CSV[offsets]


@pytest.mark.parametrize("scale", SCALES)
def test_detect_csv_pinned(scale, tmp_path):
    out = tmp_path / f"{scale}.csv"
    argv = ["detect", "--scenario", scale, "--tune", "28,96", "--format", "csv"]
    assert main([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[scale][2]


def test_csv_pins_match_the_benchmark():
    workloads = pytest.importorskip("perfbench.workloads")
    assert {scale: pins[2] for scale, pins in GOLDEN.items()} == (
        workloads.DETECT_CSV_SHA256
    )


def segment_pin_pairs() -> list[PublishedPair]:
    """A fixed pair list: nested IPv4 lengths, IPv6 groups at and beyond
    /64 (the wide-key segment), prefixes shared between pairs (posting
    lists longer than one) and every ``same_org``/ROV shape."""
    v4 = [Prefix.parse(text) for text in (
        "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32",
        "192.0.2.0/24", "198.51.100.0/24",
    )]
    v6 = [Prefix.parse(text) for text in (
        "2001:db8::/32", "2001:db8:1::/48", "2001:db8:1:2::/64",
        "2001:db8:1:2:3::/80", "2001:db8:1:2:3:4::/96",
        "2001:db8:1:2:3:4:5:6/128", "2001:db8:ffff::/48",
    )]
    rov = (None, "both-valid", "v4-only", "invalid")
    same_org = (None, True, False)
    pairs = []
    for slot in range(12):
        pairs.append(PublishedPair(
            v4_prefix=v4[slot % len(v4)],
            v6_prefix=v6[(slot * 3) % len(v6)],
            jaccard=(slot + 1) / 13,
            shared_domains=slot + 1,
            v4_domains=slot + 2,
            v6_domains=slot + 3,
            same_org=same_org[slot % 3],
            rov_status=rov[slot % 4],
        ))
    return pairs


#: segment name (and ``"meta"``) -> sha256 of what ``index_segments``
#: writes for :func:`segment_pin_pairs`.  The u64/u32 segments are in
#: native byte order; the pins are for little-endian hosts.
INDEX_SEGMENTS = {
    "index.records": "4ab932be85819718e7403c0898df18b70591946d5996cd02dcddbfc0da775841",
    "index.v4.keys": "727032ab9e5d7e61f6fe1d599c2c88993a8ec7180bb4ca71d4f2235f27e5dfcf",
    "index.v4.wide": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "index.v4.postings": "03a6564bdc0a46de443f0bb3a013fd8711c9be5c7b464d73738089e2f9f8e193",
    "index.v4.offsets": "a1b77455694bb985cda486d35445642e303a2ecb54eb4f0c79650a98337863cf",
    "index.v6.keys": "8a7a12946e5376b02e50de443a0ed58fcc1117232d6155ab280d6945286f315c",
    "index.v6.wide": "ec3f4eabd9bc0eca0d2963581cce4a6ac87a3d7dcfa9112d35671b5c06bfca5b",
    "index.v6.postings": "c850c46527dfd73ded4c4ab3b984dd3abe173493a85971995af24c228a74a109",
    "index.v6.offsets": "21696a721cc680ef126228f77edb8a54c7992063b15676d37156088c0a704543",
    "meta": "4f0270f3dbb75698b59e6c923b0edafec6c36a2bcbd0da705666228441369246",
}


def test_index_segments_pinned():
    index = SiblingLookupIndex.from_pairs(segment_pin_pairs(), REFERENCE_DATE)
    assert index.stats()["v6_lengths"][0] > 64  # the wide segment is used
    segments, meta = index_segments(index)
    digests = {
        name: hashlib.sha256(bytes(payload)).hexdigest()
        for name, payload in segments.items()
    }
    digests["meta"] = hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode()
    ).hexdigest()
    assert digests == INDEX_SEGMENTS
