"""Property-based differential testing across the detection engines.

Two engines compute Steps 3-4 (``reference``, the paper-literal
oracle, and ``columnar``) and three structures answer LPM lookups
(:class:`SiblingLookupIndex`, :class:`PatriciaTrie`, ``scan_lookup``).
Randomized differential testing is the cheapest way to keep them
bit-identical: hypothesis drives synthetic inputs — direct
domain-membership indexes, scenario-grid universes seeded at random,
randomized published-pair lists — and every property asserts that all
implementations agree on the *complete* observable output, not a
summary statistic.

Profiles are registered in ``conftest.py``: the default ``dev`` profile
keeps the tier-1 run fast; CI's blocking ``differential`` job runs with
``HYPOTHESIS_PROFILE=differential`` (more examples, deadline disabled,
failure blobs printed for reproducibility).
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_mapping

from repro.core.detection import BestMatchMode
from repro.core.domainsets import PrefixDomainIndex, build_index
from repro.core.metrics import METRICS_FROM_COUNTS
from repro.core.substrate import ColumnarSubstrate, get_substrate
from repro.dates import REFERENCE_DATE
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix
from repro.nettypes.trie import PatriciaTrie
from repro.publish import PublishedPair
from repro.serving.index import SiblingLookupIndex, scan_lookup
from repro.synth import build_universe
from repro.synth.scenarios import SCENARIOS

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_V4_POOL = [
    Prefix.from_address(IPV4, (10 << 24) | (i << 8), 24) for i in range(12)
]
_V6_POOL = [
    Prefix.from_address(IPV6, (0x2001_0DB8 << 96) | (i << 80), 48)
    for i in range(12)
]


def _index_from_memberships(memberships) -> PrefixDomainIndex:
    """A detection-ready index straight from (v4 ids, v6 ids) pairs."""
    index = PrefixDomainIndex(date=REFERENCE_DATE)
    for position, (v4_ids, v6_ids) in enumerate(memberships):
        label = f"d{position}.example"
        v4_prefixes = {_V4_POOL[i] for i in v4_ids}
        v6_prefixes = {_V6_POOL[i] for i in v6_ids}
        index.domain_v4_prefixes[label] = v4_prefixes
        index.domain_v6_prefixes[label] = v6_prefixes
        for prefix in v4_prefixes:
            index.v4_domains.setdefault(prefix, set()).add(label)
        for prefix in v6_prefixes:
            index.v6_domains.setdefault(prefix, set()).add(label)
    return index


@st.composite
def membership_indexes(draw):
    """Random sparse domain-membership structures, empty included."""
    n_domains = draw(st.integers(min_value=0, max_value=30))
    ids = st.integers(min_value=0, max_value=len(_V4_POOL) - 1)
    memberships = [
        (
            draw(st.sets(ids, min_size=1, max_size=4)),
            draw(st.sets(ids, min_size=1, max_size=4)),
        )
        for _ in range(n_domains)
    ]
    return _index_from_memberships(memberships)


METRIC_NAMES = sorted(METRICS_FROM_COUNTS)

_as_mapping = as_mapping


# ---------------------------------------------------------------------------
# Step 3-4 engines agree
# ---------------------------------------------------------------------------


@given(
    index=membership_indexes(),
    metric=st.sampled_from(METRIC_NAMES),
    mode=st.sampled_from(list(BestMatchMode)),
)
@settings(max_examples=10)
def test_engines_identical_select(index, metric, mode):
    """reference and columnar agree on the full result."""
    reference = get_substrate("reference").select(index, metric=metric, mode=mode)
    columnar = ColumnarSubstrate().select(index, metric=metric, mode=mode)
    assert _as_mapping(reference) == _as_mapping(columnar)


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    hgcdn_scale=st.sampled_from((0.004, 0.02)),
    split_hosting=st.sampled_from((0.22, 0.4)),
)
@settings(max_examples=4)
def test_scenario_grid_differential(seed, hgcdn_scale, split_hosting):
    """Full-pipeline agreement on randomly seeded scenario-grid configs.

    Universes built from randomized :mod:`repro.synth.scenarios`
    variants exercise realistic structure (hypergiants, shared hosting,
    ties) that the direct membership strategy cannot: both engines
    must agree on the complete sibling set.
    """
    config = dataclasses.replace(
        SCENARIOS["tiny"],
        name=f"grid-{seed}",
        seed=seed,
        hgcdn_deployment_scale=hgcdn_scale,
        split_hosting_fraction=split_hosting,
    )
    universe = build_universe(config)
    index = build_index(
        universe.snapshot_at(REFERENCE_DATE),
        universe.annotator_at(REFERENCE_DATE),
    )
    reference = get_substrate("reference").select(index)
    columnar = ColumnarSubstrate().select(index)
    assert len(reference) > 0
    assert _as_mapping(reference) == _as_mapping(columnar)


# ---------------------------------------------------------------------------
# LPM lookup structures agree
# ---------------------------------------------------------------------------


@st.composite
def published_universes(draw):
    """A random published-pair list plus hit-biased queries.

    Prefix pools include nested lengths (parents and more-specifics of
    the same address space) so longest-prefix-match ordering is
    actually exercised, not just exact hits.
    """
    rng = random.Random(draw(st.integers(0, 2**30)))
    v4_pool = []
    for i in range(draw(st.integers(1, 8))):
        base = (198 << 24) | (i << 18)
        for length in draw(
            st.sets(st.sampled_from((14, 16, 20, 24, 28)), min_size=1, max_size=3)
        ):
            v4_pool.append(Prefix.from_address(IPV4, base, length))
    v6_pool = []
    for i in range(draw(st.integers(1, 8))):
        base = (0x2001_0DB8 << 96) | (i << 88)
        for length in draw(
            st.sets(st.sampled_from((28, 32, 40, 48, 56)), min_size=1, max_size=3)
        ):
            v6_pool.append(Prefix.from_address(IPV6, base, length))
    n_pairs = draw(st.integers(1, 25))
    pairs = [
        PublishedPair(
            v4_prefix=rng.choice(v4_pool),
            v6_prefix=rng.choice(v6_pool),
            jaccard=rng.random(),
            shared_domains=rng.randint(1, 50),
            v4_domains=rng.randint(1, 60),
            v6_domains=rng.randint(1, 60),
            same_org=rng.choice((None, True, False)),
            rov_status=None,
        )
        for _ in range(n_pairs)
    ]
    stored = [p for pair in pairs for p in (pair.v4_prefix, pair.v6_prefix)]
    queries = []
    for _ in range(60):
        version = rng.choice((4, 6))
        family = [p for p in stored if p.version == version]
        if family and rng.random() < 0.7:
            base = rng.choice(family)
            value = base.value | rng.getrandbits(base.host_bits)
        else:
            value = rng.getrandbits(32 if version == 4 else 128)
        if rng.random() < 0.3:
            length = rng.randint(0, 32 if version == 4 else 128)
            queries.append(Prefix.from_address(version, value, length))
        else:
            queries.append(Prefix.host(version, value))
    return pairs, queries


def _trie_oracles(index: SiblingLookupIndex) -> dict[int, PatriciaTrie]:
    """Per-family PatriciaTrie mapping prefix → pair positions."""
    by_prefix: dict[Prefix, list[int]] = {}
    for position, pair in enumerate(index.pairs):
        for prefix in (pair.v4_prefix, pair.v6_prefix):
            by_prefix.setdefault(prefix, []).append(position)
    return {
        version: PatriciaTrie.from_items(
            version,
            (
                (prefix, tuple(positions))
                for prefix, positions in by_prefix.items()
                if prefix.version == version
            ),
        )
        for version in (4, 6)
    }


@given(universe=published_universes())
def test_lookup_index_matches_trie_and_scan(universe):
    """Compiled index LPM == PatriciaTrie LPM == linear scan, always."""
    pairs, queries = universe
    index = SiblingLookupIndex.from_pairs(pairs, REFERENCE_DATE)
    tries = _trie_oracles(index)
    for query in queries:
        got = index.lookup(query)
        oracle = tries[query.version].lookup(query)
        brute = scan_lookup(index.pairs, query)
        if oracle is None:
            assert got is None and brute is None
            continue
        oracle_prefix, oracle_positions = oracle
        assert got is not None and brute is not None
        assert got.matched == oracle_prefix == brute.matched
        assert got.pairs == tuple(
            index.pairs[position] for position in oracle_positions
        )
        assert set(got.pairs) == set(brute.pairs)
