"""The ``reference`` and ``columnar`` substrates must agree exactly.

The columnar engine is only allowed to change memory layout and speed —
never results.  These tests pin that contract across several synthetic
scenarios, every best-match mode, and every similarity metric: same
pairs, same (bit-identical) similarity values, same tie sets, same
shared-domain sets.
"""

import dataclasses

import pytest

from conftest import as_mapping

from repro.core.detection import BestMatchMode, compute_pair_stats
from repro.core.domainsets import build_index
from repro.core.metrics import METRICS_FROM_COUNTS
from repro.core.setpairs import build_set_pairs
from repro.core.substrate import (
    DEFAULT_SUBSTRATE,
    SUBSTRATES,
    ColumnarSubstrate,
    get_substrate,
)
from repro.dates import REFERENCE_DATE
from repro.synth import build_universe
from repro.synth.scenarios import SCENARIOS

#: Three structurally different synthetic universes: the stock tiny
#: preset, a reseeded clone (different random structure throughout), and
#: a denser variant with more shared hosting and hypergiant deployments
#: (more multi-prefix domains, bigger posting lists, more ties).
SCENARIO_CONFIGS = {
    "tiny": SCENARIOS["tiny"],
    "tiny-reseeded": dataclasses.replace(
        SCENARIOS["tiny"], name="tiny-reseeded", seed=1337
    ),
    "tiny-dense": dataclasses.replace(
        SCENARIOS["tiny"],
        name="tiny-dense",
        seed=7,
        hgcdn_deployment_scale=0.02,
        split_hosting_fraction=0.4,
        domain_scale=0.6,
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIO_CONFIGS))
def index(request):
    """A detection-ready index for each scenario."""
    universe = build_universe(SCENARIO_CONFIGS[request.param])
    return build_index(
        universe.snapshot_at(REFERENCE_DATE),
        universe.annotator_at(REFERENCE_DATE),
    )


_as_mapping = as_mapping


@pytest.mark.parametrize("metric", sorted(METRICS_FROM_COUNTS))
@pytest.mark.parametrize("mode", list(BestMatchMode), ids=lambda m: m.value)
def test_identical_siblings(index, metric, mode):
    reference = get_substrate("reference").select(index, metric=metric, mode=mode)
    columnar = ColumnarSubstrate().select(index, metric=metric, mode=mode)
    assert len(reference) > 0
    assert _as_mapping(reference) == _as_mapping(columnar)


def test_tie_sets_preserved(index):
    """Tied best matches survive identically on both substrates."""

    def tie_sets(siblings):
        ties = {}
        for pair in siblings:
            ties.setdefault(pair.v4_prefix, set()).add(pair.v6_prefix)
        return {k: v for k, v in ties.items() if len(v) > 1}

    reference = get_substrate("reference").select(index)
    columnar = ColumnarSubstrate().select(index)
    assert tie_sets(reference) == tie_sets(columnar)


def test_identical_set_pairs(index):
    """The set-pair construction agrees through the group_stats seam."""
    siblings = get_substrate("reference").select(index)

    def as_key(set_pairs):
        return sorted(
            (
                sp.v4_prefixes,
                sp.v6_prefixes,
                sp.similarity,
                sp.shared_domains,
                sp.v4_domain_count,
                sp.v6_domain_count,
            )
            for sp in set_pairs
        )

    reference = build_set_pairs(siblings, index, substrate="reference")
    columnar = build_set_pairs(siblings, index, substrate=ColumnarSubstrate())
    assert len(reference) > 0
    assert as_key(reference) == as_key(columnar)


def test_columnar_counts_equal_reference_stats(index):
    """Step 3 alone: the columnar view holds one row per indexed prefix
    and its packed shared-domain counts equal the reference pair stats."""
    state = ColumnarSubstrate().columnarize(index)
    assert len(state.v4_prefixes) == index.v4_prefix_count
    assert len(state.v6_prefixes) == index.v6_prefix_count
    counts = {
        (state.v4_prefixes[key >> 32], state.v6_prefixes[key & 0xFFFFFFFF]): count
        for key, count in ColumnarSubstrate.pair_counts(state).items()
    }
    reference = {
        (stats.v4_prefix, stats.v6_prefix): len(stats.shared_domains)
        for stats in compute_pair_stats(index)
    }
    assert reference
    assert counts == reference


def test_interned_pool_reuse_is_exact():
    """One columnar instance across snapshots changes nothing but speed."""
    from repro.analysis.pipeline import detect_series, stability_offsets

    universe = build_universe(SCENARIO_CONFIGS["tiny"])
    dates = [date for _, date in stability_offsets(REFERENCE_DATE)[:4]]
    shared_engine = ColumnarSubstrate()
    series = detect_series(universe, dates, substrate=shared_engine)
    assert shared_engine.interned_domain_count > 0
    for date, siblings in series:
        fresh = get_substrate("reference").select(
            build_index(
                universe.snapshot_at(date), universe.annotator_at(date)
            )
        )
        assert _as_mapping(siblings) == _as_mapping(fresh)


def test_registry_contents():
    """All engines are registered; every name resolves to a new,
    independent instance, and an instance passes through."""
    assert set(SUBSTRATES) == {"reference", "columnar"}
    assert DEFAULT_SUBSTRATE in SUBSTRATES
    first, second = get_substrate(), get_substrate(DEFAULT_SUBSTRATE)
    assert type(first) is type(second) is SUBSTRATES[DEFAULT_SUBSTRATE]
    assert first is not second
    assert first.pool is not second.pool
    assert get_substrate(first) is first
    with pytest.raises(KeyError):
        get_substrate("no-such-substrate")
