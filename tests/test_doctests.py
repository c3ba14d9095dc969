"""Run the doctest examples embedded in public-API docstrings."""

import doctest

import pytest

import repro.determinism
import repro.dns.zone
import repro.nettypes.prefix
import repro.nettypes.sets
import repro.nettypes.trie
import repro.obs.metrics
import repro.obs.tracing
import repro.serving.cache
import repro.serving.index
import repro.serving.service
import repro.storage.archive
import repro.storage.format

MODULES = (
    repro.determinism,
    repro.nettypes.prefix,
    repro.nettypes.trie,
    repro.nettypes.sets,
    repro.dns.zone,
    repro.obs.metrics,
    repro.obs.tracing,
    repro.serving.cache,
    repro.serving.index,
    repro.serving.service,
    repro.storage.format,
    repro.storage.archive,
)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
