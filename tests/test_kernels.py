"""The kernel seam's own suite: selection, PairCounts, edge cases.

``repro.core.kernels`` is held to three contracts here:

* **selection** — :func:`resolve_kernel_name` is pure logic (unit-tested
  against explicit ``numpy_ok`` booleans, so the numpy-missing error
  path is covered even on machines that have numpy), and
  :func:`set_kernel` / :class:`use_kernel` round-trip the active kernel
  *and* the ``REPRO_KERNEL`` environment export;
* **PairCounts** — both backends implement one mapping, one wire format
  (``sorted_columns`` / ``counts_from_columns``, written by either
  kernel and restored by either kernel), and one ``patch`` semantics,
  bit-exact against a hand-rolled Counter oracle including
  retraction-to-exactly-zero key elimination and cross-backend
  operands;
* **edges** — empty universes, single-pair universes, and one-family
  domains produce identical (and sane) output on every kernel, and
  ``select_scored`` agrees between kernels to the float64 bit across
  metrics and best-match modes on randomized small instances.

The cross-engine properties over full scenario universes live in
``test_differential_engines.py``; this file is the seam's unit level.
"""

import datetime
import os
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_mapping

from repro.bgp.rib import Rib
from repro.bgp.routeviews import PrefixAnnotator
from repro.core.detection import TIE_EPSILON, BestMatchMode
from repro.core.domainsets import build_index
from repro.core.kernels import (
    KERNEL_ENV,
    KERNELS,
    KernelUnavailableError,
    NumpyPairCounts,
    PythonPairCounts,
    available_kernel_names,
    kernel_name,
    numpy_available,
    resolve_kernel_name,
    set_kernel,
    use_kernel,
)
from repro.core.substrate import ColumnarSubstrate
from repro.dns.openintel import DnsSnapshot, DomainObservation
from repro.nettypes.addr import IPV4, IPV6
from repro.nettypes.prefix import Prefix

KERNEL_NAMES = available_kernel_names()

needs_both_kernels = pytest.mark.skipif(
    len(KERNEL_NAMES) < 2, reason="both kernels must be importable"
)


# ---------------------------------------------------------------------------
# Kernel selection: resolve_kernel_name / set_kernel / use_kernel
# ---------------------------------------------------------------------------


def test_resolve_automatic_prefers_numpy_when_available():
    assert resolve_kernel_name(None, numpy_ok=True) == "numpy"
    assert resolve_kernel_name("", numpy_ok=True) == "numpy"


def test_resolve_automatic_falls_back_to_python_silently():
    """No explicit request + no numpy -> python, never an error."""
    assert resolve_kernel_name(None, numpy_ok=False) == "python"
    assert resolve_kernel_name("", numpy_ok=False) == "python"


def test_resolve_explicit_requests_pass_through():
    assert resolve_kernel_name("python", numpy_ok=True) == "python"
    assert resolve_kernel_name("python", numpy_ok=False) == "python"
    assert resolve_kernel_name("numpy", numpy_ok=True) == "numpy"


def test_resolve_numpy_without_numpy_is_a_clear_error():
    """REPRO_KERNEL=numpy on a numpy-free interpreter must not silently
    fall back (that would invalidate benchmarks) — it raises with
    install guidance naming the [perf] extra."""
    with pytest.raises(KernelUnavailableError) as excinfo:
        resolve_kernel_name("numpy", numpy_ok=False)
    message = str(excinfo.value)
    assert "[perf]" in message
    assert "python" in message


def test_resolve_unknown_kernel_name_is_a_clear_error():
    with pytest.raises(KernelUnavailableError, match="unknown kernel"):
        resolve_kernel_name("cython", numpy_ok=True)


def test_set_kernel_exports_env_and_returns_previous():
    saved_env = os.environ.get(KERNEL_ENV)
    saved_name = kernel_name()
    try:
        previous = set_kernel("python")
        assert previous == saved_name
        assert kernel_name() == "python"
        # The export is what forked/spawned workers re-select from.
        assert os.environ[KERNEL_ENV] == "python"
        # None re-runs automatic selection.
        assert set_kernel(None) == "python"
        expected = "numpy" if numpy_available() else "python"
        assert kernel_name() == expected
        assert os.environ[KERNEL_ENV] == expected
    finally:
        set_kernel(saved_name)
        if saved_env is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = saved_env


def test_set_kernel_impossible_request_leaves_state_untouched():
    saved_env = os.environ.get(KERNEL_ENV)
    saved_name = kernel_name()
    with pytest.raises(KernelUnavailableError):
        set_kernel("cython")
    assert kernel_name() == saved_name
    assert os.environ.get(KERNEL_ENV) == saved_env


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_use_kernel_restores_kernel_and_env(kernel):
    saved_env = os.environ.get(KERNEL_ENV)
    saved_name = kernel_name()
    with use_kernel(kernel) as active:
        assert active.name == kernel
        assert kernel_name() == kernel
        assert os.environ[KERNEL_ENV] == kernel
    assert kernel_name() == saved_name
    assert os.environ.get(KERNEL_ENV) == saved_env


def test_cli_kernel_flag_surfaces_unavailable_kernel(monkeypatch, capsys):
    """``--kernel`` failures exit 2 with the error and the kernels that
    *are* available, instead of a traceback."""
    import repro.cli as cli

    def unavailable(name):
        raise KernelUnavailableError(f"kernel {name!r} is not importable here")

    monkeypatch.setattr(cli, "set_kernel", unavailable)
    assert cli.main(["detect", "--kernel", "numpy"]) == 2
    err = capsys.readouterr().err
    assert "not importable" in err
    for name in KERNEL_NAMES:
        assert name in err


# ---------------------------------------------------------------------------
# PairCounts: construction helpers shared by the oracle properties
# ---------------------------------------------------------------------------


def build_counts(kernel, mapping):
    """A :class:`PairCounts` for *kernel* holding *mapping* exactly."""
    if kernel == "python":
        return PythonPairCounts(Counter(mapping))
    ordered = sorted(mapping)
    return KERNELS["numpy"].counts_from_columns(
        array("Q", ordered), array("I", (mapping[key] for key in ordered))
    )


def patch_oracle(base, retract, add):
    """Reference semantics of ``PairCounts.patch`` on plain dicts."""
    out = dict(base)
    for key, retracted in retract.items():
        remaining = out.get(key, 0) - retracted
        if remaining:
            out[key] = remaining
        else:
            out.pop(key, None)
    for key, added in add.items():
        out[key] = out.get(key, 0) + added
    return out


@st.composite
def patch_cases(draw):
    """``(base, retract, add)`` with retract a sub-counter of base.

    The pipeline only ever retracts contributions it previously added,
    so retractions never exceed the standing count; drawing the retract
    amount up to *and including* the full count exercises the
    drop-to-exactly-zero elimination path."""
    keys = st.integers(0, 40)
    base = draw(st.dictionaries(keys, st.integers(1, 9), max_size=12))
    retract = {
        key: draw(st.integers(1, count))
        for key, count in base.items()
        if draw(st.booleans())
    }
    add = draw(st.dictionaries(keys, st.integers(1, 9), max_size=8))
    return base, retract, add


@pytest.mark.parametrize("state_kernel", KERNEL_NAMES)
@pytest.mark.parametrize("operand_kernel", KERNEL_NAMES)
@given(case=patch_cases())
@settings(max_examples=40)
def test_patch_matches_counter_oracle(state_kernel, operand_kernel, case):
    """patch == retract-then-add with exact-zero elimination, whichever
    backend holds the state and whichever produced the operands."""
    base, retract, add = case
    counts = build_counts(state_kernel, base)
    counts.patch(
        build_counts(operand_kernel, retract) if retract else None,
        build_counts(operand_kernel, add) if add else None,
    )
    expected = patch_oracle(base, retract, add)
    assert dict(counts.items()) == expected
    assert len(counts) == len(expected)
    # The post-patch wire format agrees too: eliminated keys are gone
    # from the sorted columns, not just masked in the mapping view.
    keys_column, counts_column = counts.sorted_columns()
    assert list(keys_column) == sorted(expected)
    assert list(counts_column) == [expected[key] for key in sorted(expected)]


@pytest.mark.parametrize("state_kernel", KERNEL_NAMES)
@pytest.mark.parametrize("operand_kernel", KERNEL_NAMES)
def test_patch_drop_to_zero_eliminates_key(state_kernel, operand_kernel):
    """A retraction landing on exactly zero removes the key everywhere:
    membership, lookup, length, and the serialized columns."""
    counts = build_counts(state_kernel, {1: 2, 5: 1, 9: 3})
    counts.patch(
        build_counts(operand_kernel, {5: 1, 9: 3}),
        build_counts(operand_kernel, {9: 1}),
    )
    assert 5 not in counts
    assert counts.get(5) == 0
    assert counts[5] == 0
    assert dict(counts.items()) == {1: 2, 9: 1}
    assert len(counts) == 2
    keys_column, _ = counts.sorted_columns()
    assert list(keys_column) == [1, 9]


@pytest.mark.parametrize("state_kernel", KERNEL_NAMES)
@pytest.mark.parametrize("operand_kernel", KERNEL_NAMES)
def test_patch_cancelling_delta_is_identity(state_kernel, operand_kernel):
    """retract == add nets to zero: the state is unchanged (the numpy
    kernel folds the operands before touching the columns; the python
    kernel subtracts then re-adds — both land on the same mapping)."""
    counts = build_counts(state_kernel, {1: 2, 7: 4})
    counts.patch(
        build_counts(operand_kernel, {1: 1, 7: 4}),
        build_counts(operand_kernel, {1: 1, 7: 4}),
    )
    assert dict(counts.items()) == {1: 2, 7: 4}


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_patch_none_operands_are_noops(kernel):
    counts = build_counts(kernel, {3: 1})
    counts.patch(None, None)
    assert dict(counts.items()) == {3: 1}
    empty = build_counts(kernel, {})
    empty.patch(None, build_counts(kernel, {8: 2}))
    assert dict(empty.items()) == {8: 2}


@pytest.mark.parametrize("writer", KERNEL_NAMES)
@pytest.mark.parametrize("reader", KERNEL_NAMES)
@given(
    mapping=st.dictionaries(
        st.integers(0, (1 << 40) - 1), st.integers(1, 1_000_000), max_size=20
    )
)
@settings(max_examples=25)
def test_wire_format_round_trips_across_kernels(writer, reader, mapping):
    """sorted_columns -> bytes -> counts_from_columns is lossless in
    every writer x reader combination — archives written under one
    kernel restore under the other."""
    keys_column, counts_column = build_counts(writer, mapping).sorted_columns()
    keys_wire = array("Q")
    keys_wire.frombytes(keys_column.tobytes())
    counts_wire = array("I")
    counts_wire.frombytes(counts_column.tobytes())
    restored = KERNELS[reader].counts_from_columns(keys_wire, counts_wire)
    assert dict(restored.items()) == mapping
    assert restored == build_counts(reader, mapping)


@needs_both_kernels
def test_pair_counts_equality_crosses_backends():
    mapping = {2: 3, (7 << 32) | 5: 1}
    python_counts = build_counts("python", mapping)
    numpy_counts = build_counts("numpy", mapping)
    assert python_counts == numpy_counts
    assert numpy_counts == python_counts
    assert python_counts == mapping
    assert numpy_counts == mapping
    assert dict(python_counts) == dict(numpy_counts) == mapping


# ---------------------------------------------------------------------------
# Kernel operations on empty and single-pair inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_accumulate_rowlists_empty(kernel):
    counts = KERNELS[kernel].accumulate_rowlists([], [])
    assert len(counts) == 0
    assert dict(counts.items()) == {}
    keys_column, counts_column = counts.sorted_columns()
    assert len(keys_column) == 0 and len(counts_column) == 0


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_select_scored_empty_counts(kernel):
    counts = build_counts(kernel, {})
    kept_keys, kept_values, scored = KERNELS[kernel].select_scored(
        counts, array("I"), array("I"), "jaccard", True, True, False, TIE_EPSILON
    )
    assert kept_keys == [] and kept_values == [] and scored == 0


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_select_scored_single_pair(kernel):
    """One pair, full overlap: similarity exactly 1.0, kept in every
    mode that wants anything."""
    counts = build_counts(kernel, {0: 2})
    kept_keys, kept_values, scored = KERNELS[kernel].select_scored(
        counts, array("I", [2]), array("I", [2]), "jaccard",
        True, True, True, TIE_EPSILON,
    )
    assert [int(key) for key in kept_keys] == [0]
    assert kept_values == [1.0]
    assert scored == 1


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_select_scored_unknown_metric_raises_keyerror(kernel):
    """Both kernels surface the same KeyError for a bad metric name (the
    numpy kernel's vector-metric table falls back to the scalar map)."""
    counts = build_counts(kernel, {0: 1})
    with pytest.raises(KeyError):
        KERNELS[kernel].select_scored(
            counts, array("I", [1]), array("I", [1]), "cosine",
            True, True, False, TIE_EPSILON,
        )


# ---------------------------------------------------------------------------
# select_scored: python vs numpy bit-identity on randomized instances
# ---------------------------------------------------------------------------

_MODES = {
    BestMatchMode.EITHER: (True, True, False),
    BestMatchMode.BOTH: (True, True, True),
    BestMatchMode.V4_ONLY: (True, False, False),
    BestMatchMode.V6_ONLY: (False, True, False),
}


@st.composite
def scoring_cases(draw):
    """Random size columns + a consistent shared-count mapping.

    Shared counts are capped at ``min(|A|, |B|)`` — the only values the
    accumulation can actually produce — so every metric stays in its
    defined range."""
    n_v4 = draw(st.integers(1, 6))
    n_v6 = draw(st.integers(1, 6))
    v4_sizes = array("I", (draw(st.integers(1, 12)) for _ in range(n_v4)))
    v6_sizes = array("I", (draw(st.integers(1, 12)) for _ in range(n_v6)))
    pair_rows = draw(
        st.sets(
            st.tuples(st.integers(0, n_v4 - 1), st.integers(0, n_v6 - 1)),
            max_size=12,
        )
    )
    mapping = {
        (a << 32) | b: draw(st.integers(1, min(v4_sizes[a], v6_sizes[b])))
        for a, b in sorted(pair_rows)
    }
    metric = draw(st.sampled_from(("jaccard", "dice", "overlap")))
    mode = draw(st.sampled_from(sorted(_MODES, key=lambda m: m.value)))
    return v4_sizes, v6_sizes, mapping, metric, mode


@needs_both_kernels
@given(case=scoring_cases())
@settings(max_examples=60)
def test_select_scored_bit_identical_across_kernels(case):
    """Same kept keys in the same order, float64-bit-equal similarities,
    same scored total — across metrics and best-match modes."""
    v4_sizes, v6_sizes, mapping, metric, mode = case
    want_v4, want_v6, need_both = _MODES[mode]
    results = {}
    for kernel in ("python", "numpy"):
        kept_keys, kept_values, scored = KERNELS[kernel].select_scored(
            build_counts(kernel, mapping), v4_sizes, v6_sizes, metric,
            want_v4, want_v6, need_both, TIE_EPSILON,
        )
        results[kernel] = (
            [int(key) for key in kept_keys],
            [value.hex() for value in kept_values],
            scored,
        )
    assert results["python"] == results["numpy"]


# ---------------------------------------------------------------------------
# Full-pipeline edges: empty / one-family / single-pair universes
# ---------------------------------------------------------------------------

_V4 = Prefix.from_address(IPV4, 20 << 24, 24)
_V6 = Prefix.from_address(IPV6, 0x2400_00DB << 96, 48)
_DATE = datetime.date(2024, 9, 1)


def _annotator() -> PrefixAnnotator:
    rib = Rib()
    rib.announce(_V4, 65001)
    rib.announce(_V6, 65002)
    return PrefixAnnotator(rib, missing_fraction=0.0)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_empty_universe_detects_nothing(kernel):
    with use_kernel(kernel):
        index = build_index(DnsSnapshot(_DATE, ()), _annotator())
        assert as_mapping(ColumnarSubstrate().select(index)) == {}


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_one_family_domain_yields_no_pairs(kernel):
    """A v4-only domain contributes no packed pairs on any kernel."""
    with use_kernel(kernel):
        snapshot = DnsSnapshot(
            _DATE,
            (DomainObservation("only4.example", (_V4.first_address + 1,), ()),),
        )
        index = build_index(snapshot, _annotator())
        assert as_mapping(ColumnarSubstrate().select(index)) == {}


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_single_pair_universe(kernel):
    """One dual-stack domain: exactly one sibling pair, similarity 1.0."""
    with use_kernel(kernel):
        snapshot = DnsSnapshot(
            _DATE,
            (
                DomainObservation(
                    "a.example",
                    (_V4.first_address + 1,),
                    (_V6.first_address + 1,),
                ),
            ),
        )
        index = build_index(snapshot, _annotator())
        mapping = as_mapping(ColumnarSubstrate().select(index))
    assert mapping == {(_V4, _V6): (1.0, frozenset({"a.example"}), 1, 1)}


@needs_both_kernels
def test_detect_cli_identical_output_across_kernels(tmp_path):
    """End to end through ``--kernel``: the CSVs are byte-identical."""
    from repro.cli import main

    outputs = {}
    with use_kernel(kernel_name()):  # restore kernel + env afterwards
        for kernel in KERNEL_NAMES:
            path = tmp_path / f"{kernel}.csv"
            assert main(
                [
                    "detect", "--scenario", "tiny", "--format", "csv",
                    "--kernel", kernel, "-o", str(path),
                ]
            ) == 0
            outputs[kernel] = path.read_bytes()
    assert outputs["python"] == outputs["numpy"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
