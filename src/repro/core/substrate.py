"""Pluggable execution substrates for Steps 3-4 of the methodology.

A *substrate* is a strategy for evaluating the sparse similarity matrix
(Step 3) and the best-match selection (Step 4) over a
:class:`~repro.core.domainsets.PrefixDomainIndex`.  Two implementations
ship:

* ``"reference"`` — the literal dict-of-sets transcription of the paper:
  every candidate pair materializes a Python ``set`` of shared domains
  up front (:func:`~repro.core.detection.compute_pair_stats` followed by
  :func:`~repro.core.detection.select_best_matches`).  Easy to audit,
  pays per-pair object overhead.
* ``"columnar"`` — the production engine.  Domains and prefixes are
  interned into dense integer ids, group memberships become sorted
  posting lists in CSR layout (``array('I')`` data + offsets), and the
  Step 3 accumulation runs over packed 64-bit keys
  ``(v4_row << 32) | v6_row`` so no per-pair Python containers exist.
  Shared-domain sets materialize lazily, only for the pairs that survive
  best-match selection.

Both substrates are exact: for the same index, metric and mode they
produce identical :class:`~repro.core.siblings.SiblingSet` contents
(pairs, similarities, tie sets and shared-domain sets) — enforced by
``tests/test_substrate_equivalence.py``.

Each columnar engine owns its state: a :class:`DomainPool` of interned
domain ids, and the columnar view of the one index it last prepared.
Passing one instance through a longitudinal run reuses the pool across
snapshots (see :func:`repro.analysis.pipeline.detect_series`);
:func:`get_substrate` hands out a fresh instance per call.

The columnar state model is *persistent-with-retraction*: the prepared
state carries the Step-3 counter across calls, and an index changes only
through :meth:`~repro.core.domainsets.PrefixDomainIndex.apply_delta`,
whose :class:`~repro.core.domainsets.IndexDelta` the caller hands to
:meth:`Substrate.patch`.  :meth:`ColumnarSubstrate.patch` patches the
held state and counter in place (retracting the removed domains' packed
pair contributions, adding the new ones) instead of rebuilding — the
engine room of :class:`~repro.analysis.pipeline.RollingDetection`.  An
index edited by hand needs a fresh engine.
"""

from __future__ import annotations

import abc
from array import array
from collections import Counter
from typing import ClassVar, Iterable, NamedTuple

from repro.core.detection import (
    TIE_EPSILON,
    BestMatchMode,
    compute_pair_stats,
    select_best_matches,
)
from repro.core.domainsets import IndexDelta, PrefixDomainIndex
from repro.core.kernels import accumulate_rowlists, patch_counts, select_scored
from repro.core.siblings import SiblingPair, SiblingSet
from repro.nettypes.prefix import Prefix
from repro.obs.tracing import trace

_LOW32 = 0xFFFFFFFF


class GroupStats(NamedTuple):
    """Set-level domain statistics for a group of prefixes per family.

    Produced by :meth:`Substrate.group_stats` and consumed by the
    sibling-set-pair construction (:mod:`repro.core.setpairs`).
    """

    shared_domains: frozenset[str]
    v4_domain_count: int
    v6_domain_count: int


class Substrate(abc.ABC):
    """Strategy interface for Step 3-4 execution.

    Implementations must be exact — substrates trade speed and memory
    layout, never results.
    """

    #: Registry key in :data:`SUBSTRATES`.
    name: ClassVar[str]

    def patch(self, index: PrefixDomainIndex, delta: IndexDelta) -> None:
        """Bring state held for *index* up to date after
        ``index.apply_delta`` returned *delta*.

        Engines that hold no state (the reference engine) have nothing
        to do.
        """

    @abc.abstractmethod
    def select(
        self,
        index: PrefixDomainIndex,
        metric: str = "jaccard",
        mode: BestMatchMode = BestMatchMode.EITHER,
    ) -> SiblingSet:
        """Run Steps 3-4 over *index* and return the sibling pairs."""

    @abc.abstractmethod
    def group_stats(
        self,
        index: PrefixDomainIndex,
        v4_prefixes: Iterable[Prefix],
        v6_prefixes: Iterable[Prefix],
    ) -> GroupStats:
        """Domain-set statistics for a (v4 group, v6 group) pair.

        The shared set is the intersection of the families' domain
        unions; the counts are the union sizes per family.
        """


class ReferenceSubstrate(Substrate):
    """The paper-literal dict-of-sets path, kept as the oracle.

    Stateless; every call re-derives everything from the index.
    """

    name = "reference"

    def select(
        self,
        index: PrefixDomainIndex,
        metric: str = "jaccard",
        mode: BestMatchMode = BestMatchMode.EITHER,
    ) -> SiblingSet:
        """Steps 3-4 via eager :class:`~repro.core.detection.PairStats`."""
        return select_best_matches(
            compute_pair_stats(index), index, metric=metric, mode=mode
        )

    def group_stats(
        self,
        index: PrefixDomainIndex,
        v4_prefixes: Iterable[Prefix],
        v6_prefixes: Iterable[Prefix],
    ) -> GroupStats:
        """Union the per-prefix domain sets with plain Python sets."""
        domains_v4: set[str] = set()
        for prefix in v4_prefixes:
            domains_v4 |= index.domains_of(prefix)
        domains_v6: set[str] = set()
        for prefix in v6_prefixes:
            domains_v6 |= index.domains_of(prefix)
        return GroupStats(
            shared_domains=frozenset(domains_v4 & domains_v6),
            v4_domain_count=len(domains_v4),
            v6_domain_count=len(domains_v6),
        )


class _ColumnarState:
    """Interned, columnar view of one :class:`PrefixDomainIndex`.

    Built once per index and held by the engine that built it; every
    field is positional/flat so Step 3 touches only machine-sized
    integers.
    """

    __slots__ = (
        "v4_prefixes",
        "v6_prefixes",
        "v4_row_of",
        "v6_row_of",
        "v4_sizes",
        "v6_sizes",
        "dom_bases",
        "dom_rows",
        "dom_pos",
        "free_positions",
        "counts",
        "v4_post_data",
        "v4_post_offsets",
        "v6_post_data",
        "v6_post_offsets",
        "_v4_gid_sets",
        "_v6_gid_sets",
    )

    def __init__(self, index: PrefixDomainIndex, intern_domain) -> None:
        # Dense per-snapshot rows for each family's prefixes.  The row,
        # not the prefix object, is what Step 3 packs into its keys.
        self.v4_prefixes: list[Prefix] = list(index.v4_domains)
        self.v6_prefixes: list[Prefix] = list(index.v6_domains)
        # v4 rows are stored premultiplied (<< 32) so the accumulation
        # loop packs keys with a single OR.
        self.v4_row_of = {
            prefix: row << 32 for row, prefix in enumerate(self.v4_prefixes)
        }
        self.v6_row_of = {
            prefix: row for row, prefix in enumerate(self.v6_prefixes)
        }
        self.v4_sizes = array("I", (len(s) for s in index.v4_domains.values()))
        self.v6_sizes = array("I", (len(s) for s in index.v6_domains.values()))

        # Per-domain membership rows — the transposed view Step 3 walks.
        # The v6 side is looked up by domain key (not zipped positionally)
        # so the two rows always describe the same domain even if the
        # index dicts were populated in different orders.
        v4_row_of = self.v4_row_of
        v6_row_of = self.v6_row_of
        domain_v6_prefixes = index.domain_v6_prefixes
        self.dom_bases: list[list[int]] = []
        self.dom_rows: list[list[int]] = []
        #: domain → its position in dom_bases/dom_rows, so delta patching
        #: can retract exactly the rows a domain contributed.
        self.dom_pos: dict[str, int] = {}
        for position, (domain, v4_prefixes) in enumerate(
            index.domain_v4_prefixes.items()
        ):
            # Interning here, in index order, keeps gids independent of
            # the hash-seeded order of the domain sets _build_csr walks.
            intern_domain(domain)
            self.dom_pos[domain] = position
            self.dom_bases.append([v4_row_of[p] for p in v4_prefixes])
            self.dom_rows.append(
                [v6_row_of[p] for p in domain_v6_prefixes[domain]]
            )
        #: Tombstoned dom positions available for reuse by delta adds.
        self.free_positions: list[int] = []
        #: Persistent Step-3 counter of shared domains per packed pair
        #: key.  ``None`` until the first full accumulation; afterwards
        #: kept current by delta retract/add
        #: (:meth:`ColumnarSubstrate._patch_state`) so repeated selects
        #: and incremental runs never re-accumulate unchanged domains.
        self.counts: Counter | None = None

        # Per-prefix domain posting lists in CSR layout: sorted global
        # domain ids, one flat array + offsets per family.
        self.v4_post_data, self.v4_post_offsets = _build_csr(
            index.v4_domains.values(), intern_domain
        )
        self.v6_post_data, self.v6_post_offsets = _build_csr(
            index.v6_domains.values(), intern_domain
        )
        # Lazy per-row frozensets of domain ids, built on first
        # materialization of a surviving pair.
        self._v4_gid_sets: dict[int, frozenset[int]] = {}
        self._v6_gid_sets: dict[int, frozenset[int]] = {}

    def v4_gids(self, row: int) -> frozenset[int]:
        """Domain-id set of v4 prefix *row* (cached/patched overlay)."""
        gids = self._v4_gid_sets.get(row)
        if gids is None:
            offsets = self.v4_post_offsets
            if row + 1 >= len(offsets):
                # Row allocated by delta patching after the CSR build;
                # its membership lives only in the overlay, which the
                # patch fills for every touched prefix.
                gids = frozenset()
            else:
                gids = frozenset(
                    self.v4_post_data[offsets[row] : offsets[row + 1]]
                )
            self._v4_gid_sets[row] = gids
        return gids

    def v6_gids(self, row: int) -> frozenset[int]:
        """Domain-id set of v6 prefix *row* (cached/patched overlay)."""
        gids = self._v6_gid_sets.get(row)
        if gids is None:
            offsets = self.v6_post_offsets
            if row + 1 >= len(offsets):
                gids = frozenset()
            else:
                gids = frozenset(
                    self.v6_post_data[offsets[row] : offsets[row + 1]]
                )
            self._v6_gid_sets[row] = gids
        return gids

    # -- delta patching support ------------------------------------------------

    def v4_base_for(self, prefix: Prefix) -> int:
        """The premultiplied v4 row for *prefix*, allocating if unseen."""
        base = self.v4_row_of.get(prefix)
        if base is None:
            base = len(self.v4_prefixes) << 32
            self.v4_prefixes.append(prefix)
            self.v4_row_of[prefix] = base
            self.v4_sizes.append(0)
        return base

    def v6_row_for(self, prefix: Prefix) -> int:
        """The v6 row for *prefix*, allocating if unseen."""
        row = self.v6_row_of.get(prefix)
        if row is None:
            row = len(self.v6_prefixes)
            self.v6_prefixes.append(prefix)
            self.v6_row_of[prefix] = row
            self.v6_sizes.append(0)
        return row


def _build_csr(
    domain_sets: Iterable[set[str]], intern_domain
) -> tuple[array, array]:
    """Sorted posting lists for an iterable of domain sets, CSR layout."""
    data = array("I")
    offsets = array("I", [0])
    for domains in domain_sets:
        data.extend(sorted(map(intern_domain, domains)))
        offsets.append(len(data))
    return data, offsets


class DomainPool:
    """Dense domain ids: positional names plus a name → gid dict.

    The columnar engine interns every domain it sees into its pool, and
    the snapshot archive writes gids against the same positions (its
    ``pool.*`` segments persist :attr:`names`).
    """

    def __init__(self) -> None:
        #: Position *i* is the domain with gid *i*.
        self.names: list[str] = []
        self._gids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        """The gid for *name*, allocated on first sight."""
        gid = self._gids.get(name)
        if gid is None:
            gid = len(self.names)
            self._gids[name] = gid
            self.names.append(name)
        return gid

    def adopt(self, names: Iterable[str]) -> None:
        """Align this pool with an archived one.

        Interns every name in order; archived gids are positional, so
        each name must land on its own position.  An empty pool adopts
        wholesale; a pool that already diverged raises ``ValueError`` —
        the caller should start over with a fresh pool rather than mix
        two gid spaces.
        """
        for gid, name in enumerate(names):
            if self.intern(name) != gid:
                raise ValueError(
                    "cannot adopt archived domain pool: this intern pool "
                    "already diverged from it"
                )


class ColumnarSubstrate(Substrate):
    """Interned-id, posting-list execution of Steps 3-4.

    The engine owns its domain pool and the columnar state of the one
    index it last prepared.  Reusing one engine across snapshots
    (longitudinal runs, SP-Tuner sweeps) hashes every domain string
    exactly once, and rolling one index through it patches that state
    instead of rebuilding it.
    """

    name = "columnar"

    def __init__(self) -> None:
        self.pool = DomainPool()
        #: The index :attr:`_state` describes, matched by identity.
        self._index: "PrefixDomainIndex | None" = None
        self._state: "_ColumnarState | None" = None

    @property
    def interned_domain_count(self) -> int:
        """How many distinct domains this pool has seen (all snapshots)."""
        return len(self.pool.names)

    # -- state management ----------------------------------------------------

    def columnarize(self, index: PrefixDomainIndex) -> _ColumnarState:
        """Build the columnar view of *index* (no caching).

        This is the Steps 1-2 conversion cost; :meth:`prepare` keeps the
        result so repeated Step 3 runs on the same index don't pay it
        again.
        """
        return _ColumnarState(index, self.pool.intern)

    @staticmethod
    def _fingerprint(index: PrefixDomainIndex) -> tuple[int, ...]:
        """Cheap signature of the index's group structure."""
        return (
            len(index.domain_v4_prefixes),
            len(index.v4_domains),
            len(index.v6_domains),
            sum(len(s) for s in index.v4_domains.values()),
            sum(len(s) for s in index.v6_domains.values()),
        )

    @staticmethod
    def _state_fingerprint(state: _ColumnarState) -> tuple[int, ...]:
        """:meth:`_fingerprint` as derivable from a columnar state.

        Emptied groups keep their rows at size 0 (the index deletes the
        key), so non-zero sizes count the index's groups and the size
        sums its memberships — a cheap integer pass that lets the patch
        path cross-check itself against the index without rebuilding.
        """
        return (
            len(state.dom_pos),
            sum(1 for size in state.v4_sizes if size),
            sum(1 for size in state.v6_sizes if size),
            sum(state.v4_sizes),
            sum(state.v6_sizes),
        )

    def prepare(self, index: PrefixDomainIndex) -> _ColumnarState:
        """The columnar state of *index*: the held one, or a new build.

        The engine holds one (index, state) pair.  *index* must change
        only through :meth:`~repro.core.domainsets.PrefixDomainIndex.
        apply_delta` followed by :meth:`patch`; an index edited by hand
        after it was prepared needs a fresh engine.
        """
        if index is self._index:
            return self._state
        with trace("step12.columnarize") as span:
            state = self.columnarize(index)
            span.add_items(len(state.dom_pos))
        self._index, self._state = index, state
        return state

    def adopt_state(self, index: PrefixDomainIndex, state: _ColumnarState) -> None:
        """Hold a restored columnar *state* as *index*'s view.

        The resume hook of the snapshot archive
        (:func:`repro.storage.substrate_io.restore_state`): instead of
        :meth:`columnarize`-ing a freshly rebuilt index and
        re-accumulating Step 3 from scratch, the archived state — CSR
        posting lists, row tables, and the persistent Step-3 counter —
        is adopted wholesale.  The structural fingerprint of the state
        must land exactly on the index's (the same cross-check
        :meth:`patch` uses); a mismatch raises ``ValueError`` and the
        caller should fall back to a full rebuild.
        """
        if self._state_fingerprint(state) != self._fingerprint(index):
            raise ValueError(
                "archived columnar state does not match this index's "
                "group structure; rebuild instead of adopting"
            )
        self._index, self._state = index, state

    def patch(self, index: PrefixDomainIndex, delta: IndexDelta) -> None:
        """Patch the held state of *index* by one :class:`~repro.core.
        domainsets.IndexDelta` — O(touched domains), with the persistent
        Step-3 counter retracted/re-added — instead of rebuilding it.

        The patched state's structure must land on the index's
        fingerprint; a mismatch (an index also edited by hand) drops
        the state, and the next :meth:`prepare` rebuilds.
        """
        if index is not self._index:
            return
        state = self._state
        with trace("step12.patch", items=1):
            self._patch_state(state, index, delta)
        if self._state_fingerprint(state) != self._fingerprint(index):
            self._index = self._state = None

    # -- incremental patching --------------------------------------------------

    def _patch_state(
        self, state: _ColumnarState, index: PrefixDomainIndex, delta: IndexDelta
    ) -> None:
        """Replay one :class:`~repro.core.domainsets.IndexDelta` onto *state*.

        Retracts the removed domains' membership rows, adds the new
        ones (reusing tombstoned positions), refreshes the sizes and
        posting-list overlay of every touched prefix from the already
        mutated index, and — when the persistent counter exists —
        retracts/adds exactly those domains' packed pair contributions
        against it.  Equivalent by construction to a from-scratch
        rebuild + full re-accumulation on the mutated index.
        """
        retract_bases: list[list[int]] = []
        retract_rows: list[list[int]] = []
        add_bases: list[list[int]] = []
        add_rows: list[list[int]] = []
        touched_v4: set[Prefix] = set()
        touched_v6: set[Prefix] = set()
        intern = self.pool.intern

        for domain, v4_prefixes, v6_prefixes in delta.removed:
            position = state.dom_pos.pop(domain)
            retract_bases.append(state.dom_bases[position])
            retract_rows.append(state.dom_rows[position])
            state.dom_bases[position] = []
            state.dom_rows[position] = []
            state.free_positions.append(position)
            touched_v4 |= v4_prefixes
            touched_v6 |= v6_prefixes
        for domain, v4_prefixes, v6_prefixes in delta.added:
            # New domains take gids in delta order, never in the
            # hash-seeded order of the member sets below.
            intern(domain)
            bases = [state.v4_base_for(p) for p in v4_prefixes]
            rows = [state.v6_row_for(p) for p in v6_prefixes]
            if state.free_positions:
                position = state.free_positions.pop()
                state.dom_bases[position] = bases
                state.dom_rows[position] = rows
            else:
                position = len(state.dom_bases)
                state.dom_bases.append(bases)
                state.dom_rows.append(rows)
            state.dom_pos[domain] = position
            add_bases.append(bases)
            add_rows.append(rows)
            touched_v4 |= v4_prefixes
            touched_v6 |= v6_prefixes

        # Refresh sizes and the gid overlay from the (already mutated)
        # index — the CSR arrays stay untouched; touched rows answer
        # from the overlay instead.
        # Allocation (not plain lookup) also for removal-touched rows: a
        # delta applied after a hand-edit can mention a prefix this
        # state never saw; allocating keeps the patch total, and the
        # fingerprint cross-check in patch() decides whether the
        # patched state is actually usable.
        for prefix in touched_v4:
            row = state.v4_base_for(prefix) >> 32
            members = index.v4_domains.get(prefix, ())
            state.v4_sizes[row] = len(members)
            state._v4_gid_sets[row] = frozenset(map(intern, members))
        for prefix in touched_v6:
            row = state.v6_row_for(prefix)
            members = index.v6_domains.get(prefix, ())
            state.v6_sizes[row] = len(members)
            state._v6_gid_sets[row] = frozenset(map(intern, members))

        counts = state.counts
        if counts is None:
            return
        patch_counts(
            counts,
            accumulate_rowlists(retract_bases, retract_rows)
            if retract_bases
            else None,
            accumulate_rowlists(add_bases, add_rows) if add_bases else None,
        )

    # -- Steps 3-4 -----------------------------------------------------------

    @staticmethod
    def pair_counts(state: _ColumnarState) -> Counter:
        """Step 3: shared-domain counts per packed ``(v4 << 32) | v6`` key.

        One flat pass over the per-domain membership rows.
        """
        return accumulate_rowlists(state.dom_bases, state.dom_rows)

    def select(
        self,
        index: PrefixDomainIndex,
        metric: str = "jaccard",
        mode: BestMatchMode = BestMatchMode.EITHER,
    ) -> SiblingSet:
        """Steps 3-4 over packed keys; see the module docstring.

        The Step-3 counter persists on the prepared state: the first
        call accumulates it in full, later calls reuse it as-is, and
        :meth:`patch` keeps it current across index deltas — the
        substrate state model is persistent-with-retraction, not
        per-call.
        """
        state = self.prepare(index)
        counts = state.counts
        if counts is None:
            with trace("step3.accumulate") as span:
                counts = self.pair_counts(state)
                span.add_items(len(counts))
            state.counts = counts
        with trace("step4.select") as step4:
            v4_sizes = state.v4_sizes
            v6_sizes = state.v6_sizes

            # The mode predicate is specialized here once.
            want_v4 = mode in (BestMatchMode.EITHER, BestMatchMode.BOTH, BestMatchMode.V4_ONLY)
            want_v6 = mode in (BestMatchMode.EITHER, BestMatchMode.BOTH, BestMatchMode.V6_ONLY)
            need_both = mode is BestMatchMode.BOTH
            kept_keys, kept_values, scored = select_scored(
                counts,
                v4_sizes,
                v6_sizes,
                metric,
                want_v4,
                want_v6,
                need_both,
                TIE_EPSILON,
            )

            result = SiblingSet(index.date)
            v4_prefixes = state.v4_prefixes
            v6_prefixes = state.v6_prefixes
            names = self.pool.names
            for key, value in zip(kept_keys, kept_values):
                a = key >> 32
                b = key & _LOW32
                # Lazy materialization: only surviving pairs intersect their
                # posting lists and map ids back to domain strings.
                gids_a = state.v4_gids(a)
                gids_b = state.v6_gids(b)
                result.add(
                    SiblingPair(
                        v4_prefix=v4_prefixes[a],
                        v6_prefix=v6_prefixes[b],
                        similarity=value,
                        shared_domains=frozenset(
                            map(names.__getitem__, gids_a & gids_b)
                        ),
                        v4_domain_count=v4_sizes[a],
                        v6_domain_count=v6_sizes[b],
                    )
                )
            step4.add_items(scored)
        return result

    def group_stats(
        self,
        index: PrefixDomainIndex,
        v4_prefixes: Iterable[Prefix],
        v6_prefixes: Iterable[Prefix],
    ) -> GroupStats:
        """Union the posting lists in id space, intersect, map back."""
        state = self.prepare(index)
        gids_v4: set[int] = set()
        for prefix in v4_prefixes:
            base = state.v4_row_of.get(prefix)
            if base is not None:
                gids_v4 |= state.v4_gids(base >> 32)
        gids_v6: set[int] = set()
        for prefix in v6_prefixes:
            row = state.v6_row_of.get(prefix)
            if row is not None:
                gids_v6 |= state.v6_gids(row)
        names = self.pool.names
        return GroupStats(
            shared_domains=frozenset(
                map(names.__getitem__, gids_v4 & gids_v6)
            ),
            v4_domain_count=len(gids_v4),
            v6_domain_count=len(gids_v6),
        )


#: Registered substrate classes, keyed by CLI/registry name.
SUBSTRATES: dict[str, type[Substrate]] = {
    ReferenceSubstrate.name: ReferenceSubstrate,
    ColumnarSubstrate.name: ColumnarSubstrate,
}

#: The engine used when callers don't ask for a specific one.
DEFAULT_SUBSTRATE = ColumnarSubstrate.name

def get_substrate(spec: "str | Substrate | None" = None) -> Substrate:
    """Resolve *spec* to a substrate instance.

    ``None`` means :data:`DEFAULT_SUBSTRATE`.  A name builds a fresh
    instance; an instance passes through.  A caller whose calls must
    share one engine's state — detect and then archive, select and then
    :meth:`~Substrate.group_stats` — resolves once and passes the
    instance to each call.
    """
    if isinstance(spec, Substrate):
        return spec
    name = DEFAULT_SUBSTRATE if spec is None else spec
    try:
        factory = SUBSTRATES[name]
    except KeyError:
        raise KeyError(
            f"unknown substrate {name!r}; choose from {sorted(SUBSTRATES)}"
        ) from None
    return factory()
