"""A compressed binary patricia trie over IP prefixes.

This is the from-scratch replacement for the PyTricia library the paper
uses to implement SP-Tuner (Section 3.3).  The trie stores ``Prefix →
value`` associations for a single IP version and supports the operations
the tuner and the BGP substrate need:

* exact-match insert / lookup / delete,
* longest-prefix match for addresses and prefixes,
* subtree enumeration and *branch discovery* (``branch_children``), i.e.
  "where does the address space below this prefix actually diverge?" —
  the primitive behind ``GetNextSubprefixes`` in Algorithm 1,
* lazily cached subtree aggregation (e.g. the union of all domain sets
  below a prefix), the primitive behind Jaccard evaluation during tuning.

Internal nodes created for path compression carry no value; they disappear
again when deletions make them redundant.

Walks compare plain integers: a node's prefix (``value``, ``length``)
contains a key ``value`` of at least its length exactly when
``(key ^ value) >> (bits - length)`` is zero, and the branch bit below a
node of length ``n`` is ``(key >> (bits - 1 - n)) & 1``.  Every node on a
walk contains the key, so only the child just reached needs the test.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

from repro.nettypes.addr import MAX_LENGTH, check_value
from repro.nettypes.prefix import Prefix, PrefixError

V = TypeVar("V")

_MISSING = object()


class _Node:
    __slots__ = ("prefix", "value", "has_value", "children", "agg", "agg_gen")

    def __init__(self, prefix: Prefix):
        self.prefix = prefix
        self.value: object = None
        self.has_value = False
        self.children: list["_Node | None"] = [None, None]
        self.agg: object = None
        self.agg_gen = -1


class PatriciaTrie:
    """Compressed binary trie mapping :class:`Prefix` keys to values.

    ``aggregate`` is an optional reducer used by :meth:`aggregate_under`:
    it receives an iterable of stored values and returns their merge (for
    SP-Tuner this is a frozenset union of domain sets).  Aggregates are
    memoised per node and invalidated on any mutation.

    >>> trie = PatriciaTrie(4)
    >>> trie.insert(Prefix.parse("192.0.2.0/24"), "a")
    >>> trie.lookup_value(Prefix.parse("192.0.2.128/25"))
    'a'
    """

    def __init__(
        self,
        version: int,
        aggregate: Callable[[Iterable[V]], V] | None = None,
    ):
        if version not in MAX_LENGTH:
            raise PrefixError(f"unknown IP version: {version!r}")
        self.version = version
        self._bits = MAX_LENGTH[version]
        self._aggregate = aggregate
        self._root = _Node(Prefix(version, 0, 0))
        self._size = 0
        self._generation = 0

    @classmethod
    def from_items(
        cls,
        version: int,
        items: Iterable[tuple[Prefix, V]],
        aggregate: Callable[[Iterable[V]], V] | None = None,
    ) -> "PatriciaTrie":
        """Build a trie from ``(prefix, value)`` pairs in one call.

        Later duplicates of a prefix replace earlier ones, mirroring
        repeated :meth:`insert`.  This is the reference-oracle entry
        point the serving tests use to cross-check the compiled
        :class:`~repro.serving.index.SiblingLookupIndex`.

        >>> trie = PatriciaTrie.from_items(4, [(Prefix.parse("10.0.0.0/8"), 1)])
        >>> trie.lookup_value(Prefix.parse("10.1.0.0/16"))
        1
        """
        trie = cls(version, aggregate)
        for prefix, value in items:
            trie.insert(prefix, value)
        return trie

    # -- mutation ------------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Store *value* under *prefix*, replacing any existing value."""
        self._check_version(prefix)
        self._generation += 1
        bits = self._bits
        key = prefix.value
        length = prefix.length
        node = self._root
        while True:
            node_length = node.prefix.length
            if node_length == length:
                if not node.has_value:
                    self._size += 1
                node.value = value
                node.has_value = True
                return
            bit = (key >> (bits - 1 - node_length)) & 1
            child = node.children[bit]
            if child is None:
                leaf = _Node(prefix)
                leaf.value = value
                leaf.has_value = True
                node.children[bit] = leaf
                self._size += 1
                return
            child_key = child.prefix.value
            child_length = child.prefix.length
            if child_length <= length and not (key ^ child_key) >> (bits - child_length):
                node = child
                continue
            if length < child_length and not (key ^ child_key) >> (bits - length):
                # Splice the new node between ``node`` and ``child``.
                new = _Node(prefix)
                new.value = value
                new.has_value = True
                new.children[(child_key >> (bits - 1 - length)) & 1] = child
                node.children[bit] = new
                self._size += 1
                return
            # The paths diverge inside ``child``: add a valueless glue node
            # at the longest common prefix.
            limit = min(length, child_length)
            common = limit - ((key ^ child_key) >> (bits - limit)).bit_length()
            glue = _Node(
                Prefix(self.version, key >> (bits - common) << (bits - common), common)
            )
            glue.children[(child_key >> (bits - 1 - common)) & 1] = child
            leaf = _Node(prefix)
            leaf.value = value
            leaf.has_value = True
            glue.children[(key >> (bits - 1 - common)) & 1] = leaf
            node.children[bit] = glue
            self._size += 1
            return

    def remove(self, prefix: Prefix) -> V:
        """Delete the exact entry for *prefix*; returns the stored value.

        Raises :class:`KeyError` when absent.  Redundant glue nodes left
        behind by the deletion are compressed away.
        """
        self._check_version(prefix)
        bits = self._bits
        key = prefix.value
        length = prefix.length
        path: list[tuple[_Node, int]] = []
        node = self._root
        while node.prefix.length != length:
            bit = (key >> (bits - 1 - node.prefix.length)) & 1
            child = node.children[bit]
            if child is None:
                raise KeyError(str(prefix))
            child_length = child.prefix.length
            if child_length > length or (key ^ child.prefix.value) >> (
                bits - child_length
            ):
                raise KeyError(str(prefix))
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise KeyError(str(prefix))
        self._generation += 1
        value = node.value
        node.value = None
        node.has_value = False
        self._size -= 1
        self._compress_upwards(node, path)
        return value  # type: ignore[return-value]

    def _compress_upwards(self, node: _Node, path: list[tuple[_Node, int]]) -> None:
        """Remove now-redundant valueless nodes along *path*."""
        while node is not self._root and not node.has_value:
            kids = [c for c in node.children if c is not None]
            if len(kids) >= 2:
                return
            parent, bit = path.pop() if path else (None, 0)
            if parent is None:
                return
            parent.children[bit] = kids[0] if kids else None
            node = parent

    def clear(self) -> None:
        self._root = _Node(Prefix(self.version, 0, 0))
        self._size = 0
        self._generation += 1

    # -- exact access ---------------------------------------------------------

    def exact_node(self, prefix: Prefix) -> "_Node | None":
        self._check_version(prefix)
        node = self._descend(prefix)
        if node is not None and node.prefix.length == prefix.length and node.has_value:
            return node
        return None

    def get(self, prefix: Prefix, default: V | None = None) -> V | None:
        """Exact-match get (no LPM)."""
        node = self.exact_node(prefix)
        return node.value if node is not None else default  # type: ignore[return-value]

    def __getitem__(self, prefix: Prefix) -> V:
        node = self.exact_node(prefix)
        if node is None:
            raise KeyError(str(prefix))
        return node.value  # type: ignore[return-value]

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def __delitem__(self, prefix: Prefix) -> None:
        self.remove(prefix)

    def __contains__(self, prefix: object) -> bool:
        return isinstance(prefix, Prefix) and self.exact_node(prefix) is not None

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Prefix]:
        for prefix, _ in self.items():
            yield prefix

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All stored (prefix, value) pairs in address order."""
        yield from self._iter_node(self._root)

    def _iter_node(self, node: _Node) -> Iterator[tuple[Prefix, V]]:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.has_value:
                yield current.prefix, current.value  # type: ignore[misc]
            # Push right before left so the left child pops first.
            for child in (current.children[1], current.children[0]):
                if child is not None:
                    stack.append(child)

    # -- longest-prefix match ---------------------------------------------------

    def lookup(self, query: Prefix) -> tuple[Prefix, V] | None:
        """Longest stored prefix containing *query*, with its value."""
        self._check_version(query)
        return self._longest_match(query.value, query.length)

    def _longest_match(self, key: int, length: int) -> tuple[Prefix, V] | None:
        best: _Node | None = None
        for best in self._stored_on_path(key, length):
            pass
        if best is None:
            return None
        return best.prefix, best.value  # type: ignore[return-value]

    def _stored_on_path(self, key: int, length: int) -> Iterator[_Node]:
        """The nodes holding a value whose prefix contains the /*length*
        prefix with network bits *key*, shortest first."""
        bits = self._bits
        node = self._root
        while True:
            if node.has_value:
                yield node
            node_length = node.prefix.length
            if node_length >= length:
                return
            child = node.children[(key >> (bits - 1 - node_length)) & 1]
            if child is None:
                return
            child_length = child.prefix.length
            if child_length > length or (key ^ child.prefix.value) >> (
                bits - child_length
            ):
                return
            node = child

    def lookup_value(self, query: Prefix, default: V | None = None) -> V | None:
        found = self.lookup(query)
        return found[1] if found is not None else default

    def lookup_prefix(self, query: Prefix) -> Prefix | None:
        found = self.lookup(query)
        return found[0] if found is not None else None

    def lookup_address(self, value: int) -> tuple[Prefix, V] | None:
        """LPM for a bare integer address."""
        if value < 0 or value >> self._bits:
            check_value(self.version, value)  # raises: out of range
        return self._longest_match(value, self._bits)

    def covering(self, query: Prefix) -> list[tuple[Prefix, V]]:
        """All stored prefixes containing *query*, shortest first."""
        self._check_version(query)
        return [
            (node.prefix, node.value)  # type: ignore[misc]
            for node in self._stored_on_path(query.value, query.length)
        ]

    # -- subtree navigation ------------------------------------------------------

    def _descend(self, prefix: Prefix) -> "_Node | None":
        """The node rooting everything stored at-or-below *prefix*.

        The returned node's own prefix may be *more* specific than the
        query (path compression); it is never less specific.
        """
        bits = self._bits
        key = prefix.value
        length = prefix.length
        node = self._root
        if length == 0:
            return node
        while True:
            child = node.children[(key >> (bits - 1 - node.prefix.length)) & 1]
            if child is None:
                return None
            child_length = child.prefix.length
            if child_length >= length:
                # The child lies inside *prefix* or beside it.
                if (key ^ child.prefix.value) >> (bits - length):
                    return None
                return child
            if (key ^ child.prefix.value) >> (bits - child_length):
                return None
            node = child

    def subtree_root(self, prefix: Prefix) -> Prefix | None:
        """The most specific prefix covering everything stored below
        *prefix* (None when nothing is stored there)."""
        self._check_version(prefix)
        node = self._descend(prefix)
        if node is None or not self._subtree_nonempty(node):
            return None
        return node.prefix

    def branch_children(self, prefix: Prefix) -> list[Prefix]:
        """Where the populated address space below *prefix* diverges.

        Returns the node prefixes one branch below *prefix*:

        * ``[]`` when nothing is stored below *prefix* or *prefix* is
          itself a leaf entry with no descendants,
        * ``[deeper]`` when all entries live inside a single more-specific
          prefix (the compressed path),
        * two prefixes when the space genuinely branches at *prefix*.
        """
        self._check_version(prefix)
        node = self._descend(prefix)
        if node is None:
            return []
        if node.prefix.length != prefix.length:
            return [node.prefix] if self._subtree_nonempty(node) else []
        children = []
        for child in node.children:
            if child is not None and self._subtree_nonempty(child):
                children.append(child.prefix)
        return children

    def _subtree_nonempty(self, node: _Node) -> bool:
        stack = [node]
        while stack:
            current = stack.pop()
            if current.has_value:
                return True
            stack.extend(c for c in current.children if c is not None)
        return False

    def subtree_items(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """All stored (prefix, value) pairs at or below *prefix*."""
        self._check_version(prefix)
        node = self._descend(prefix)
        if node is not None:
            yield from self._iter_node(node)

    def count_under(self, prefix: Prefix) -> int:
        return sum(1 for _ in self.subtree_items(prefix))

    # -- aggregation ---------------------------------------------------------------

    def aggregate_under(self, prefix: Prefix) -> V | None:
        """Merge all values stored at-or-below *prefix* with the trie's
        ``aggregate`` reducer.  Results are memoised per internal node and
        reused until the next mutation.  Returns None for empty subtrees.
        """
        if self._aggregate is None:
            raise TypeError("trie was built without an aggregate function")
        self._check_version(prefix)
        node = self._descend(prefix)
        if node is None:
            return None
        return self._aggregate_node(node)

    def _aggregate_node(self, node: _Node) -> V | None:
        if node.agg_gen == self._generation:
            return node.agg  # type: ignore[return-value]
        parts: list[V] = []
        if node.has_value:
            parts.append(node.value)  # type: ignore[arg-type]
        for child in node.children:
            if child is not None:
                sub = self._aggregate_node(child)
                if sub is not None:
                    parts.append(sub)
        result = self._aggregate(parts) if parts else None  # type: ignore[misc]
        node.agg = result
        node.agg_gen = self._generation
        return result

    # -- helpers -------------------------------------------------------------------

    def _check_version(self, prefix: Prefix) -> None:
        if prefix.version != self.version:
            raise PrefixError(
                f"IPv{prefix.version} prefix used with IPv{self.version} trie"
            )

    def __repr__(self) -> str:
        return f"PatriciaTrie(version={self.version}, size={self._size})"


def union_of_frozensets(parts: Iterable[frozenset]) -> frozenset:
    """The aggregate reducer used by SP-Tuner's domain tries."""
    result: frozenset = frozenset()
    for part in parts:
        result |= part
    return result
