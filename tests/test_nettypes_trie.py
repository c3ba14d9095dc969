"""Tests for the patricia trie, including property tests against a naive model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nettypes.addr import IPV4, IPV6, MAX_LENGTH, AddressError
from repro.nettypes.prefix import Prefix, PrefixError
from repro.nettypes.trie import PatriciaTrie, union_of_frozensets


def p(text: str) -> Prefix:
    return Prefix.parse(text)


def small_v4_prefixes():
    # A deliberately collision-heavy universe to exercise glue nodes.
    return st.builds(
        lambda value, length: Prefix.from_address(IPV4, value << 24, length),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=8),
    )


def small_v6_prefixes():
    # 128-bit arithmetic with deep compressed paths: the high byte and a
    # LOW byte vary, so sibling prefixes diverge 100+ bits apart.
    return st.builds(
        lambda high, low, length: Prefix.from_address(
            IPV6, (high << 120) | (low << 8), length
        ),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=120),
    )


def _address_near(version: int):
    """Addresses inside and around the entries above: the high byte (v4)
    or the high and low bytes (v6) of the prefix generators, then
    boundary or random host bits."""
    if version == IPV4:
        return st.builds(
            lambda high, host: (high << 24) | host,
            st.integers(min_value=0, max_value=255),
            st.sampled_from([0, 1, 0xFFFFFF]) | st.integers(0, 2**24 - 1),
        )
    return st.builds(
        lambda high, low, host: (high << 120) | (low << 8) | host,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=255),
        st.sampled_from([0, 1, 0xFF]) | st.integers(0, 255),
    )


def _entries(version: int):
    """Collision-heavy prefixes plus host routes and the /0 route."""
    small = small_v4_prefixes() if version == IPV4 else small_v6_prefixes()
    return st.lists(
        st.tuples(
            st.one_of(
                small,
                _address_near(version).map(lambda a: Prefix.host(version, a)),
                st.just(Prefix(version, 0, 0)),
            ),
            st.integers(),
        ),
        max_size=30,
    )


def _scan_lpm(model: dict, address: int):
    """Longest-prefix match by linear scan: the model the walks must equal."""
    matches = [(q, v) for q, v in model.items() if q.contains_address(address)]
    return max(matches, key=lambda match: match[0].length, default=None)


class TestInsertLookup:
    def test_insert_and_exact_get(self):
        trie = PatriciaTrie(IPV4)
        trie.insert(p("192.0.2.0/24"), "a")
        assert trie[p("192.0.2.0/24")] == "a"
        assert trie.get(p("192.0.2.0/25")) is None
        assert len(trie) == 1

    def test_replace_value(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = 1
        trie[p("10.0.0.0/8")] = 2
        assert trie[p("10.0.0.0/8")] == 2
        assert len(trie) == 1

    def test_lpm_basic(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = "eight"
        trie[p("10.1.0.0/16")] = "sixteen"
        assert trie.lookup_value(p("10.1.2.0/24")) == "sixteen"
        assert trie.lookup_value(p("10.2.0.0/24")) == "eight"
        assert trie.lookup_value(p("11.0.0.0/24")) is None

    def test_lpm_exact_hit(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = "x"
        assert trie.lookup_prefix(p("10.0.0.0/8")) == p("10.0.0.0/8")

    def test_lookup_address(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = "x"
        found = trie.lookup_address(Prefix.parse("10.9.9.9").value)
        assert found == (p("10.0.0.0/8"), "x")
        assert trie.lookup_address(Prefix.parse("11.0.0.1").value) is None

    def test_glue_node_not_visible(self):
        trie = PatriciaTrie(IPV4)
        trie[p("192.0.2.0/24")] = 1
        trie[p("192.0.3.0/24")] = 2
        # Glue at 192.0.2.0/23 exists structurally but holds no value.
        assert trie.get(p("192.0.2.0/23")) is None
        assert len(trie) == 2

    def test_version_mismatch(self):
        trie = PatriciaTrie(IPV4)
        with pytest.raises(PrefixError):
            trie.insert(p("2001:db8::/32"), 1)

    def test_default_route(self):
        trie = PatriciaTrie(IPV4)
        trie[p("0.0.0.0/0")] = "default"
        trie[p("10.0.0.0/8")] = "ten"
        assert trie.lookup_value(p("11.0.0.0/24")) == "default"
        assert trie.lookup_value(p("10.0.0.0/24")) == "ten"

    def test_v6(self):
        trie = PatriciaTrie(IPV6)
        trie[p("2001:db8::/32")] = "doc"
        assert trie.lookup_value(p("2001:db8:1::/48")) == "doc"
        assert trie.lookup_value(p("2001:db9::/48")) is None

    def test_covering(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = 8
        trie[p("10.1.0.0/16")] = 16
        trie[p("10.1.2.0/24")] = 24
        covering = trie.covering(p("10.1.2.0/25"))
        assert [c[1] for c in covering] == [8, 16, 24]


class TestRemove:
    def test_remove(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = 1
        assert trie.remove(p("10.0.0.0/8")) == 1
        assert len(trie) == 0
        assert trie.get(p("10.0.0.0/8")) is None

    def test_remove_absent_raises(self):
        trie = PatriciaTrie(IPV4)
        with pytest.raises(KeyError):
            trie.remove(p("10.0.0.0/8"))

    def test_remove_glue_only_raises(self):
        trie = PatriciaTrie(IPV4)
        trie[p("192.0.2.0/24")] = 1
        trie[p("192.0.3.0/24")] = 2
        with pytest.raises(KeyError):
            trie.remove(p("192.0.2.0/23"))

    def test_remove_keeps_descendants(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = 1
        trie[p("10.1.0.0/16")] = 2
        trie.remove(p("10.0.0.0/8"))
        assert trie.lookup_value(p("10.1.2.0/24")) == 2
        assert len(trie) == 1

    def test_delitem(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = 1
        del trie[p("10.0.0.0/8")]
        assert p("10.0.0.0/8") not in trie

    def test_clear(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/8")] = 1
        trie.clear()
        assert len(trie) == 0


class TestSubtreeNavigation:
    def build(self):
        trie = PatriciaTrie(IPV4)
        for text, val in [
            ("10.0.0.0/24", 1),
            ("10.0.1.0/24", 2),
            ("10.0.128.0/24", 3),
            ("10.1.0.0/24", 4),
        ]:
            trie[p(text)] = val
        return trie

    def test_subtree_items(self):
        trie = self.build()
        under = dict(trie.subtree_items(p("10.0.0.0/16")))
        assert set(under.values()) == {1, 2, 3}
        assert dict(trie.subtree_items(p("10.0.0.0/17")))
        assert not dict(trie.subtree_items(p("10.2.0.0/16")))

    def test_items_in_address_order(self):
        trie = self.build()
        assert [v for _, v in trie.items()] == [1, 2, 3, 4]

    def test_subtree_root_compression(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/24")] = 1
        # Everything under 10.0.0.0/8 lives inside the single /24.
        assert trie.subtree_root(p("10.0.0.0/8")) == p("10.0.0.0/24")
        assert trie.subtree_root(p("11.0.0.0/8")) is None

    def test_branch_children_branching(self):
        trie = self.build()
        kids = trie.branch_children(p("10.0.0.0/16"))
        # Branches at /17: left half holds the two /24s, right half one /24.
        assert len(kids) == 2
        assert all(p("10.0.0.0/16").contains(k) for k in kids)

    def test_branch_children_pass_through(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/24")] = 1
        assert trie.branch_children(p("10.0.0.0/8")) == [p("10.0.0.0/24")]

    def test_branch_children_empty(self):
        trie = PatriciaTrie(IPV4)
        assert trie.branch_children(p("10.0.0.0/8")) == []

    def test_branch_children_leaf(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/24")] = 1
        assert trie.branch_children(p("10.0.0.0/24")) == []

    def test_count_under(self):
        trie = self.build()
        assert trie.count_under(p("10.0.0.0/15")) == 4
        assert trie.count_under(p("10.0.0.0/16")) == 3


class TestAggregation:
    def test_aggregate_union(self):
        trie = PatriciaTrie(IPV4, aggregate=union_of_frozensets)
        trie[p("10.0.0.0/24")] = frozenset({"a", "b"})
        trie[p("10.0.1.0/24")] = frozenset({"b", "c"})
        assert trie.aggregate_under(p("10.0.0.0/16")) == frozenset({"a", "b", "c"})
        assert trie.aggregate_under(p("10.0.0.0/24")) == frozenset({"a", "b"})
        assert trie.aggregate_under(p("11.0.0.0/16")) is None

    def test_aggregate_cache_invalidation(self):
        trie = PatriciaTrie(IPV4, aggregate=union_of_frozensets)
        trie[p("10.0.0.0/24")] = frozenset({"a"})
        assert trie.aggregate_under(p("10.0.0.0/8")) == frozenset({"a"})
        trie[p("10.0.1.0/24")] = frozenset({"b"})
        assert trie.aggregate_under(p("10.0.0.0/8")) == frozenset({"a", "b"})
        trie.remove(p("10.0.0.0/24"))
        assert trie.aggregate_under(p("10.0.0.0/8")) == frozenset({"b"})

    def test_aggregate_without_function_raises(self):
        trie = PatriciaTrie(IPV4)
        trie[p("10.0.0.0/24")] = frozenset({"a"})
        with pytest.raises(TypeError):
            trie.aggregate_under(p("10.0.0.0/8"))

    def test_aggregate_includes_own_value(self):
        trie = PatriciaTrie(IPV4, aggregate=union_of_frozensets)
        trie[p("10.0.0.0/16")] = frozenset({"self"})
        trie[p("10.0.1.0/24")] = frozenset({"child"})
        assert trie.aggregate_under(p("10.0.0.0/16")) == frozenset({"self", "child"})


class TestPropertyBased:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(small_v4_prefixes(), st.integers()), max_size=40))
    def test_model_equivalence_exact(self, entries):
        trie = PatriciaTrie(IPV4)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        assert len(trie) == len(model)
        for prefix, value in model.items():
            assert trie[prefix] == value
        assert dict(trie.items()) == model

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(small_v4_prefixes(), st.integers()), max_size=30),
        small_v4_prefixes(),
    )
    def test_model_equivalence_lpm(self, entries, query):
        trie = PatriciaTrie(IPV4)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        expected = None
        for prefix in sorted(model, key=lambda q: q.length):
            if prefix.contains(query):
                expected = (prefix, model[prefix])
        assert trie.lookup(query) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(small_v4_prefixes(), st.integers()), max_size=25),
        st.data(),
    )
    def test_model_equivalence_after_removals(self, entries, data):
        trie = PatriciaTrie(IPV4)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        keys = sorted(model)
        if keys:
            to_remove = data.draw(st.lists(st.sampled_from(keys), unique=True))
            for prefix in to_remove:
                assert trie.remove(prefix) == model.pop(prefix)
        assert dict(trie.items()) == model
        assert len(trie) == len(model)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(small_v4_prefixes(), st.integers()), max_size=25),
        small_v4_prefixes(),
    )
    def test_subtree_matches_model(self, entries, root):
        trie = PatriciaTrie(IPV4)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        expected = {q: v for q, v in model.items() if root.contains(q)}
        assert dict(trie.subtree_items(root)) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(small_v6_prefixes(), st.integers()), max_size=30))
    def test_v6_model_equivalence_exact(self, entries):
        trie = PatriciaTrie(IPV6)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        assert dict(trie.items()) == model
        assert len(trie) == len(model)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(small_v6_prefixes(), st.integers()), max_size=25),
        small_v6_prefixes(),
    )
    def test_v6_model_equivalence_lpm(self, entries, query):
        trie = PatriciaTrie(IPV6)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        expected = None
        for prefix in sorted(model, key=lambda q: q.length):
            if prefix.contains(query):
                expected = (prefix, model[prefix])
        assert trie.lookup(query) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_v6_prefixes(), min_size=1, max_size=20))
    def test_v6_aggregation_matches_bruteforce(self, prefixes):
        from repro.nettypes.trie import union_of_frozensets

        trie = PatriciaTrie(IPV6, aggregate=union_of_frozensets)
        model: dict[Prefix, frozenset] = {}
        for index, prefix in enumerate(prefixes):
            value = frozenset({f"d{index}", f"d{index % 3}"})
            trie[prefix] = value
            model[prefix] = value
        root = prefixes[0].supernet(max(0, prefixes[0].length - 8))
        expected = frozenset()
        for prefix, value in model.items():
            if root.contains(prefix):
                expected |= value
        aggregated = trie.aggregate_under(root)
        assert (aggregated or frozenset()) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_v4_prefixes(), min_size=1, max_size=25), small_v4_prefixes())
    def test_branch_children_cover_subtree(self, prefixes, root):
        trie = PatriciaTrie(IPV4)
        for prefix in prefixes:
            trie[prefix] = frozenset({str(prefix)})
        stored_under = {q for q in prefixes if root.contains(q)}
        kids = trie.branch_children(root)
        if root in trie and trie.count_under(root) == 1:
            assert kids == []
        covered = set()
        for kid in kids:
            assert root.contains(kid)
            covered |= {q for q in stored_under if kid.contains(q)}
        if kids:
            assert covered | ({root} & stored_under) == stored_under


class TestFromItems:
    def test_builds_and_looks_up(self):
        trie = PatriciaTrie.from_items(
            IPV4, [(p("10.0.0.0/8"), "a"), (p("10.1.0.0/16"), "b")]
        )
        assert len(trie) == 2
        assert trie.lookup_value(p("10.1.2.0/24")) == "b"
        assert trie.lookup_value(p("10.200.0.0/16")) == "a"

    def test_later_duplicates_win(self):
        trie = PatriciaTrie.from_items(
            IPV4, [(p("10.0.0.0/8"), "old"), (p("10.0.0.0/8"), "new")]
        )
        assert len(trie) == 1
        assert trie[p("10.0.0.0/8")] == "new"

    def test_aggregate_passthrough(self):
        trie = PatriciaTrie.from_items(
            IPV4,
            [(p("10.0.0.0/8"), frozenset({"x"})), (p("10.1.0.0/16"), frozenset({"y"}))],
            aggregate=union_of_frozensets,
        )
        assert trie.aggregate_under(p("10.0.0.0/8")) == frozenset({"x", "y"})


@pytest.mark.parametrize("version", [IPV4, IPV6])
class TestIntegerWalks:
    """The integer walks (``lookup_address``, ``lookup``, ``covering``,
    ``remove``) against a linear scan, for both families."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lookup_address_matches_scan(self, version, data):
        entries = data.draw(_entries(version))
        trie = PatriciaTrie(version)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        hosts = [q.value for q in model if q.length == q.bits]
        queries = data.draw(st.lists(_address_near(version), min_size=1, max_size=8))
        for query in queries + hosts:
            expected = _scan_lpm(model, query)
            assert trie.lookup_address(query) == expected
            assert trie.lookup(Prefix.host(version, query)) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        excess=st.integers(min_value=0, max_value=2**130),
        negative=st.booleans(),
    )
    def test_lookup_address_rejects_out_of_range(self, version, data, excess, negative):
        trie = PatriciaTrie(version)
        for prefix, value in data.draw(_entries(version)):
            trie[prefix] = value
        bits = MAX_LENGTH[version]
        value = -1 - excess if negative else (1 << bits) + excess
        with pytest.raises(AddressError, match="out of range"):
            trie.lookup_address(value)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_covering_matches_scan(self, version, data):
        entries = data.draw(_entries(version))
        trie = PatriciaTrie(version)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        small = small_v4_prefixes() if version == IPV4 else small_v6_prefixes()
        hosts = _address_near(version).map(lambda a: Prefix.host(version, a))
        queries = data.draw(st.lists(small | hosts, min_size=1, max_size=8))
        for query in queries + list(model):
            expected = sorted(
                ((q, v) for q, v in model.items() if q.contains(query)),
                key=lambda match: match[0].length,
            )
            assert trie.covering(query) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lpm_after_removals_matches_scan(self, version, data):
        entries = data.draw(_entries(version))
        trie = PatriciaTrie(version)
        model: dict[Prefix, int] = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        if model:
            for prefix in data.draw(st.lists(st.sampled_from(sorted(model)), unique=True)):
                assert trie.remove(prefix) == model.pop(prefix)
        assert len(trie) == len(model)
        for query in data.draw(st.lists(_address_near(version), min_size=1, max_size=8)):
            assert trie.lookup_address(query) == _scan_lpm(model, query)
        for prefix in model:
            assert trie.lookup(prefix) == (prefix, model[prefix])
