"""The :class:`Prefix` value type.

A prefix is an immutable ``(version, value, length)`` triple where *value*
is the network address as an integer with all host bits zero.  The class
provides the containment, supernet and subnet arithmetic the rest of the
library is built on, plus parsing/formatting at the edges.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator

from repro.nettypes import addr as _addr
from repro.nettypes.addr import MAX_LENGTH, check_value


class PrefixError(ValueError):
    """Raised for malformed prefixes or invalid prefix arithmetic."""


@total_ordering
class Prefix:
    """An immutable IPv4 or IPv6 CIDR prefix.

    >>> p = Prefix.parse("192.0.2.0/24")
    >>> p.version, p.length
    (4, 24)
    >>> p.contains_address(Prefix.parse("192.0.2.7/32").value)
    True
    """

    __slots__ = ("version", "value", "length", "_hash")

    version: int
    value: int
    length: int

    def __init__(self, version: int, value: int, length: int):
        bits = MAX_LENGTH.get(version)
        if bits is None:
            raise PrefixError(f"unknown IP version: {version!r}")
        if not 0 <= length <= bits:
            raise PrefixError(f"invalid prefix length /{length} for IPv{version}")
        check_value(version, value)
        host_bits = bits - length
        if host_bits and value & ((1 << host_bits) - 1):
            raise PrefixError(
                f"host bits set in {_addr.format_address(version, value)}/{length}"
            )
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_hash", hash((version, value, length)))

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"network/length"`` text; a bare address gets a full-length
        mask (/32 or /128)."""
        network, slash, length_text = text.partition("/")
        version, value = _addr.parse_address(network)
        if slash:
            if not (length_text.isascii() and length_text.isdigit()):
                raise PrefixError(f"invalid prefix length in {text!r}")
            length = int(length_text)
        else:
            length = MAX_LENGTH[version]
        return cls(version, value, length)

    @classmethod
    def from_address(cls, version: int, value: int, length: int) -> "Prefix":
        """Build the /*length* prefix covering address *value* (host bits
        are masked off rather than rejected)."""
        bits = MAX_LENGTH.get(version)
        if bits is None:
            raise PrefixError(f"unknown IP version: {version!r}")
        if not 0 <= length <= bits:
            raise PrefixError(f"invalid prefix length /{length} for IPv{version}")
        check_value(version, value)
        host_bits = bits - length
        masked = (value >> host_bits) << host_bits if host_bits else value
        return cls(version, masked, length)

    @classmethod
    def host(cls, version: int, value: int) -> "Prefix":
        """The /32 or /128 prefix for a single address."""
        return cls(version, value, MAX_LENGTH[version])

    # -- derived properties --------------------------------------------------

    @property
    def bits(self) -> int:
        """Total address bits for this family (32 or 128)."""
        return MAX_LENGTH[self.version]

    @property
    def host_bits(self) -> int:
        return self.bits - self.length

    @property
    def first_address(self) -> int:
        return self.value

    @property
    def last_address(self) -> int:
        return self.value | ((1 << self.host_bits) - 1) if self.host_bits else self.value

    @property
    def num_addresses(self) -> int:
        return 1 << self.host_bits

    @property
    def network_text(self) -> str:
        return _addr.format_address(self.version, self.value)

    @property
    def network_key(self) -> int:
        """The network bits alone, right-aligned (``value >> host_bits``).

        Together with ``(version, length)`` this is a *packed key*: a
        /24 IPv4 prefix becomes a 24-bit integer, a /48 IPv6 prefix a
        48-bit one.  Equal keys at equal lengths mean equal prefixes,
        and an address masked to the same length (see
        :func:`address_network_key`) matches iff the prefix contains
        it — the invariant the serving index's binary search relies on.

        >>> Prefix.parse("192.0.2.0/24").network_key == 0xC00002
        True
        """
        return self.value >> self.host_bits

    @classmethod
    def from_network_key(cls, version: int, key: int, length: int) -> "Prefix":
        """Inverse of :attr:`network_key`: rebuild the prefix from its
        packed network bits.

        >>> p = Prefix.parse("2001:db8::/32")
        >>> Prefix.from_network_key(6, p.network_key, 32) == p
        True
        """
        bits = MAX_LENGTH.get(version)
        if bits is None:
            raise PrefixError(f"unknown IP version: {version!r}")
        if not 0 <= length <= bits:
            raise PrefixError(f"invalid prefix length /{length} for IPv{version}")
        if not 0 <= key < (1 << length):
            raise PrefixError(f"network key {key!r} out of range for /{length}")
        return cls(version, key << (bits - length), length)

    # -- containment ---------------------------------------------------------

    def contains_address(self, value: int) -> bool:
        """True if integer address *value* (same family) falls inside."""
        if not 0 <= value <= _addr.max_value(self.version):
            return False
        return value >> self.host_bits == self.value >> self.host_bits

    def contains(self, other: "Prefix") -> bool:
        """True if *other* is equal to or more specific than this prefix."""
        if other.version != self.version or other.length < self.length:
            return False
        shift = self.host_bits
        return other.value >> shift == self.value >> shift

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    # -- supernet / subnet arithmetic ----------------------------------------

    def supernet(self, new_length: int | None = None) -> "Prefix":
        """The covering prefix at *new_length* (default: one bit shorter)."""
        if new_length is None:
            new_length = self.length - 1
        if not 0 <= new_length <= self.length:
            raise PrefixError(
                f"cannot widen /{self.length} prefix to /{new_length}"
            )
        return Prefix.from_address(self.version, self.value, new_length)

    def subnets(self, new_length: int | None = None) -> Iterator["Prefix"]:
        """Iterate the subnets of this prefix at *new_length*
        (default: one bit longer).  Beware of combinatorial explosion for
        large length deltas; callers use small deltas only."""
        if new_length is None:
            new_length = self.length + 1
        if not self.length <= new_length <= self.bits:
            raise PrefixError(
                f"cannot split /{self.length} prefix into /{new_length}"
            )
        step = 1 << (self.bits - new_length)
        for index in range(1 << (new_length - self.length)):
            yield Prefix(self.version, self.value + index * step, new_length)

    def sibling_subnet(self) -> "Prefix":
        """The other half of this prefix's parent (its binary sibling)."""
        if self.length == 0:
            raise PrefixError("/0 prefix has no sibling")
        return Prefix(self.version, self.value ^ (1 << self.host_bits), self.length)

    def bit_at(self, position: int) -> int:
        """The address bit at 0-based *position* (0 = most significant)."""
        if not 0 <= position < self.bits:
            raise PrefixError(f"bit position {position} out of range")
        return (self.value >> (self.bits - 1 - position)) & 1

    def common_prefix(self, other: "Prefix") -> "Prefix":
        """The longest prefix containing both (same family required)."""
        if other.version != self.version:
            raise PrefixError("cannot combine IPv4 and IPv6 prefixes")
        limit = min(self.length, other.length)
        diff = (self.value ^ other.value) >> (self.bits - limit) if limit else 0
        common = limit - diff.bit_length()
        return Prefix.from_address(self.version, self.value, common)

    # -- dunder protocol -----------------------------------------------------

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Prefix):
            return self.contains(item)
        if isinstance(item, int):
            return self.contains_address(item)
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (
            self.version == other.version
            and self.value == other.value
            and self.length == other.length
        )

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.version, self.value, self.length) < (
            other.version,
            other.value,
            other.length,
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{self.network_text}/{self.length}"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix instances are immutable")


def parse_many(texts: list[str] | tuple[str, ...]) -> list[Prefix]:
    """Convenience: parse a list of prefix strings."""
    return [Prefix.parse(text) for text in texts]


def address_network_key(version: int, value: int, length: int) -> int:
    """The packed network key an address *value* would have at /*length*.

    Query-side companion of :attr:`Prefix.network_key`, stating the
    containment invariant the serving index builds on: a stored prefix
    contains the address iff their keys at the prefix's length are
    equal.  (The index's probe loop inlines this shift; the helper is
    the documented form for external consumers and tests.)

    >>> p = Prefix.parse("198.51.100.0/24")
    >>> address_network_key(4, p.value | 0x2A, 24) == p.network_key
    True
    """
    return value >> (MAX_LENGTH[version] - length)
