"""Integer-based IPv4 and IPv6 address handling.

Addresses are represented as plain Python integers together with an IP
version constant (:data:`IPV4` or :data:`IPV6`).  This keeps the hot paths
of the sibling-prefix pipeline (prefix grouping, trie traversal, Jaccard
evaluation over millions of records) free of object allocation; parsing and
formatting only happen at the edges.

The module implements its own parsers and formatters rather than wrapping
:mod:`ipaddress`; the test-suite cross-validates them against the standard
library.
"""

from __future__ import annotations

IPV4 = 4
IPV6 = 6

#: Number of bits in an address of each version.
MAX_LENGTH = {IPV4: 32, IPV6: 128}

_MAX_VALUE = {IPV4: (1 << 32) - 1, IPV6: (1 << 128) - 1}

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class AddressError(ValueError):
    """Raised when an address string or integer is malformed."""


def max_value(version: int) -> int:
    """Return the largest address integer for *version*."""
    try:
        return _MAX_VALUE[version]
    except KeyError:
        raise AddressError(f"unknown IP version: {version!r}") from None


def check_value(version: int, value: int) -> int:
    """Validate that *value* fits in an address of *version*."""
    if not 0 <= value <= max_value(version):
        raise AddressError(f"address value {value!r} out of range for IPv{version}")
    return value


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad *text* into an integer.

    Only the canonical four-octet decimal form is accepted; leading zeros
    are rejected (they are ambiguous between octal and decimal readings),
    and so are digits outside ASCII, which ``str.isdigit`` and ``int``
    would otherwise accept.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if (
            not (part.isascii() and part.isdigit())
            or (len(part) > 1 and part[0] == "0")
            or len(part) > 3
        ):
            raise AddressError(f"invalid IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"IPv4 octet {part!r} out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format integer *value* as a dotted quad."""
    check_value(IPV4, value)
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def _parse_hextet(part: str, text: str) -> int:
    if not 1 <= len(part) <= 4 or any(ch not in _HEX_DIGITS for ch in part):
        raise AddressError(f"invalid IPv6 group {part!r} in {text!r}")
    return int(part, 16)


def parse_ipv6(text: str) -> int:
    """Parse an IPv6 address (RFC 4291 text form) into an integer.

    Supports ``::`` compression and an embedded IPv4 dotted-quad tail
    (e.g. ``::ffff:192.0.2.1``).  Zone identifiers are not supported.
    """
    if "%" in text:
        raise AddressError(f"zone identifiers not supported: {text!r}")
    if text.count("::") > 1:
        raise AddressError(f"multiple '::' in IPv6 address: {text!r}")

    head, sep, tail = text.partition("::")
    head_parts = head.split(":") if head else []
    tail_parts = tail.split(":") if tail else []
    if not sep:
        # No compression: the split of ``head`` must yield exactly 8 groups
        # (or 7 groups where the final one is an IPv4 tail).
        tail_parts = []

    def expand(parts: list[str]) -> list[int]:
        groups: list[int] = []
        for index, part in enumerate(parts):
            if "." in part:
                if index != len(parts) - 1:
                    raise AddressError(f"embedded IPv4 must be last: {text!r}")
                v4 = parse_ipv4(part)
                groups.append(v4 >> 16)
                groups.append(v4 & 0xFFFF)
            elif part == "":
                raise AddressError(f"empty group in IPv6 address: {text!r}")
            else:
                groups.append(_parse_hextet(part, text))
        return groups

    head_groups = expand(head_parts)
    tail_groups = expand(tail_parts)

    if sep:
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise AddressError(f"'::' expands to nothing in {text!r}")
        groups = head_groups + [0] * missing + tail_groups
    else:
        groups = head_groups
        if len(groups) != 8:
            raise AddressError(f"expected 8 groups in IPv6 address: {text!r}")

    value = 0
    for group in groups:
        value = (value << 16) | group
    return value


def format_ipv6(value: int) -> str:
    """Format integer *value* in canonical RFC 5952 IPv6 text form."""
    check_value(IPV6, value)
    groups = [(value >> (112 - 16 * i)) & 0xFFFF for i in range(8)]

    # Find the longest run of zero groups (length >= 2) for '::' compression;
    # RFC 5952 requires compressing the leftmost longest run.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0

    if best_len >= 2:
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
        return f"{head}::{tail}"
    return ":".join(f"{g:x}" for g in groups)


def parse_address(text: str) -> tuple[int, int]:
    """Parse *text* as either family; return ``(version, value)``."""
    if ":" in text:
        return IPV6, parse_ipv6(text)
    return IPV4, parse_ipv4(text)


def format_address(version: int, value: int) -> str:
    """Format ``(version, value)`` back into text form."""
    if version == IPV4:
        return format_ipv4(value)
    if version == IPV6:
        return format_ipv6(value)
    raise AddressError(f"unknown IP version: {version!r}")


# ---------------------------------------------------------------------------
# Special-purpose address registries (RFC 6890 and friends).
#
# The paper discards "private, invalid, or reserved" addresses (<0.01% of
# dual-stack domains, Section 2.2); these tables drive that filter.
# Entries are (first_value, prefix_length) pairs.
# ---------------------------------------------------------------------------

_RESERVED_V4: tuple[tuple[int, int], ...] = (
    (parse_ipv4("0.0.0.0"), 8),        # "this network"
    (parse_ipv4("10.0.0.0"), 8),       # private
    (parse_ipv4("100.64.0.0"), 10),    # CGN shared space
    (parse_ipv4("127.0.0.0"), 8),      # loopback
    (parse_ipv4("169.254.0.0"), 16),   # link-local
    (parse_ipv4("172.16.0.0"), 12),    # private
    (parse_ipv4("192.0.0.0"), 24),     # IETF protocol assignments
    (parse_ipv4("192.0.2.0"), 24),     # TEST-NET-1
    (parse_ipv4("192.88.99.0"), 24),   # 6to4 relay anycast (deprecated)
    (parse_ipv4("192.168.0.0"), 16),   # private
    (parse_ipv4("198.18.0.0"), 15),    # benchmarking
    (parse_ipv4("198.51.100.0"), 24),  # TEST-NET-2
    (parse_ipv4("203.0.113.0"), 24),   # TEST-NET-3
    (parse_ipv4("224.0.0.0"), 4),      # multicast
    (parse_ipv4("240.0.0.0"), 4),      # reserved / broadcast
)

_RESERVED_V6: tuple[tuple[int, int], ...] = (
    (0, 8),                            # ::/8 incl. unspecified, loopback, v4-mapped
    (parse_ipv6("100::"), 64),         # discard-only
    (parse_ipv6("2001::"), 23),        # IETF protocol assignments (incl. ORCHID, TEREDO)
    (parse_ipv6("2001:db8::"), 32),    # documentation
    (parse_ipv6("2002::"), 16),        # 6to4
    (parse_ipv6("fc00::"), 7),         # unique local
    (parse_ipv6("fe80::"), 10),        # link-local
    (parse_ipv6("ff00::"), 8),         # multicast
)


def _covered(value: int, table: tuple[tuple[int, int], ...], bits: int) -> bool:
    for network, length in table:
        if value >> (bits - length) == network >> (bits - length):
            return True
    return False


def is_reserved(version: int, value: int) -> bool:
    """Return True if the address is private, reserved, or otherwise
    non-global (the paper's discard filter for DNS answers)."""
    check_value(version, value)
    if version == IPV4:
        return _covered(value, _RESERVED_V4, 32)
    if not _covered(value, _RESERVED_V6, 128):
        # Global unicast space is 2000::/3; everything outside it that is
        # not in the explicit table is still reserved for future use.
        return value >> 125 != 0b001
    return True


def is_global(version: int, value: int) -> bool:
    """Inverse of :func:`is_reserved` for readability at call sites."""
    return not is_reserved(version, value)
