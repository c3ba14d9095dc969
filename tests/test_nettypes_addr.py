"""Tests for repro.nettypes.addr — parsing, formatting, classification."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nettypes.addr import (
    IPV4,
    IPV6,
    AddressError,
    format_address,
    format_ipv4,
    format_ipv6,
    is_global,
    is_reserved,
    max_value,
    parse_address,
    parse_ipv4,
    parse_ipv6,
)
from repro.nettypes.prefix import Prefix, PrefixError

#: Characters ``str.isdigit`` accepts that are not ASCII digits: the
#: Arabic-Indic, fullwidth and Devanagari digits, and superscripts.
UNICODE_DIGITS = "\u0660\u0661\u0668\uff10\uff11\uff18\u0967\u00b2\u00b9"


class TestParseIpv4:
    def test_basic(self):
        assert parse_ipv4("0.0.0.0") == 0
        assert parse_ipv4("255.255.255.255") == 2**32 - 1
        assert parse_ipv4("192.0.2.1") == (192 << 24) | (2 << 8) | 1

    def test_rejects_leading_zero(self):
        with pytest.raises(AddressError):
            parse_ipv4("192.0.02.1")

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.x", "1..2.3", " 1.2.3.4"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse_ipv4(bad)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_stdlib(self, value):
        text = str(ipaddress.IPv4Address(value))
        assert parse_ipv4(text) == value

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip(self, value):
        assert parse_ipv4(format_ipv4(value)) == value


class TestParseIpv6:
    def test_basic(self):
        assert parse_ipv6("::") == 0
        assert parse_ipv6("::1") == 1
        assert parse_ipv6("2001:db8::") == 0x20010DB8 << 96

    def test_full_form(self):
        assert parse_ipv6("2001:0db8:0000:0000:0000:0000:0000:0001") == (
            (0x20010DB8 << 96) | 1
        )

    def test_embedded_ipv4(self):
        assert parse_ipv6("::ffff:192.0.2.1") == (0xFFFF << 32) | parse_ipv4("192.0.2.1")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ":::",
            "1::2::3",
            "2001:db8",
            "2001:db8:1:2:3:4:5:6:7",
            "g::1",
            "12345::",
            "fe80::1%eth0",
            "1:2:3:4:5:6:7:1.2.3.4",
            "::1.2.3.4.5",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse_ipv6(bad)

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_matches_stdlib(self, value):
        text = str(ipaddress.IPv6Address(value))
        assert parse_ipv6(text) == value

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_roundtrip(self, value):
        assert parse_ipv6(format_ipv6(value)) == value

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_format_is_canonical_rfc5952(self, value):
        assert format_ipv6(value) == str(ipaddress.IPv6Address(value))


class TestNonAsciiDigits:
    """Only ASCII digits make an octet or a prefix length."""

    @pytest.mark.parametrize(
        "bad",
        ["\u0661.2.3.4", "\uff11.2.3.4", "1.2.3.\u0968", "10.0.0.\u00b2",
         "::ffff:\uff11.2.3.4"],
    )
    def test_parse_address_rejects(self, bad):
        with pytest.raises(AddressError):
            parse_address(bad)

    @pytest.mark.parametrize("bad", ["10.0.0.0/\u0668", "10.0.0.0/\u00b2",
                                     "2001:db8::/\uff13\uff12"])
    def test_prefix_length_rejects(self, bad):
        with pytest.raises(PrefixError):
            Prefix.parse(bad)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.data(),
    )
    def test_one_unicode_digit_spoils_the_text(self, value, data):
        text = format_ipv4(value)
        spots = [i for i, ch in enumerate(text) if ch.isdigit()]
        spot = data.draw(st.sampled_from(spots))
        digit = data.draw(st.sampled_from(UNICODE_DIGITS))
        spoiled = text[:spot] + digit + text[spot + 1:]
        with pytest.raises(AddressError):
            parse_address(spoiled)
        with pytest.raises(AddressError):
            parse_address("::ffff:" + spoiled)


class TestParseAddress:
    def test_dispatch(self):
        assert parse_address("192.0.2.1") == (IPV4, parse_ipv4("192.0.2.1"))
        assert parse_address("2001:db8::1") == (IPV6, parse_ipv6("2001:db8::1"))

    def test_format_dispatch(self):
        assert format_address(IPV4, 0) == "0.0.0.0"
        assert format_address(IPV6, 0) == "::"
        with pytest.raises(AddressError):
            format_address(5, 0)

    def test_max_value(self):
        assert max_value(IPV4) == 2**32 - 1
        assert max_value(IPV6) == 2**128 - 1
        with pytest.raises(AddressError):
            max_value(7)


class TestReserved:
    @pytest.mark.parametrize(
        "text",
        [
            "10.1.2.3",
            "127.0.0.1",
            "169.254.1.1",
            "172.16.0.1",
            "192.168.1.1",
            "0.1.2.3",
            "224.0.0.1",
            "240.0.0.1",
            "255.255.255.255",
            "100.64.0.1",
            "192.0.2.55",
            "198.18.1.1",
        ],
    )
    def test_reserved_v4(self, text):
        assert is_reserved(IPV4, parse_ipv4(text))

    @pytest.mark.parametrize("text", ["1.1.1.1", "8.8.8.8", "193.99.144.80", "99.2.3.4"])
    def test_global_v4(self, text):
        assert is_global(IPV4, parse_ipv4(text))

    @pytest.mark.parametrize(
        "text",
        ["::", "::1", "fe80::1", "fc00::1", "ff02::1", "2001:db8::1", "::ffff:1.2.3.4", "2002::1"],
    )
    def test_reserved_v6(self, text):
        assert is_reserved(IPV6, parse_ipv6(text))

    @pytest.mark.parametrize("text", ["2001:4860::8888", "2606:4700::1111", "2a00:1450::1"])
    def test_global_v6(self, text):
        assert is_global(IPV6, parse_ipv6(text))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_v4_reserved_superset_of_stdlib_private(self, value):
        # Everything the stdlib flags as private/multicast/loopback/etc.
        # must be reserved for us too (we additionally reserve a few
        # special-purpose blocks such as 6to4 relay anycast).
        std = ipaddress.IPv4Address(value)
        if (
            std.is_private
            or std.is_multicast
            or std.is_loopback
            or std.is_link_local
            or std.is_reserved
            or std.is_unspecified
        ):
            assert is_reserved(IPV4, value)
