"""Unit tests for repro.util.units."""

from repro.util import units


def test_bit_byte_roundtrip():
    assert units.bits_to_bytes(units.bytes_to_bits(123)) == 123


def test_rate_constants_ratios():
    assert units.MBPS == 1000 * units.KBPS
    assert units.GBPS == 1000 * units.MBPS


def test_format_bitrate_units():
    assert units.format_bitrate(500) == "500 bps"
    assert units.format_bitrate(2_500) == "2.5 kbps"
    assert units.format_bitrate(2_000_000) == "2.00 Mbps"
    assert units.format_bitrate(3_200_000_000) == "3.20 Gbps"


def test_format_duration_boundaries():
    assert units.format_duration(0.02) == "20 ms"
    assert units.format_duration(5.5) == "5.5 s"
    assert units.format_duration(240) == "4.0 min"
    assert units.format_duration(7200) == "2.0 h"
    assert units.format_duration(2 * units.DAY) == "2.0 d"


def test_format_duration_negative():
    assert units.format_duration(-3.0) == "-3.0 s"
