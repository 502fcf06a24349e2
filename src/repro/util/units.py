"""Unit constants and human-readable formatting helpers.

Conventions used throughout the library:

* time is in **seconds** (float),
* data sizes are in **bytes** (int),
* rates are in **bits per second** (float).
"""

from __future__ import annotations

#: One bit per second expressed in bits per second (identity; for clarity).
BPS = 1.0
#: Kilobits per second in bits per second.
KBPS = 1_000.0
#: Megabits per second in bits per second.
MBPS = 1_000_000.0
#: Gigabits per second in bits per second.
GBPS = 1_000_000_000.0

#: One byte in bytes (identity; for clarity).
BYTE = 1

#: Milliseconds expressed in seconds.
MS = 1e-3
#: Microseconds expressed in seconds.
US = 1e-6
#: One minute in seconds.
MINUTE = 60.0
#: One hour in seconds.
HOUR = 3600.0
#: One day in seconds.
DAY = 86400.0


def bits_to_bytes(bits: float) -> float:
    """Convert a bit count to bytes."""
    return bits / 8.0


def bytes_to_bits(nbytes: float) -> float:
    """Convert a byte count to bits."""
    return nbytes * 8.0


def format_bitrate(bps: float) -> str:
    """Render a rate in the most natural unit, e.g. ``format_bitrate(2e6)
    == '2.00 Mbps'``."""
    if bps >= GBPS:
        return f"{bps / GBPS:.2f} Gbps"
    if bps >= MBPS:
        return f"{bps / MBPS:.2f} Mbps"
    if bps >= KBPS:
        return f"{bps / KBPS:.1f} kbps"
    return f"{bps:.0f} bps"


def format_duration(seconds: float) -> str:
    """Render a duration, switching units at natural boundaries."""
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1.0:
        return f"{seconds * 1000:.0f} ms"
    if seconds < MINUTE:
        return f"{seconds:.1f} s"
    if seconds < HOUR:
        return f"{seconds / MINUTE:.1f} min"
    if seconds < DAY:
        return f"{seconds / HOUR:.1f} h"
    return f"{seconds / DAY:.1f} d"
