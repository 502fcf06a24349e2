"""Traffic shaping: the ``tc`` setup on the tethering desktop.

The paper imposed artificial bandwidth limits with ``tc`` on the Linux
host providing reverse tethering.  We reproduce it as a token-bucket
filter on the desktop→phone direction (the download path the streams
traverse)."""

from __future__ import annotations

from typing import Optional

from repro.netsim.link import TokenBucketShaper
from repro.util.units import MBPS

#: tc tbf default-ish burst: enough for a few packets, small relative to
#: a second of traffic at any of the studied rates.
BURST_BYTES = 16 * 1024


def shaper_for_limit(limit_mbps: float) -> Optional[TokenBucketShaper]:
    """A shaper for the given sweep point; ``>= 100`` means unlimited
    (the paper labels the unshaped case "100")."""
    if limit_mbps <= 0:
        raise ValueError("limit must be positive")
    if limit_mbps >= 100.0:
        return None
    return TokenBucketShaper(rate_bps=limit_mbps * MBPS, bucket_bytes=BURST_BYTES)
