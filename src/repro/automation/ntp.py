"""Clock models: NTP-synchronized, imperfectly.

The delivery-latency method subtracts an NTP timestamp embedded by the
*broadcaster's* phone from the packet-capture timestamp on the *viewer's*
tethering desktop.  Both clocks are NTP synced against the same pool, but
neither perfectly: the paper "sometimes observed small negative time
differences indicating that the synchronization was imperfect".  The
models here give each clock a per-session offset so those artifacts
reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class ClockModel:
    """Distribution of a device's clock offset from true time."""

    sigma_s: float
    max_abs_s: float

    def sample_offset(self, rng: random.Random) -> float:
        """One session's clock offset (true + offset = displayed)."""
        if self.sigma_s < 0 or self.max_abs_s < 0:
            raise ValueError("clock parameters must be non-negative")
        offset = rng.gauss(0.0, self.sigma_s)
        return min(max(offset, -self.max_abs_s), self.max_abs_s)


#: The tethering desktop runs ntpd against the same pool as the app;
#: wired, disciplined, small error.
CAPTURE_DESKTOP_CLOCK = ClockModel(sigma_s=0.010, max_abs_s=0.050)

#: Broadcaster phones sync over cellular/WiFi with sleep/wake drift;
#: larger error — occasionally exceeding the RTMP delivery latency
#: itself, which is what makes some measured latencies negative.
BROADCASTER_PHONE_CLOCK = ClockModel(sigma_s=0.060, max_abs_s=0.300)
