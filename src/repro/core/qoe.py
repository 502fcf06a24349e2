"""QoE metric definitions (Section 5 of the paper).

* **stall ratio** — summed stall time divided by total stream duration
  (stall + playback time).
* **join time** (startup latency) — watch duration minus playback and
  stall time; the time between pressing Teleport and the first frame.
* **playback latency** — end-to-end latency from capture at the
  broadcaster to display at the viewer.
* **video delivery latency** — network-only part of playback latency,
  computed from NTP timestamps the broadcaster embeds in the video data
  minus the capture time of the packet carrying them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.player.buffer import StallEvent  # noqa: F401  (re-exported API)


def stall_ratio(total_stall_s: float, playback_s: float) -> float:
    """Summed stall time over total stream duration (stall + playback).

    Returns 0 for an empty session rather than dividing by zero: a session
    that never started playing has no stall time either.
    """
    if total_stall_s < 0 or playback_s < 0:
        raise ValueError("durations must be non-negative")
    duration = total_stall_s + playback_s
    if duration == 0:
        return 0.0
    return total_stall_s / duration


@dataclass
class SessionQoE:
    """Everything the study records about one viewing session.

    Mirrors the union of what the app's ``playbackMeta`` reports (RTMP:
    stall count + mean stall duration; HLS: stall count only) and what the
    post-processing pipeline extracts from traffic captures.
    """

    broadcast_id: str
    protocol: str  # "rtmp" or "hls"
    device: str
    bandwidth_limit_mbps: float
    watch_seconds: float

    join_time_s: float
    playback_s: float
    stalls: List[StallEvent] = field(default_factory=list)

    #: End-to-end latency samples (capture -> display), seconds.
    playback_latency_s: Optional[float] = None
    #: Per-timestamp delivery-latency samples (NTP method), seconds.
    delivery_latency_samples: List[float] = field(default_factory=list)

    #: Media facts recovered by the inspector (None when the session was
    #: run at token fidelity without reconstruction).
    video_bitrate_bps: Optional[float] = None
    avg_qp: Optional[float] = None
    avg_fps: Optional[float] = None
    avg_viewers: float = 0.0

    #: Resilience bookkeeping (empty/zero unless a fault plan was active).
    #: ``fault_events`` records injected faults and graceful degradations
    #: ("ingest-outage@12.40", "api-gave-up:accessVideo", "player-gave-up").
    fault_events: List[str] = field(default_factory=list)
    api_retries: int = 0
    transport_retries: int = 0
    disconnects: int = 0
    reconnects: int = 0

    #: Join-delay seconds per upstream cause; populated (like
    #: ``StallEvent.causes``) only when cause attribution is enabled, so
    #: the dataset stays bit-identical with attribution off.
    join_causes: Optional[Dict[str, float]] = None

    @property
    def stall_count(self) -> int:
        return len(self.stalls)

    @property
    def total_stall_s(self) -> float:
        return sum(s.duration for s in self.stalls)

    @property
    def stall_ratio(self) -> float:
        return stall_ratio(self.total_stall_s, self.playback_s)

    @property
    def delivery_latency_s(self) -> Optional[float]:
        """Mean of the per-broadcast delivery-latency samples (the paper
        averages all samples of a broadcast)."""
        if not self.delivery_latency_samples:
            return None
        return sum(self.delivery_latency_samples) / len(self.delivery_latency_samples)

    def consistent(self) -> bool:
        """Sanity invariant: join + playback + stalls ≈ watch duration."""
        total = self.join_time_s + self.playback_s + self.total_stall_s
        return abs(total - self.watch_seconds) < 1e-6
