"""Viewer cohorts: aggregate delivery-path dynamics, no event loops.

A *cohort* is every viewer of one broadcaster who shares a delivery
path: the same protocol (RTMP push below the HLS viewer threshold, CDN
HLS above it) and the same access-bandwidth class.  Instead of one
event-loop session per viewer, a cohort is advanced with closed-form
fluid dynamics over the broadcast's audience curve:

* **join/leave mass** — the audience curve
  (:meth:`~repro.service.broadcast.Broadcast.viewers_at`) is integrated
  stepwise; positive increments are joins, negative ones leaves, and
  member-seconds divided by the watch window gives the session count.
  The curve is sampled once per broadcaster (:func:`audience_curve`)
  and every cohort is folded from that one sample, scaled by its share
  of the audience — bit-identical to sampling the curve per cohort,
  which ``tests/test_world_population.py::TestAudienceCurveOracle``
  keeps as the reference;
* **stall mass** — fluid starvation: at access rate ``C`` below the
  stream rate ``R``, playback advances at ``C/R`` of real time, so the
  stalled fraction of every watched second is ``1 - C/R``;
* **buffer occupancy** — surplus bandwidth fills the player buffer at
  ``C/R - 1`` media-seconds per second up to the protocol's cap.

These aggregates are deliberately *approximate*; the stratified sampler
(:mod:`repro.world.sampler`) promotes cohort members to full-fidelity
sessions so the approximated distributions stay anchored to the exact
simulator.  Cohort formation and advancement consume **no RNG** — both
are pure functions of the broadcaster's traits — which keeps every draw
in the world keyed by broadcaster index alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.service.broadcast import AUDIENCE_RAMP_FRACTION, Broadcast
from repro.service.selection import DeliveryProtocol
from repro.util.units import MBPS
from repro.world.popularity import apportion


@dataclass(frozen=True)
class BandwidthClass:
    """One access-bandwidth stratum of the viewer population."""

    name: str
    downlink_mbps: float
    #: Share of the viewer population in this class.
    weight: float


#: Access-bandwidth strata.  The rates intentionally coincide with the
#: study's tc sweep points (0.5/2/8/100 Mbps), so anchored sessions land
#: on bandwidth limits the per-packet simulator is already calibrated
#: and benchmarked at.
BANDWIDTH_CLASSES: Tuple[BandwidthClass, ...] = (
    BandwidthClass("wifi", 100.0, 0.46),
    BandwidthClass("lte", 8.0, 0.30),
    BandwidthClass("umts", 2.0, 0.16),
    BandwidthClass("edge", 0.5, 0.08),
)

#: Container/retransmission overhead on top of the elementary streams.
STREAM_OVERHEAD_FACTOR = 1.15

#: Connection setup cost before any media flows (API + handshake RTTs).
SETUP_DELAY_S = {DeliveryProtocol.RTMP: 0.45, DeliveryProtocol.HLS: 0.35}

#: Media-seconds the player fetches before playback starts (RTMP starts
#: nearly live; HLS must fetch a playlist plus ~3 segments).
STARTUP_MEDIA_S = {DeliveryProtocol.RTMP: 1.0, DeliveryProtocol.HLS: 9.0}

#: Player buffer cap in media-seconds (RTMP keeps a shallow live edge;
#: HLS buffers the fetched segment window).
BUFFER_CAP_S = {DeliveryProtocol.RTMP: 2.0, DeliveryProtocol.HLS: 16.0}


@dataclass(frozen=True)
class Cohort:
    """Viewers of one broadcaster sharing protocol + bandwidth class."""

    broadcaster_index: int
    #: The broadcaster's full apportioned audience (mean concurrent).
    audience: int
    #: This cohort's slice of that audience (mean concurrent members).
    members: int
    protocol: DeliveryProtocol
    bandwidth: BandwidthClass
    #: Effective stream rate on the wire (video + audio + overhead).
    stream_rate_bps: float
    duration_s: float


@dataclass
class CohortAggregate:
    """Closed-form per-cohort outcomes, all in member-mass units."""

    member_seconds: float = 0.0
    sessions: float = 0.0
    joins: float = 0.0
    leaves: float = 0.0
    peak_members: float = 0.0
    join_seconds: float = 0.0
    stall_seconds: float = 0.0
    #: Time- and member-weighted mean buffer level (media-seconds).
    mean_buffer_s: float = 0.0

    def merge(self, other: "CohortAggregate") -> None:
        """Fold another aggregate in (member-weighted for the buffer)."""
        total = self.member_seconds + other.member_seconds
        if total > 0.0:
            self.mean_buffer_s = (
                self.mean_buffer_s * self.member_seconds
                + other.mean_buffer_s * other.member_seconds
            ) / total
        self.member_seconds = total
        self.sessions += other.sessions
        self.joins += other.joins
        self.leaves += other.leaves
        self.peak_members = max(self.peak_members, other.peak_members)
        self.join_seconds += other.join_seconds
        self.stall_seconds += other.stall_seconds

    def stall_ratio(self) -> float:
        """Stalled share of watched member time (the Fig. 3 statistic,
        cohort-approximated)."""
        if self.member_seconds <= 0.0:
            return 0.0
        return self.stall_seconds / self.member_seconds


def effective_stream_rate_bps(broadcast: Broadcast) -> float:
    """What one viewer must sustain to watch in real time."""
    return (
        broadcast.target_bitrate_bps + broadcast.audio_bitrate_bps
    ) * STREAM_OVERHEAD_FACTOR


def peak_viewers(broadcast: Broadcast) -> float:
    """The audience curve's maximum (reached at the end of the ramp)."""
    ramp_end_s = broadcast.start_time + AUDIENCE_RAMP_FRACTION * broadcast.duration_s
    return broadcast.viewers_at(ramp_end_s)


def select_cohort_protocol(
    broadcast: Broadcast, hls_viewer_threshold: float
) -> DeliveryProtocol:
    """Delivery path for the whole cohort population of one broadcaster.

    The service's per-session policy
    (:func:`repro.service.selection.select_protocol`) keys on the
    instantaneous audience; at cohort granularity the representative
    instant is the curve's peak — the service offloads a broadcast to
    the CDN when it catches fire, which is exactly when most of its
    member mass watches.
    """
    if peak_viewers(broadcast) >= hls_viewer_threshold:
        return DeliveryProtocol.HLS
    return DeliveryProtocol.RTMP


def build_cohorts(
    broadcast: Broadcast,
    index: int,
    audience: int,
    hls_viewer_threshold: float,
) -> List[Cohort]:
    """Split one broadcaster's audience into delivery-path cohorts.

    Pure function of its arguments (largest-remainder apportionment over
    the fixed bandwidth-class weights; no RNG), so the cohort set is the
    same no matter which shard materializes it.
    """
    if audience <= 0:
        return []
    protocol = select_cohort_protocol(broadcast, hls_viewer_threshold)
    stream_rate_bps = effective_stream_rate_bps(broadcast)
    class_members = apportion(
        audience, [cls.weight for cls in BANDWIDTH_CLASSES]
    )
    return [
        Cohort(
            broadcaster_index=index,
            audience=audience,
            members=members,
            protocol=protocol,
            bandwidth=cls,
            stream_rate_bps=stream_rate_bps,
            duration_s=broadcast.duration_s,
        )
        for cls, members in zip(BANDWIDTH_CLASSES, class_members)
        if members > 0
    ]


#: Integration steps over the broadcast life for the audience curve.
AUDIENCE_CURVE_STEPS = 32


def audience_curve(broadcast: Broadcast) -> List[float]:
    """The broadcast's concurrent viewers at the midpoints of
    :data:`AUDIENCE_CURVE_STEPS` equal steps over its life.

    Midpoint rule keeps the integral close to ``mean * duration`` even at
    coarse step counts.  One sample serves every cohort of the
    broadcaster (see :func:`cohort_aggregate`).
    """
    dt_s = broadcast.duration_s / AUDIENCE_CURVE_STEPS
    return [
        broadcast.viewers_at(broadcast.start_time + (step + 0.5) * dt_s)
        for step in range(AUDIENCE_CURVE_STEPS)
    ]


def cohort_aggregate(
    cohort: Cohort, curve: Sequence[float], watch_seconds: float
) -> CohortAggregate:
    """Advance one cohort over the broadcast's life in closed form.

    ``curve`` is the broadcaster's :func:`audience_curve`; the cohort
    holds ``members / audience`` of every sample.
    """
    if watch_seconds <= 0.0:
        raise ValueError("watch_seconds must be positive")
    share = cohort.members / cohort.audience if cohort.audience else 0.0
    dt_s = cohort.duration_s / len(curve)
    member_seconds = 0.0
    joins = 0.0
    leaves = 0.0
    peak_members = 0.0
    previous_members = 0.0
    for viewers in curve:
        members_now = share * viewers
        member_seconds += members_now * dt_s
        delta = members_now - previous_members
        if delta >= 0.0:
            joins += delta
        else:
            leaves -= delta
        if members_now > peak_members:
            peak_members = members_now
        previous_members = members_now
    leaves += previous_members  # everyone leaves when the broadcast ends

    sessions = member_seconds / watch_seconds
    capacity_bps = cohort.bandwidth.downlink_mbps * MBPS
    rate_ratio = capacity_bps / cohort.stream_rate_bps

    # Join delay: connection setup plus the startup media fetched at the
    # access rate (encoded at the stream rate).
    join_delay_s = (
        SETUP_DELAY_S[cohort.protocol]
        + STARTUP_MEDIA_S[cohort.protocol] / rate_ratio
    )
    join_seconds = sessions * join_delay_s

    # Fluid starvation: below the stream rate, playback advances at
    # ``rate_ratio`` of real time, so the rest of the watch stalls.
    stall_fraction = max(0.0, 1.0 - rate_ratio)
    stall_seconds = member_seconds * stall_fraction

    # Buffer occupancy: surplus bandwidth fills the buffer at
    # ``rate_ratio - 1`` media-seconds per second up to the cap.
    buffer_cap_s = BUFFER_CAP_S[cohort.protocol]
    if rate_ratio <= 1.0:
        mean_buffer_s = 0.0
    else:
        fill_rate = rate_ratio - 1.0
        time_to_fill_s = buffer_cap_s / fill_rate
        if time_to_fill_s >= watch_seconds:
            # Still filling when the member leaves: average of a ramp.
            mean_buffer_s = fill_rate * watch_seconds / 2.0
        else:
            ramp_share = time_to_fill_s / watch_seconds
            mean_buffer_s = buffer_cap_s * (1.0 - ramp_share / 2.0)

    return CohortAggregate(
        member_seconds=member_seconds,
        sessions=sessions,
        joins=joins,
        leaves=leaves,
        peak_members=peak_members,
        join_seconds=join_seconds,
        stall_seconds=stall_seconds,
        mean_buffer_s=mean_buffer_s,
    )
