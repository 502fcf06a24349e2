"""Experiment configuration.

One :class:`StudyConfig` carries every knob of the reproduction: the
paper's session counts, watch duration, bandwidth-limit sweep, and the
service-scale parameters.  All experiments accept a config plus a seed so
results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.util.units import MBPS


#: Bandwidth limits (Mbps) used for the tc sweep in Figures 3(b) and 4.
#: ``None``-like "unlimited" is encoded as 100 Mbps, matching the paper's
#: x-axis label "100" for the unlimited case.
DEFAULT_BANDWIDTH_LIMITS_MBPS: Tuple[float, ...] = (
    0.5,
    1.0,
    2.0,
    3.0,
    4.0,
    5.0,
    6.0,
    7.0,
    8.0,
    9.0,
    10.0,
    100.0,
)


@dataclass
class StudyConfig:
    """Tunable parameters of the reproduction study.

    Defaults reproduce the paper's dataset sizes where given, scaled down
    by :attr:`scale` so the default test/bench runs stay laptop-sized.
    With ``scale=1.0`` the populations match the paper (4615 QoE
    sessions, ≈220 K crawled broadcasts).
    """

    #: Master seed; every subsystem derives independent child streams.
    seed: int = 2016
    #: Linear scale factor on population sizes (1.0 = paper scale).
    scale: float = 0.05
    #: Worker processes for session execution in
    #: :meth:`~repro.core.study.AutomatedViewingStudy.run_batch`.  1 runs
    #: everything inline; higher values fan sessions out over a process
    #: pool (results are bit-identical either way — sampling stays
    #: serial and each session is hermetic given its setup).
    workers: int = 1

    # ---------------------------------------------------------------- QoE study
    #: Seconds each broadcast is watched after pressing Teleport (paper: 60 s).
    watch_seconds: float = 60.0
    #: Unlimited-bandwidth RTMP sessions (paper: 1796).
    rtmp_sessions_unlimited: int = 1796
    #: Unlimited-bandwidth HLS sessions (paper: 1586).
    hls_sessions_unlimited: int = 1586
    #: Sessions recorded per bandwidth limit (paper: 18-91; we use the middle).
    sessions_per_limit: int = 54
    #: The tc sweep (Mbps); 100 encodes "unlimited".
    bandwidth_limits_mbps: Sequence[float] = DEFAULT_BANDWIDTH_LIMITS_MBPS

    # ------------------------------------------------------------- service scale
    #: Concurrent public live broadcasts with disclosed location (paper
    #: discovers 1 K-4 K in a deep crawl).
    concurrent_broadcasts: int = 2500
    #: Distinct broadcasts tracked across the targeted crawls (paper: ≈220 K).
    tracked_broadcasts: int = 220_000
    #: Viewer threshold above which the service serves a broadcast over HLS
    #: via the CDN (paper estimates ≈100).
    hls_viewer_threshold: int = 100

    # ------------------------------------------------------------------ faults
    #: Optional fault scenario (see :mod:`repro.faults`).  ``None`` means
    #: the pristine network of the original study; a plan's randomness
    #: comes from dedicated child streams, so setups and unfaulted
    #: subsystems sample identically either way.
    faults: Optional[FaultPlan] = None

    # --------------------------------------------------------------- telemetry
    #: Opt-in observability (see :mod:`repro.obs`).  Both default off;
    #: enabling them never changes simulation results — metrics, spans,
    #: and the event-loop profile observe without consuming RNG or
    #: reordering events (guarded by a determinism regression test).
    metrics_enabled: bool = False
    tracing_enabled: bool = False
    #: Stall forensics: per-cause delay attribution and online invariant
    #: monitors (see :mod:`repro.obs.causes` / :mod:`repro.obs.health`).
    #: Same contract as the other telemetry flags — opt-in, RNG-free,
    #: bit-identical QoE on or off.
    causes_enabled: bool = False
    health_enabled: bool = False

    # ------------------------------------------------------------------ network
    #: Ignored: no run reads it.  The exact per-packet path is a test
    #: oracle whose only switch is
    #: :func:`repro.netsim.fastpath.exact_network`.  The field stays
    #: because campaign cell keys hash every field of this config, so
    #: dropping it changes every stored key; it goes with the next
    #: re-pin of the benchmark's golden digests.
    exact_network: bool = False
    #: Unshaped access bandwidth of the tethered phone (paper: >100 Mbps).
    access_bandwidth_bps: float = 100.0 * MBPS
    #: One-way propagation delay phone <-> tethering desktop.
    tether_delay_s: float = 0.001
    #: One-way propagation delay desktop <-> nearest servers.
    internet_delay_s: float = 0.020

    def scaled(self, count: int, minimum: int = 1) -> int:
        """Apply the population scale factor to a paper-sized count."""
        return max(minimum, int(round(count * self.scale)))

    def with_scale(self, scale: float) -> "StudyConfig":
        """A copy of this config at a different population scale."""
        import dataclasses

        return dataclasses.replace(self, scale=scale)

    def limit_bps(self, limit_mbps: float) -> float:
        """Convert a sweep point to bits/second (100 means unlimited and is
        returned as the unshaped access bandwidth)."""
        if limit_mbps >= 100.0:
            return self.access_bandwidth_bps
        return limit_mbps * MBPS
