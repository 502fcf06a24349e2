"""Per-session testbed topology.

Mirrors the paper's measurement setup: a phone reverse-tethered through a
USB link to a Linux desktop with >100 Mbps of Internet access, optional
``tc`` shaping on the desktop→phone direction, and ``tcpdump`` capture on
the tether.  Servers (API frontend, media server, chat, the S3 avatar
bucket) each sit behind their own desktop↔server path whose propagation
delay reflects geography.

The capture is on demand: a study session records no packet trace.  Its
download volume comes from the tether download link's own wire-byte
counter (:attr:`SessionTestbed.down_link`), and a caller that reads the
per-packet trace asks for it with :meth:`SessionTestbed.start_capture`
before the session runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.plan import FaultPlan
from repro.netsim.duplex import DuplexStream
from repro.netsim.events import EventLoop
from repro.netsim.link import TokenBucketShaper
from repro.netsim.topology import Network
from repro.netsim.trace import TraceCapture
from repro.service.geo import GeoPoint
from repro.util.rng import child_rng
from repro.util.units import MBPS

#: Where the measurement phones sat (Finland).
VIEWER_LOCATION = GeoPoint(60.2, 24.9)

#: Propagation model: per-degree great-circle-ish cost plus a floor for
#: last-mile and peering hops.
DELAY_FLOOR_S = 0.008
DELAY_PER_DEG_S = 0.0009

#: The desktop's Internet access, which the tether carries unshaped.
ACCESS_BANDWIDTH_BPS = 100.0 * MBPS
#: One-way delay of the USB reverse tether.
TETHER_DELAY_S = 0.001
#: Capacity of each desktop <-> server path.
BACKBONE_BANDWIDTH_BPS = 500.0 * MBPS


def path_delay_s(a: GeoPoint, b: GeoPoint) -> float:
    """One-way propagation delay between two locations."""
    return DELAY_FLOOR_S + a.distance_deg(b) * DELAY_PER_DEG_S


@dataclass
class TestbedConfig:
    """Knobs of one session's network environment."""

    # Not a test class despite the name; keep pytest from collecting it.
    __test__ = False

    #: Download shaping on the tether (None = unshaped).
    shaper: Optional[TokenBucketShaper] = None
    #: Optional fault scenario; link impairments are built from child
    #: streams of ``fault_seed`` over ``fault_horizon_s`` of session time.
    faults: Optional[FaultPlan] = None
    fault_seed: object = 0
    fault_horizon_s: float = 120.0


class SessionTestbed:
    """One phone + desktop + the servers a session talks to."""

    def __init__(self, loop: EventLoop, config: TestbedConfig) -> None:
        self.loop = loop
        self.config = config
        self.net = Network(loop)
        self.phone = self.net.host("phone")
        self.desktop = self.net.host("desktop")
        self._server_locations: Dict[str, GeoPoint] = {}
        # The tether: shaping applies desktop -> phone (download).
        tether = self.net.duplex(
            self.desktop,
            self.phone,
            rate_bps=ACCESS_BANDWIDTH_BPS,
            delay_s=TETHER_DELAY_S,
            down_shaper=config.shaper,
        )
        #: desktop -> phone; its ``bytes_carried`` is the session's
        #: download volume, the same total a capture's "down" side sees.
        self.down_link = tether.a_to_b
        self.up_link = tether.b_to_a
        # Access-link impairments: the tether is where mobile loss,
        # jitter, and flaps live (each direction draws its own stream).
        if config.faults is not None and config.faults.has_link_faults:
            self.down_link.impairment = config.faults.link_impairment(
                child_rng(config.fault_seed, "fault-link-down"),
                config.fault_horizon_s, name=self.down_link.name,
            )
            self.up_link.impairment = config.faults.link_impairment(
                child_rng(config.fault_seed, "fault-link-up"),
                config.fault_horizon_s, name=self.up_link.name,
            )

    def start_capture(self) -> TraceCapture:
        """tcpdump on the tether, both directions, without payloads.

        Taps only observe: the session runs the same events and reaches
        the same results with or without a capture.
        """
        capture = TraceCapture(capture_payload=False)
        capture.tap_link(self.down_link, "down")
        capture.tap_link(self.up_link, "up")
        return capture

    def add_server(self, name: str, location: GeoPoint) -> None:
        """Create a server host behind the desktop at the given location."""
        if name in self._server_locations:
            raise ValueError(f"server {name!r} already exists")
        server = self.net.host(name)
        self.net.duplex(
            server,
            self.desktop,
            rate_bps=BACKBONE_BANDWIDTH_BPS,
            delay_s=path_delay_s(location, VIEWER_LOCATION),
        )
        self._server_locations[name] = location

    def stream_to(self, server_name: str, name: str = "") -> DuplexStream:
        """A duplex stream phone <-> server through the desktop."""
        if server_name not in self._server_locations:
            raise KeyError(f"unknown server {server_name!r}")
        return DuplexStream(
            self.loop, self.net, "phone", "desktop", server_name,
            name=name or f"phone<->{server_name}",
        )

    def server_paths(self, server_name: str):
        """(server->phone, phone->server) paths for raw connections."""
        forward = self.net.path(server_name, "desktop", "phone")
        reverse = self.net.path("phone", "desktop", server_name)
        return forward, reverse
