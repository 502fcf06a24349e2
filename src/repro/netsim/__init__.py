"""Discrete-event network simulator.

Models the measurement testbed of the paper: hosts connected by
bandwidth/latency-constrained links (the reverse-tethered USB/desktop
uplink, shaped with ``tc`` in some experiments), over which window-limited
reliable byte streams ("TCP-ish" connections) carry the streaming
protocols.  Packet-level capture hooks provide the ``tcpdump`` equivalent
used by the reconstruction pipeline in :mod:`repro.capture`.
"""

from repro.netsim.events import EventLoop, Event
from repro.netsim.packet import Packet, PacketRecord
from repro.netsim.link import Link, TokenBucketShaper
from repro.netsim.host import Host
from repro.netsim.connection import Connection, Message, Path
from repro.netsim.trace import TraceCapture

__all__ = [
    "EventLoop",
    "Event",
    "Packet",
    "PacketRecord",
    "Link",
    "TokenBucketShaper",
    "Host",
    "Connection",
    "Message",
    "Path",
    "TraceCapture",
]
