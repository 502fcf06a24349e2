"""The simulated Periscope service.

Everything the measurement study observes from outside is produced here:
a world of geo-distributed broadcasts with heavy-tailed popularity and
durations, the private JSON API (Table 1) with its rate limiting, the
protocol-selection policy (RTMP below ~100 viewers, HLS above), the EC2
ingest pool and Fastly-like CDN, and the chat service whose avatar
downloads dominate the traffic when the chat UI is on.
"""

from repro.service.geo import GeoPoint, GeoRect, POPULATION_CENTERS, PopulationCenter
from repro.service.broadcast import Broadcast
from repro.service.world import ServiceWorld, WorldParameters
from repro.service.api import ApiServer, RateLimiter, ApiError
from repro.service.ingest import CdnEdge, IngestPool, RtmpIngestServer
from repro.service.selection import DeliveryProtocol, select_protocol
from repro.service.chat import ChatFeed, ChatMessage
from repro.service.delivery import (
    HlsOrigin,
    LiveSourceDriver,
    RtmpDelivery,
    UplinkModel,
)

__all__ = [
    "HlsOrigin",
    "LiveSourceDriver",
    "RtmpDelivery",
    "UplinkModel",
    "GeoPoint",
    "GeoRect",
    "POPULATION_CENTERS",
    "PopulationCenter",
    "Broadcast",
    "ServiceWorld",
    "WorldParameters",
    "ApiServer",
    "RateLimiter",
    "ApiError",
    "CdnEdge",
    "IngestPool",
    "RtmpIngestServer",
    "DeliveryProtocol",
    "select_protocol",
    "ChatFeed",
    "ChatMessage",
]
