"""Ingest servers and the CDN.

Section 5's infrastructure findings, reproduced structurally:

* RTMP streams come from **87 distinct Amazon EC2 servers** spread over
  every continent except Africa; the server **nearest the broadcaster**
  is chosen when the broadcast is initialized (confirmed by Wang et al.).
* All HLS segments come from just **two CDN IPs** (one in Europe, one in
  San Francisco); the edge is chosen by the **viewer's** location.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from repro.service.geo import GeoPoint

#: EC2 regions hosting RTMP ingest (continent coverage minus Africa).
EC2_REGIONS: Tuple[Tuple[str, GeoPoint], ...] = (
    ("us-east-1", GeoPoint(38.9, -77.4)),
    ("us-west-1", GeoPoint(37.4, -121.9)),
    ("us-west-2", GeoPoint(45.9, -119.3)),
    ("sa-east-1", GeoPoint(-23.5, -46.6)),
    ("eu-west-1", GeoPoint(53.3, -6.3)),
    ("eu-central-1", GeoPoint(50.1, 8.7)),
    ("ap-southeast-1", GeoPoint(1.3, 103.8)),
    ("ap-southeast-2", GeoPoint(-33.9, 151.2)),
    ("ap-northeast-1", GeoPoint(35.7, 139.7)),
)

#: Number of distinct RTMP ingest servers the paper observed.
RTMP_SERVER_COUNT = 87


@dataclass(frozen=True)
class RtmpIngestServer:
    """One EC2-hosted RTMP ingest instance."""

    name: str
    region: str
    location: GeoPoint
    ip: str

    def reverse_dns(self) -> str:
        """The EC2-style reverse-lookup name the paper used to identify
        these servers."""
        return f"ec2-{self.ip.replace('.', '-')}.{self.region}.compute.amazonaws.com"


@dataclass(frozen=True)
class CdnEdge:
    """One Fastly-like CDN edge serving HLS."""

    name: str
    location: GeoPoint
    ip: str


#: The two HLS-serving IPs of the paper (Europe; San Francisco).
CDN_EDGES: Tuple[CdnEdge, ...] = (
    CdnEdge("fastly-eu", GeoPoint(50.1, 8.7), ip="151.101.12.1"),
    CdnEdge("fastly-sf", GeoPoint(37.8, -122.4), ip="151.101.1.57"),
)


class IngestPool:
    """The fleet of RTMP ingest servers with nearest-broadcaster routing."""

    def __init__(self, rng: random.Random, server_count: int = RTMP_SERVER_COUNT) -> None:
        if server_count < len(EC2_REGIONS):
            raise ValueError("need at least one server per region")
        self.servers: List[RtmpIngestServer] = []
        for index in range(server_count):
            region, region_loc = EC2_REGIONS[index % len(EC2_REGIONS)]
            location = GeoPoint(
                min(max(region_loc.lat + rng.gauss(0.0, 0.3), -89.9), 89.9),
                region_loc.lon + rng.gauss(0.0, 0.3),
            )
            ip = f"54.{rng.randrange(64, 240)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            self.servers.append(
                RtmpIngestServer(
                    name=f"vidman-{region}-{index:02d}",
                    region=region,
                    location=location,
                    ip=ip,
                )
            )

    def nearest_to(
        self,
        location: GeoPoint,
        exclude_regions: FrozenSet[str] = frozenset(),
    ) -> RtmpIngestServer:
        """The ingest server chosen at broadcast initialization: nearest
        to the *broadcaster*.  ``exclude_regions`` supports regional
        failover: during an ingest outage the re-resolved server comes
        from the nearest healthy region instead."""
        candidates = [
            s for s in self.servers if s.region not in exclude_regions
        ]
        if not candidates:
            raise ValueError("every ingest region is excluded")
        return min(candidates, key=lambda s: s.location.distance_deg(location))


def nearest_cdn_edge(
    viewer_location: GeoPoint, edges: Sequence[CdnEdge] = CDN_EDGES
) -> CdnEdge:
    """The CDN edge chosen at request time: nearest to the *viewer*."""
    return min(edges, key=lambda e: e.location.distance_deg(viewer_location))
