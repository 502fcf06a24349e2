"""Section 5's protocol/infrastructure findings.

* the HLS/RTMP boundary sits around 100 viewers — estimated here the way
  the paper did, by comparing viewer counts across a session population;
* RTMP comes from 87 EC2 servers spread across continents (none in
  Africa), chosen nearest the broadcaster;
* HLS comes from two CDN IPs chosen nearest the viewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.charts import render_table
from repro.core.testbed import VIEWER_LOCATION
from repro.experiments.common import Workbench
from repro.service.ingest import CDN_EDGES, nearest_cdn_edge


@dataclass
class ProtocolFindingsResult:
    max_rtmp_viewers: float
    min_hls_viewers: float
    boundary_estimate: float
    rtmp_server_count: int
    rtmp_regions: List[str]
    hls_edge_count: int
    hls_edge_for_viewer: str

    def render(self) -> str:
        rows = [
            ["max viewers on an RTMP session", f"{self.max_rtmp_viewers:.0f}"],
            ["min viewers on an HLS session", f"{self.min_hls_viewers:.0f}"],
            ["estimated HLS boundary (viewers)", f"{self.boundary_estimate:.0f}"],
            ["distinct RTMP ingest servers", str(self.rtmp_server_count)],
            ["ingest regions", ", ".join(sorted(set(self.rtmp_regions)))],
            ["distinct HLS edges", str(self.hls_edge_count)],
            ["edge chosen for the Finland viewer", self.hls_edge_for_viewer],
        ]
        return render_table(["finding", "value"], rows)


def run(workbench: Workbench) -> ProtocolFindingsResult:
    dataset = workbench.unlimited()
    rtmp_viewers = [s.avg_viewers for s in dataset.by_protocol("rtmp")]
    hls_viewers = [s.avg_viewers for s in dataset.by_protocol("hls")]
    if not rtmp_viewers or not hls_viewers:
        raise RuntimeError("dataset too small: missing a protocol population")
    max_rtmp = max(rtmp_viewers)
    min_hls = min(hls_viewers)
    boundary = (max_rtmp + min_hls) / 2.0

    pool = workbench.study.ingest
    return ProtocolFindingsResult(
        max_rtmp_viewers=max_rtmp,
        min_hls_viewers=min_hls,
        boundary_estimate=boundary,
        rtmp_server_count=len(pool.servers),
        rtmp_regions=[s.region for s in pool.servers],
        hls_edge_count=len(CDN_EDGES),
        hls_edge_for_viewer=nearest_cdn_edge(VIEWER_LOCATION).name,
    )
