"""Table 1: the relevant Periscope API commands.

Regenerates the table by *exercising* each command against the simulated
API and describing what went over the wire — not by hard-coding prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.charts import render_table
from repro.protocols.http import HttpRequest, HttpStatus
from repro.service.api import API_PATH, ApiServer, RateLimiter
from repro.service.ingest import IngestPool
from repro.service.world import ServiceWorld, WorldParameters
from repro.util.rng import child_rng


@dataclass
class Table1Result:
    rows: List[Tuple[str, str, str]]

    def render(self) -> str:
        return render_table(
            ["API request", "request contents", "response contents"], self.rows
        )


def run(seed: int = 2016) -> Table1Result:
    """Exercise each Table 1 command and describe it."""
    world = ServiceWorld(WorldParameters(mean_concurrent=300), seed=seed)
    api = ApiServer(
        world,
        IngestPool(child_rng(seed, "t1-ingest")),
        clock=lambda: 0.0,
        rng=child_rng(seed, "t1"),
        rate_limiter=RateLimiter(rate_per_s=1000, burst=1000),
    )

    def post(command, **payload):
        body = {"request": command}
        body.update(payload)
        return api.handle(HttpRequest("POST", API_PATH, json_body=body), "table1")

    rows: List[Tuple[str, str, str]] = []

    map_resp = post(
        "mapGeoBroadcastFeed",
        p1_lat=-90.0, p1_lng=-180.0, p2_lat=90.0, p2_lng=180.0,
        include_replay=False,
    )
    assert map_resp.status == HttpStatus.OK
    found = map_resp.json_body["broadcasts"]
    rows.append((
        "mapGeoBroadcastFeed",
        "coordinates of a rectangle-shaped geographical area",
        f"list of broadcasts located inside the area ({len(found)} returned)",
    ))

    ids = [b["id"] for b in found[:5]]
    get_resp = post("getBroadcasts", broadcast_ids=ids)
    assert get_resp.status == HttpStatus.OK
    descriptions = get_resp.json_body["broadcasts"]
    assert all(len(d["id"]) == 13 for d in descriptions)
    rows.append((
        "getBroadcasts",
        f"list of 13-character broadcast IDs ({len(ids)} sent)",
        "descriptions of broadcast IDs (incl. nb of viewers)",
    ))

    meta_resp = post("playbackMeta", stats={"n_stalls": 1, "avg_stall_s": 3.4})
    assert meta_resp.status == HttpStatus.OK
    assert meta_resp.json_body == {}
    rows.append((
        "playbackMeta",
        "playback statistics",
        "nothing",
    ))

    return Table1Result(rows=rows)
