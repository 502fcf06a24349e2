"""Causal attribution of QoE-affecting delay (``repro.obs.causes``).

Every subsystem that can delay media on its way to the viewer tags the
delay at the point where it happens — a packet waiting behind earlier
transmissions, a token-bucket shaping pause, loss-recovery
retransmissions, an ingest outage, HLS packaging latency, a 429
backoff — by calling :meth:`CauseCollector.add` with a taxonomy tag and
the seconds of delay introduced.  The player's playout buffer closes the
loop: it snapshots the running per-session ledger when a stall (or the
join wait) begins and attributes the *delta* accrued over the window to
that stall, scaled so the per-cause seconds never sum past the window's
duration.

Like every ``repro.obs`` instrument the collector is passive: it never
consumes RNG, never schedules events, and is only written to behind the
``telemetry.enabled and telemetry.causes_on`` guard, so enabling
attribution cannot change simulation results.

Determinism across ``--workers N``: the ledger is keyed by a
per-session context string derived from the session setup, so merging
worker snapshots is a dict union per context — float additions happen
in the same per-session order as a serial run, and reports render
byte-identically for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CAUSE_HELP",
    "CAUSES",
    "AttributionRecord",
    "CauseCollector",
    "clamp_attribution",
]


# The closed cause taxonomy.  Lint rule O204 holds emission sites to
# these literal tags; add the tag here before emitting it anywhere.
CAUSE_HELP: Dict[str, str] = {
    "link.queue": "Packet waited behind earlier transmissions on a link",
    "link.throttle": "Token-bucket bandwidth shaping delayed a packet",
    "link.loss_recovery":
        "Retransmissions after injected loss (including HOL blocking "
        "behind the recovery backlog)",
    "link.flap": "Link-flap downtime deferred a transmission",
    "link.jitter": "Injected latency jitter stretched a transmission",
    "uplink.outage": "Broadcaster uplink outage deferred frame arrival",
    "service.packaging": "HLS segmenter packaging/publish latency",
    "service.outage": "Ingest outage interrupted delivery until restore",
    "hls.playlist_wait": "Player idled until the next playlist re-poll",
    "api.retry_backoff": "API call retried after an injected failure",
    "transport.retry_backoff": "Transport reconnect/retry backoff wait",
    "http.rate_limit": "Request burned a round trip on a 429 response",
    "media.rate_starvation":
        "Encoder rate control pinned at QP max (target bitrate unmet)",
}

CAUSES: Tuple[str, ...] = tuple(sorted(CAUSE_HELP))

# Window kinds a record can attribute.
KIND_STALL = "stall"
KIND_JOIN = "join"


def clamp_attribution(
    raw: Dict[str, float], duration: float
) -> Dict[str, float]:
    """Scale raw per-cause seconds so they sum to at most ``duration``.

    Raw window deltas can legitimately exceed the window length (several
    causes act concurrently: a packet can queue *and* ride out a flap),
    so attribution normalizes proportionally.  The clamp is exact — any
    float dust left after scaling is shaved off the largest term — so
    ``sum(result.values()) <= duration`` holds strictly.
    """
    positive = {cause: s for cause, s in raw.items() if s > 0.0}
    if not positive or duration <= 0.0:
        return {}
    ordered = sorted(positive)
    total = 0.0
    for cause in ordered:
        total += positive[cause]
    if total <= duration:
        return {cause: positive[cause] for cause in ordered}
    scale = duration / total
    scaled = {cause: positive[cause] * scale for cause in ordered}
    # Shave float dust off the largest term until the sorted-order sum
    # actually lands at or under the duration.  One pass is not always
    # enough: the subtraction itself rounds, so re-summing can still
    # exceed the budget by an ulp — iterate (with a nextafter nudge when
    # the excess is below the largest term's ulp) until it holds.
    while True:
        # Sum from zero in sorted-key order — exactly how every consumer
        # (records, reports, tests) totals the dict — so "<= duration"
        # here means "<= duration" everywhere.
        total = 0.0
        for cause in ordered:
            total += scaled[cause]
        if total <= duration:
            break
        largest = max(ordered, key=lambda cause: (scaled[cause], cause))
        reduced = scaled[largest] - (total - duration)
        if reduced >= scaled[largest]:
            reduced = math.nextafter(scaled[largest], 0.0)
        scaled[largest] = max(0.0, reduced)
    return scaled


@dataclass
class AttributionRecord:
    """One attributed window: a stall or a join wait.

    ``causes`` holds the clamped seconds per cause (summing to at most
    ``duration``); ``raw`` keeps the unscaled ledger deltas for
    forensics.
    """

    kind: str
    context: str
    start: float
    duration: float
    causes: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_s(self) -> float:
        total = 0.0
        for cause in sorted(self.causes):
            total += self.causes[cause]
        return total

    @property
    def unattributed_s(self) -> float:
        return max(0.0, self.duration - self.attributed_s)

    def dominant(self) -> Optional[str]:
        """The cause with the most attributed seconds (ties break on
        the lexically greater tag, deterministically)."""
        if not self.causes:
            return None
        return max(sorted(self.causes), key=lambda c: (self.causes[c], c))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "context": self.context,
            "start": self.start,
            "duration": self.duration,
            "causes": dict(self.causes),
            "raw": dict(self.raw),
        }


class CauseCollector:
    """The per-run attribution ledger plus its attributed windows.

    ``add`` accumulates seconds per (context, cause); sources call it as
    delays happen.  Consumers snapshot :meth:`totals` at a window's
    start and call :meth:`record_window` at its end to turn the delta
    into an :class:`AttributionRecord`.
    """

    #: Safety valve mirroring the tracer's span cap: past this many
    #: records new windows are counted in ``dropped_records`` instead.
    MAX_RECORDS = 1_000_000

    def __init__(self) -> None:
        self._context = ""
        # context -> cause -> cumulative seconds
        self._ledger: Dict[str, Dict[str, float]] = {}
        self.records: List[AttributionRecord] = []
        self.dropped_records = 0

    # ------------------------------------------------------------ emission

    @property
    def has_data(self) -> bool:
        return bool(self.records) or bool(self._ledger)

    def set_context(self, context: str) -> None:
        """Scope subsequent :meth:`add` calls to one session's bucket."""
        self._context = context

    @property
    def context(self) -> str:
        return self._context

    def add(self, cause: str, seconds: float) -> None:
        """Accrue ``seconds`` of delay against ``cause`` in the current
        context.  Non-positive amounts are ignored."""
        if seconds <= 0.0:
            return
        bucket = self._ledger.setdefault(self._context, {})
        bucket[cause] = bucket.get(cause, 0.0) + seconds

    def totals(self) -> Dict[str, float]:
        """A copy of the current context's cumulative per-cause seconds
        (the window-start snapshot consumers diff against later)."""
        return dict(self._ledger.get(self._context, {}))

    # ---------------------------------------------------------- windowing

    def record_window(
        self,
        kind: str,
        start: float,
        duration: float,
        base: Dict[str, float],
    ) -> AttributionRecord:
        """Close an attribution window: diff the current context totals
        against the ``base`` snapshot, clamp, and keep the record."""
        now_totals = self._ledger.get(self._context, {})
        raw: Dict[str, float] = {}
        for cause in sorted(now_totals):
            delta = now_totals[cause] - base.get(cause, 0.0)
            if delta > 0.0:
                raw[cause] = delta
        record = AttributionRecord(
            kind=kind,
            context=self._context,
            start=start,
            duration=duration,
            causes=clamp_attribution(raw, duration),
            raw=raw,
        )
        if len(self.records) < self.MAX_RECORDS:
            self.records.append(record)
        else:
            self.dropped_records += 1
        return record

    # -------------------------------------------------------- aggregation

    def ledger_totals(self) -> Dict[str, float]:
        """All-context raw delay seconds per cause (summed over contexts
        in sorted order for run-to-run stability)."""
        combined: Dict[str, float] = {}
        for context in sorted(self._ledger):
            bucket = self._ledger[context]
            for cause in sorted(bucket):
                combined[cause] = combined.get(cause, 0.0) + bucket[cause]
        return combined

    def totals_by_cause(self, kind: str) -> Dict[str, float]:
        """Clamped attributed seconds per cause over records of ``kind``
        (summed in record order, which is the serial session order)."""
        combined: Dict[str, float] = {}
        for record in self.records:
            if record.kind != kind:
                continue
            for cause in sorted(record.causes):
                combined[cause] = (
                    combined.get(cause, 0.0) + record.causes[cause]
                )
        return combined

    # ----------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """Plain-data form for cross-process transport."""
        return {
            "ledger": {
                context: dict(bucket)
                for context, bucket in self._ledger.items()
            },
            "records": [record.to_dict() for record in self.records],
            "dropped_records": self.dropped_records,
        }

    def merge_from(self, snapshot: dict) -> None:
        """Fold a worker snapshot in.  Contexts are per-session, so a
        context normally appears in exactly one snapshot and the union
        reproduces the serial ledger bit-for-bit; records concatenate in
        merge order, and pooled paths merge one snapshot per session in
        session order — the serial order."""
        for context, bucket in snapshot.get("ledger", {}).items():
            mine = self._ledger.setdefault(context, {})
            for cause, seconds in bucket.items():
                mine[cause] = mine.get(cause, 0.0) + seconds
        for data in snapshot.get("records", []):
            if len(self.records) < self.MAX_RECORDS:
                self.records.append(AttributionRecord(
                    kind=data["kind"],
                    context=data["context"],
                    start=data["start"],
                    duration=data["duration"],
                    causes=dict(data["causes"]),
                    raw=dict(data["raw"]),
                ))
            else:
                self.dropped_records += 1
        self.dropped_records += snapshot.get("dropped_records", 0)
