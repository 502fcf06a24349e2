"""The golden-trace replay fixture for a faulted session: one faulted
session's tether capture, replayed against a stored digest on both
network paths."""

import hashlib
import json
import pathlib

import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "fixtures" / \
    "faulted_session_trace.json"
GOLDEN_SEED = 77
GOLDEN_FAULTS = "loss=0.02,jitter=0.005,flap=0.01:0.5:2,ingest=0.03:1:2,api5xx=0.1"


def _run_golden_session():
    """Run the golden faulted session; returns its tether capture."""
    from repro.automation.devices import GALAXY_S4
    from repro.core.session import SessionSetup
    from repro.faults import FaultPlan
    from repro.service.selection import DeliveryProtocol

    from test_core_session import make_broadcast, run_captured

    setup = SessionSetup(
        broadcast=make_broadcast(seed=GOLDEN_SEED),
        age_at_join=600.0,
        protocol=DeliveryProtocol.RTMP,
        device=GALAXY_S4,
        watch_seconds=20.0,
        seed=GOLDEN_SEED,
        faults=FaultPlan.parse(GOLDEN_FAULTS),
    )
    return run_captured(setup)[1]


def _canonical_trace(capture):
    """Render the capture as stable text lines.

    Flow and message ids come from process-global counters, so they are
    normalized to first-appearance indices; ``_``-prefixed annotations
    carry live objects and are skipped.
    """
    flow_index = {}
    message_index = {}
    lines = []
    for record in capture.records:
        flow = flow_index.setdefault(record.flow_id, len(flow_index))
        if record.message_id < 0:
            message = -1
        else:
            message = message_index.setdefault(
                record.message_id, len(message_index)
            )
        annotations = ",".join(
            f"{key}={value!r}"
            for key, value in record.annotations
            if not key.startswith("_")
            and isinstance(value, (str, int, float, bool, type(None)))
        )
        lines.append(
            f"{record.timestamp:.9f} {record.direction} flow={flow} "
            f"seq={record.seq} bytes={record.payload_bytes}/{record.wire_bytes} "
            f"ack={int(record.is_ack)} "
            f"msg={message}:{record.message_offset}:{record.message_total} "
            f"[{annotations}]"
        )
    return lines


def _trace_summary(lines):
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return {
        "packet_count": len(lines),
        "sha256": digest,
        "head": lines[:5],
        "tail": lines[-5:],
    }


@pytest.mark.parametrize("network_path", ["fast", "exact"])
def test_golden_faulted_trace_replays_byte_exact(network_path):
    """One faulted session replayed against a stored golden trace: any
    drift in fault sampling, event ordering, or packetization shows up
    as a digest mismatch.  Runs under both the segment-granularity fast
    path and the exact per-packet path — the same fixture must match
    either way.  Regenerate (after an *intended* change) with
    ``PYTHONPATH=src python tests/test_replay.py``."""
    from repro.netsim import fastpath

    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if network_path == "exact":
        with fastpath.exact_network():
            capture = _run_golden_session()
    else:
        capture = _run_golden_session()
    summary = _trace_summary(_canonical_trace(capture))
    assert summary["packet_count"] == expected["packet_count"]
    assert summary["head"] == expected["head"]
    assert summary["tail"] == expected["tail"]
    assert summary["sha256"] == expected["sha256"]


if __name__ == "__main__":  # regenerate the golden fixture
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    regenerated = _trace_summary(_canonical_trace(_run_golden_session()))
    GOLDEN_PATH.write_text(json.dumps(regenerated, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({regenerated['packet_count']} packets, "
          f"sha256={regenerated['sha256'][:12]}...)")
