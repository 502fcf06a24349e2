"""tcpdump-equivalent: packet capture at chosen links.

The paper captured all video/audio traffic on the tethering desktop with
``tcpdump`` and later reconstructed streams with wireshark.  Here a
:class:`TraceCapture` taps one or more links and accumulates
:class:`~repro.netsim.packet.PacketRecord` entries, which
:mod:`repro.capture.reconstruct` post-processes the same way.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.netsim.link import Link
from repro.netsim.packet import HEADER_BYTES, Packet, PacketRecord

RecordFilter = Callable[[PacketRecord], bool]


class TraceCapture:
    """Accumulates packet records from tapped links.

    Each tapped link is labelled with a *direction* string (e.g. ``"down"``
    for server→phone, ``"up"`` for phone→server) that ends up on every
    record, mirroring how a capture on a physical interface distinguishes
    RX from TX.
    """

    def __init__(self, capture_payload: bool = True) -> None:
        self.records: List[PacketRecord] = []
        self.capture_payload = capture_payload
        self._taps: List[tuple] = []

    def tap_link(self, link: Link, direction: str) -> None:
        """Start capturing packets entering ``link``."""
        keep_payload = self.capture_payload
        records = self.records
        append = records.append
        record = PacketRecord

        def observer(packet: Packet, timestamp: float, _direction: str = direction) -> None:
            # Snapshot the packet as observed at ``timestamp``.  This
            # closure runs once per packet per tapped link, so it builds
            # the record directly instead of going through a helper.
            annotations = packet.ann_items
            if annotations is None:
                # Keys are unique, so a plain tuple sort equals
                # key-sorted order.
                annotations = tuple(sorted(packet.annotations.items()))
            payload = packet.payload_bytes
            append(record(
                timestamp,
                packet.flow_id,
                packet.seq,
                payload,
                payload + HEADER_BYTES,
                packet.is_ack,
                _direction,
                packet.message_id,
                packet.message_offset,
                packet.message_total,
                annotations,
                packet.chunk if keep_payload else None,
            ))

        link.tap(observer)
        self._taps.append((link, observer))

    def stop(self) -> None:
        """Detach from all links (records are kept)."""
        for link, observer in self._taps:
            link.untap(observer)
        self._taps.clear()

    # ------------------------------------------------------------- queries

    def filter(self, predicate: RecordFilter) -> List[PacketRecord]:
        """All records matching ``predicate``, in capture order."""
        return [r for r in self.records if predicate(r)]

    def flows(self) -> Dict[int, List[PacketRecord]]:
        """Records grouped by flow id (ACKs included)."""
        grouped: Dict[int, List[PacketRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.flow_id, []).append(record)
        return grouped

    def data_records(self) -> List[PacketRecord]:
        """Non-ACK records."""
        return [r for r in self.records if not r.is_ack]

    def total_bytes(self, direction: Optional[str] = None, include_acks: bool = True) -> int:
        """Total wire bytes observed (for traffic-volume comparisons)."""
        return sum(
            r.wire_bytes
            for r in self.records
            if (direction is None or r.direction == direction)
            and (include_acks or not r.is_ack)
        )

    def byterate_bps(self, t0: float, t1: float, direction: Optional[str] = None) -> float:
        """Average observed rate over ``[t0, t1)`` in bits per second."""
        if t1 <= t0:
            raise ValueError("t1 must exceed t0")
        nbytes = sum(
            r.wire_bytes
            for r in self.records
            if t0 <= r.timestamp < t1 and (direction is None or r.direction == direction)
        )
        return nbytes * 8.0 / (t1 - t0)

    def __len__(self) -> int:
        return len(self.records)
