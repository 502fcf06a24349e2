"""MPEG-TS (ISO/IEC 13818-1) packetization for HLS segments.

Implements the real transport-stream structure: 188-byte packets with
sync byte 0x47, PAT/PMT signalling tables with MPEG CRC32, PES packets
with 33-bit 90 kHz PTS/DTS, adaptation-field stuffing, and per-PID
continuity counters.  Each HLS segment the CDN serves is a genuine TS
byte string produced by :func:`mux_segment`; the inspector's
:func:`demux_segment` recovers the elementary frames exactly the way the
paper's wireshark + libav pipeline did.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.media.bitstream import (
    FrameStreamParser,
    encode_audio_frame,
    encode_video_frame,
)
from repro.media.frames import AudioFrame, EncodedFrame

TS_PACKET_SIZE = 188
SYNC_BYTE = 0x47

PID_PAT = 0x0000
PID_PMT = 0x1000
PID_VIDEO = 0x0100
PID_AUDIO = 0x0101

STREAM_TYPE_AVC = 0x1B
STREAM_TYPE_AAC = 0x0F

STREAM_ID_VIDEO = 0xE0
STREAM_ID_AUDIO = 0xC0

#: 90 kHz clock used by MPEG PTS/DTS fields.
PES_CLOCK_HZ = 90_000


def crc32_mpeg(data: bytes) -> int:
    """CRC-32/MPEG-2 (poly 0x04C11DB7, init 0xFFFFFFFF, no reflection)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte << 24
        for _ in range(8):
            if crc & 0x80000000:
                crc = ((crc << 1) ^ 0x04C11DB7) & 0xFFFFFFFF
            else:
                crc = (crc << 1) & 0xFFFFFFFF
    return crc


def _ts_header(pid: int, pusi: bool, continuity: int, adaptation: bool, payload: bool) -> bytes:
    """The 4-byte transport packet header."""
    if not 0 <= pid <= 0x1FFF:
        raise ValueError(f"PID {pid:#x} out of range")
    afc = (0b10 if adaptation else 0) | (0b01 if payload else 0)
    if afc == 0:
        raise ValueError("a TS packet needs adaptation field and/or payload")
    byte1 = (0x40 if pusi else 0x00) | ((pid >> 8) & 0x1F)
    byte2 = pid & 0xFF
    byte3 = (afc << 4) | (continuity & 0x0F)
    return bytes([SYNC_BYTE, byte1, byte2, byte3])


def _packetize(pid: int, payload: bytes, continuity_start: int) -> Tuple[List[bytes], int]:
    """Split one PES/PSI payload into TS packets with stuffing.

    Returns the packets and the next continuity-counter value.
    """
    packets: List[bytes] = []
    continuity = continuity_start
    offset = 0
    first = True
    body_capacity = TS_PACKET_SIZE - 4
    while offset < len(payload):
        remaining = len(payload) - offset
        if remaining >= body_capacity:
            header = _ts_header(pid, first, continuity, adaptation=False, payload=True)
            packets.append(header + payload[offset : offset + body_capacity])
            offset += body_capacity
        else:
            # Stuff with an adaptation field so the packet is exactly 188 B.
            stuffing_needed = body_capacity - remaining - 1  # 1 B AF length
            af_length = stuffing_needed
            header = _ts_header(pid, first, continuity, adaptation=True, payload=True)
            if af_length == 0:
                adaptation_field = bytes([0])
            else:
                # AF: length byte, flags byte (0), then 0xFF stuffing.
                adaptation_field = bytes([af_length, 0]) + b"\xff" * (af_length - 1)
            packets.append(header + adaptation_field + payload[offset:])
            offset = len(payload)
        first = False
        continuity = (continuity + 1) & 0x0F
    return packets, continuity


def _encode_pts(marker: int, value_90khz: int) -> bytes:
    """The 5-byte PTS/DTS encoding with marker bits."""
    v = value_90khz & 0x1FFFFFFFF  # 33 bits
    b0 = (marker << 4) | (((v >> 30) & 0x7) << 1) | 1
    b12 = (((v >> 15) & 0x7FFF) << 1) | 1
    b34 = ((v & 0x7FFF) << 1) | 1
    return bytes([b0]) + struct.pack(">H", b12) + struct.pack(">H", b34)


def pes_packet(stream_id: int, es_payload: bytes, pts_s: float, dts_s: Optional[float] = None) -> bytes:
    """Build one PES packet carrying ``es_payload`` with PTS (and DTS)."""
    if pts_s < 0:
        raise ValueError("PTS must be non-negative")
    pts = int(round(pts_s * PES_CLOCK_HZ))
    with_dts = dts_s is not None and abs(dts_s - pts_s) > 1.0 / PES_CLOCK_HZ
    if with_dts:
        assert dts_s is not None
        dts = int(round(dts_s * PES_CLOCK_HZ))
        flags2 = 0xC0  # PTS + DTS
        header_data = _encode_pts(0b0011, pts) + _encode_pts(0b0001, dts)
    else:
        flags2 = 0x80  # PTS only
        header_data = _encode_pts(0b0010, pts)
    packet_body = (
        bytes([0x80, flags2, len(header_data)]) + header_data + es_payload
    )
    length = len(packet_body)
    if length > 0xFFFF:
        length = 0  # unbounded PES, allowed for video streams
    return b"\x00\x00\x01" + bytes([stream_id]) + struct.pack(">H", length) + packet_body


def _psi_section(table_id: int, table_body: bytes, id_field: int) -> bytes:
    """Wrap a PSI table body into a section with CRC32, plus pointer byte."""
    # section: table_id, section_syntax(1)+0+reserved(2)+length(12),
    #          id, reserved+version+current_next, section_number x2, body, crc
    length = 5 + len(table_body) + 4
    section = (
        bytes([table_id])
        + struct.pack(">H", 0xB000 | (length & 0x0FFF))
        + struct.pack(">H", id_field)
        + bytes([0xC1, 0x00, 0x00])
        + table_body
    )
    crc = crc32_mpeg(section)
    return bytes([0x00]) + section + struct.pack(">I", crc)  # pointer_field first


def pat_section() -> bytes:
    """Program Association Table: one program (1) at the PMT PID."""
    body = struct.pack(">HH", 1, 0xE000 | PID_PMT)
    return _psi_section(0x00, body, id_field=1)  # transport_stream_id = 1


def pmt_section() -> bytes:
    """Program Map Table: AVC video and AAC audio elementary streams."""
    body = struct.pack(">HH", 0xE000 | PID_VIDEO, 0xF000)  # PCR PID, program_info_len
    for stream_type, pid in ((STREAM_TYPE_AVC, PID_VIDEO), (STREAM_TYPE_AAC, PID_AUDIO)):
        body += bytes([stream_type]) + struct.pack(">HH", 0xE000 | pid, 0xF000)
    return _psi_section(0x02, body, id_field=1)  # program_number = 1


def mux_segment(
    video_frames: Sequence[EncodedFrame],
    audio_frames: Sequence[AudioFrame] = (),
) -> bytes:
    """Serialize one HLS segment as a real MPEG-TS byte string."""
    packets: List[bytes] = []
    continuity: Dict[int, int] = {PID_PAT: 0, PID_PMT: 0, PID_VIDEO: 0, PID_AUDIO: 0}

    pat_packets, continuity[PID_PAT] = _packetize(PID_PAT, pat_section(), continuity[PID_PAT])
    pmt_packets, continuity[PID_PMT] = _packetize(PID_PMT, pmt_section(), continuity[PID_PMT])
    packets.extend(pat_packets)
    packets.extend(pmt_packets)

    # Interleave by decode/transmission time, as a real muxer does.
    units: List[Tuple[float, int, bytes]] = []
    for frame in video_frames:
        pes = pes_packet(
            STREAM_ID_VIDEO, encode_video_frame(frame), pts_s=frame.pts, dts_s=frame.dts
        )
        units.append((frame.dts, PID_VIDEO, pes))
    for frame in audio_frames:
        pes = pes_packet(STREAM_ID_AUDIO, encode_audio_frame(frame), pts_s=frame.pts)
        units.append((frame.pts, PID_AUDIO, pes))
    units.sort(key=lambda u: u[0])

    for _, pid, pes in units:
        pes_packets, continuity[pid] = _packetize(pid, pes, continuity[pid])
        packets.extend(pes_packets)
    return b"".join(packets)


@dataclass
class DemuxResult:
    """Everything recovered from one TS segment."""

    video_frames: List[EncodedFrame]
    audio_frames: List[AudioFrame]
    pmt_streams: Dict[int, int]  # PID -> stream_type
    packet_count: int
    continuity_errors: int


def demux_segment(data: bytes) -> DemuxResult:
    """Parse a TS segment back into elementary frames.

    Validates sync bytes, walks PAT -> PMT to find the elementary PIDs,
    reassembles PES payloads per PID and parses the frame records.
    Raises ``ValueError`` on malformed input, including a segment
    without a PMT, and a PAT or PMT whose CRC32 fails or whose section
    length runs past its data.
    """
    if len(data) % TS_PACKET_SIZE != 0:
        raise ValueError(
            f"TS segment length {len(data)} is not a multiple of {TS_PACKET_SIZE}"
        )
    pes_buffers: Dict[int, bytearray] = {}
    psi_payloads: Dict[int, bytes] = {}
    pmt_streams: Dict[int, int] = {}
    pmt_pid: Optional[int] = None
    last_continuity: Dict[int, int] = {}
    continuity_errors = 0
    completed_pes: List[Tuple[int, bytes]] = []

    def flush_pes(pid: int) -> None:
        buffer = pes_buffers.pop(pid, None)
        if buffer:
            completed_pes.append((pid, bytes(buffer)))

    packet_count = 0
    for offset in range(0, len(data), TS_PACKET_SIZE):
        packet = data[offset : offset + TS_PACKET_SIZE]
        packet_count += 1
        if packet[0] != SYNC_BYTE:
            raise ValueError(f"lost sync at packet {packet_count}")
        pusi = bool(packet[1] & 0x40)
        pid = ((packet[1] & 0x1F) << 8) | packet[2]
        afc = (packet[3] >> 4) & 0x3
        continuity = packet[3] & 0x0F
        if pid in last_continuity and afc & 0b01:
            expected = (last_continuity[pid] + 1) & 0x0F
            if continuity != expected:
                continuity_errors += 1
        last_continuity[pid] = continuity

        body = packet[4:]
        if afc & 0b10:  # adaptation field present
            af_length = body[0]
            if 1 + af_length > len(body):
                raise ValueError(f"adaptation field runs past packet {packet_count}")
            body = body[1 + af_length :]
        if not afc & 0b01:
            continue  # no payload

        if pid == PID_PAT or (pmt_pid is not None and pid == pmt_pid):
            if pusi:
                if not body or 1 + body[0] > len(body):
                    raise ValueError(f"pointer field runs past packet {packet_count}")
                psi_payloads[pid] = bytes(body[1 + body[0] :])
            else:
                psi_payloads[pid] = psi_payloads.get(pid, b"") + bytes(body)
            section = _complete_section(psi_payloads[pid])
            if section is None:
                continue  # the section goes on in the next packet
            if pid == PID_PAT and pmt_pid is None:
                pmt_pid = _parse_pat(section)
            elif pid == pmt_pid and not pmt_streams:
                pmt_streams.update(_parse_pmt(section))
            continue

        if pmt_streams and pid not in pmt_streams:
            continue  # unknown PID, skip (a real demuxer ignores them)
        if pusi:
            flush_pes(pid)
            pes_buffers[pid] = bytearray()
        pes_buffers.setdefault(pid, bytearray()).extend(body)

    for pid, payload in psi_payloads.items():
        if _complete_section(payload) is None:
            raise ValueError(f"PSI section on PID {pid:#x} runs past its data")
    if not pmt_streams:
        raise ValueError("segment carries no PMT listing its streams")
    for pid in list(pes_buffers):
        flush_pes(pid)

    video: List[EncodedFrame] = []
    audio: List[AudioFrame] = []
    for pid, pes in completed_pes:
        es = _strip_pes_header(pes)
        parser = FrameStreamParser()
        for frame in parser.feed(es):
            if isinstance(frame, EncodedFrame):
                video.append(frame)
            else:
                audio.append(frame)
        if parser.pending_bytes:
            raise ValueError(f"PES on PID {pid:#x} holds a truncated frame record")
    return DemuxResult(
        video_frames=video,
        audio_frames=audio,
        pmt_streams=pmt_streams,
        packet_count=packet_count,
        continuity_errors=continuity_errors,
    )


def _complete_section(payload: bytes) -> Optional[bytes]:
    """The PSI section at the start of ``payload``, CRC-checked, or None
    while its ``section_length`` still runs past the bytes received."""
    if len(payload) < 3:
        return None
    end = 3 + (struct.unpack(">H", payload[1:3])[0] & 0x0FFF)
    if end > len(payload):
        return None
    section = payload[:end]
    # The CRC of a section that ends in its own CRC32 leaves no residue.
    if end < 12 or crc32_mpeg(section) != 0:
        raise ValueError(
            f"PSI section with table id {payload[0]:#x} is truncated or fails its CRC32"
        )
    return section


def _parse_pat(section: bytes) -> int:
    """Extract the PMT PID from a CRC-checked PAT section."""
    if section[0] != 0x00:
        raise ValueError("PAT has wrong table id")
    body = section[8:-4]
    for entry_offset in range(0, len(body) - 3, 4):
        program, pid_word = struct.unpack(">HH", body[entry_offset : entry_offset + 4])
        if program != 0:
            return pid_word & 0x1FFF
    raise ValueError("PAT lists no program")


def _parse_pmt(section: bytes) -> Dict[int, int]:
    """Extract PID -> stream_type from a CRC-checked PMT section."""
    if section[0] != 0x02 or len(section) < 16:
        raise ValueError("PMT has wrong table id or no program info")
    program_info_len = struct.unpack(">H", section[10:12])[0] & 0x0FFF
    body = section[12 + program_info_len : -4]
    streams: Dict[int, int] = {}
    offset = 0
    while offset + 5 <= len(body):
        stream_type = body[offset]
        pid = struct.unpack(">H", body[offset + 1 : offset + 3])[0] & 0x1FFF
        es_info_len = struct.unpack(">H", body[offset + 3 : offset + 5])[0] & 0x0FFF
        streams[pid] = stream_type
        offset += 5 + es_info_len
    return streams


def _strip_pes_header(pes: bytes) -> bytes:
    """Return the elementary-stream payload of a PES packet."""
    if pes[:3] != b"\x00\x00\x01":
        raise ValueError("PES start code missing")
    header_data_length = pes[8]
    return pes[9 + header_data_length :]
