"""Media inspection (the libav step): facts about a reconstructed stream.

Given the frames of one stream (or one HLS segment), compute what
Section 5.2 reports: average bitrate, average QP, effective frame rate,
the GOP classification (IBP / I+P-only / intra-only), the I-frame period
and — for HLS — segment durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.media.frames import AudioFrame, EncodedFrame

MediaFrame = Union[EncodedFrame, AudioFrame]

#: The app's capture rate; a frame gap over 2.2 nominal frames is a loss.
NOMINAL_FPS = 30.0


@dataclass(frozen=True)
class MediaReport:
    """Per-stream facts recovered by inspection."""

    n_video_frames: int
    n_audio_frames: int
    duration_s: float
    video_bitrate_bps: float
    audio_bitrate_bps: float
    average_qp: float
    average_fps: float
    gop_kind: str  # "IBP" | "IP" | "I" | "unknown"
    i_frame_period: Optional[float]
    has_missing_frames: bool


def classify_gop(types: Sequence[str]) -> str:
    """Classify a frame-type sequence the way the paper's census does."""
    present = set(types)
    if not present or not present <= {"I", "P", "B"}:
        return "unknown"
    if present == {"I"}:
        return "I"
    if "B" in present:
        return "IBP"
    return "IP"


def _i_frame_period(frames: Sequence[EncodedFrame]) -> Optional[float]:
    """Mean distance in frames between consecutive I frames."""
    indices = [k for k, f in enumerate(frames) if f.frame_type == "I"]
    if len(indices) < 2:
        return None
    gaps = [b - a for a, b in zip(indices, indices[1:])]
    return sum(gaps) / len(gaps)


def inspect_frames(
    video_frames: Iterable[EncodedFrame],
    audio_frames: Iterable[AudioFrame] = (),
) -> MediaReport:
    """Inspect one stream's frames."""
    video = sorted(video_frames, key=lambda f: f.pts)
    audio = list(audio_frames)
    if len(video) < 2:
        raise ValueError("need at least two video frames to inspect")
    pts = [f.pts for f in video]
    duration = pts[-1] - pts[0] + 1.0 / NOMINAL_FPS
    video_bytes = sum(f.nbytes for f in video)
    audio_bytes = sum(f.nbytes for f in audio)
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    nominal_gap = 1.0 / NOMINAL_FPS
    missing = any(gap > 2.2 * nominal_gap for gap in gaps)
    decode_order = sorted(video, key=lambda f: f.dts)
    return MediaReport(
        n_video_frames=len(video),
        n_audio_frames=len(audio),
        duration_s=duration,
        video_bitrate_bps=video_bytes * 8.0 / duration,
        audio_bitrate_bps=audio_bytes * 8.0 / duration if duration > 0 else 0.0,
        average_qp=sum(f.qp for f in video) / len(video),
        average_fps=len(video) / duration,
        gop_kind=classify_gop([f.frame_type for f in decode_order]),
        i_frame_period=_i_frame_period(decode_order),
        has_missing_frames=missing,
    )


def segment_durations(
    segments: Iterable,
) -> List[float]:
    """Durations of HLS segments (Section 5.2's 3-6 s census)."""
    return [segment.duration_s for segment in segments]


def qp_bitrate_points(
    reports: Iterable[MediaReport],
) -> List[Tuple[float, float]]:
    """(bitrate, avg QP) scatter points — Fig. 6(b)'s axes."""
    return [(r.video_bitrate_bps, r.average_qp) for r in reports]
