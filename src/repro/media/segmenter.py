"""HLS segmenter: pack frames into closed, I-frame-aligned segments.

Section 5.2: "The most common segment duration with HLS is 3.6 s (60% of
the cases), and it ranges between 3 and 6 s."  A segment must start at an
I frame (so a client can join at any segment boundary), which is why the
achievable durations quantize to whole GOPs: at ~30 fps with a 36-frame
GOP, three GOPs ≈ 3.6 s — the observed mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.media.frames import AudioFrame, EncodedFrame

#: Segment duration the packager aims at; a segment closes at the first
#: I frame past it.
SEGMENT_TARGET_S = 3.6


@dataclass
class HlsSegment:
    """One media segment: an I-frame-aligned run of video frames plus the
    audio frames covering the same interval."""

    sequence: int
    start_pts: float
    video_frames: List[EncodedFrame] = field(default_factory=list)
    audio_frames: List[AudioFrame] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Nominal duration: from first to last frame plus one frame gap.

        Uses the median inter-frame interval so a trailing dropped frame
        doesn't shorten the reported duration.
        """
        frames = sorted(f.pts for f in self.video_frames)
        if len(frames) < 2:
            return 0.0
        gaps = sorted(b - a for a, b in zip(frames, frames[1:]))
        median_gap = gaps[len(gaps) // 2]
        return frames[-1] - frames[0] + median_gap

    @property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.video_frames) + sum(
            f.nbytes for f in self.audio_frames
        )

    def average_qp(self) -> float:
        if not self.video_frames:
            raise ValueError("empty segment has no QP")
        return sum(f.qp for f in self.video_frames) / len(self.video_frames)


class HlsSegmenter:
    """Group a frame stream into segments of ~:data:`SEGMENT_TARGET_S`.

    A segment closes at the first I frame after the target duration has
    elapsed, so actual durations are quantized to GOP lengths — between 3
    and 6 seconds for the parameters seen in the wild.
    """

    def segment(
        self,
        video_frames: Iterable[EncodedFrame],
        audio_frames: Sequence[AudioFrame] = (),
    ) -> Iterator[HlsSegment]:
        """Yield closed segments; a final partial segment is yielded too
        (a live stream ends mid-segment when the broadcast stops)."""
        audio = sorted(audio_frames, key=lambda f: f.pts)
        audio_pos = 0
        current: Optional[HlsSegment] = None
        sequence = 0

        def close(segment: HlsSegment, upto_pts: float) -> HlsSegment:
            nonlocal audio_pos
            while audio_pos < len(audio) and audio[audio_pos].pts < upto_pts:
                segment.audio_frames.append(audio[audio_pos])
                audio_pos += 1
            return segment

        for frame in sorted(video_frames, key=lambda f: f.pts):
            if current is None:
                current = HlsSegment(sequence=sequence, start_pts=frame.pts)
            elif (
                frame.frame_type == "I"
                and frame.pts - current.start_pts >= SEGMENT_TARGET_S
            ):
                yield close(current, frame.pts)
                sequence += 1
                current = HlsSegment(sequence=sequence, start_pts=frame.pts)
            current.video_frames.append(frame)
        if current is not None and current.video_frames:
            yield close(current, float("inf"))
