"""Section 5.2's codec census.

Over a population of captured streams: the frame-type pattern split
(most IBP; ~20% RTMP / ~18.4% HLS with I+P only; I-only rare), the
I-frame insertion period (~36 frames), HLS segment durations (3-6 s,
mode 3.6 s), and audio operating points (44.1 kHz VBR at ~32/64 kbps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.charts import render_table
from repro.capture.inspector import inspect_frames
from repro.media.audio import AacEncoderModel
from repro.media.content import ContentProcess, pick_profile
from repro.media.encoder import EncoderSettings, GopPattern, VideoEncoder
from repro.media.segmenter import HlsSegmenter
from repro.service.broadcast import sample_target_bitrate_bps
from repro.util.rng import child_rng

#: The paper's modal HLS segment duration, and how near a segment must
#: be to count toward it.
SEGMENT_MODE_S = 3.6
SEGMENT_MODE_TOLERANCE_S = 0.45


@dataclass
class CodecCensusResult:
    gop_shares: Dict[str, float]
    mean_i_period: float
    segment_durations: List[float]
    audio_rates: List[float]
    missing_frame_share: float

    def segment_mode_share(self) -> float:
        """Share of segments near the paper's modal duration."""
        if not self.segment_durations:
            return 0.0
        near = sum(
            1 for d in self.segment_durations
            if abs(d - SEGMENT_MODE_S) <= SEGMENT_MODE_TOLERANCE_S
        )
        return near / len(self.segment_durations)

    def render(self) -> str:
        parts = ["Section 5.2: codec census"]
        parts.append(render_table(
            ["GOP pattern", "share"],
            [[kind, f"{share:.3f}"] for kind, share in sorted(self.gop_shares.items())],
        ))
        durations = sorted(self.segment_durations)
        rows = [
            ["mean I-frame period (frames)", f"{self.mean_i_period:.1f}"],
            ["segments analyzed", str(len(durations))],
            ["segment duration min/median/max (s)",
             f"{durations[0]:.1f}/{durations[len(durations)//2]:.1f}/{durations[-1]:.1f}"
             if durations else "-"],
            ["share near 3.6 s mode", f"{self.segment_mode_share():.2f}"],
            ["audio operating points (kbps)",
             ",".join(f"{r/1000:.0f}" for r in sorted(set(self.audio_rates)))],
            ["streams with missing frames", f"{self.missing_frame_share:.2f}"],
        ]
        parts.append(render_table(["statistic", "value"], rows))
        return "\n".join(parts)


def run(seed: int = 2016, n_streams: int = 150, duration_s: float = 60.0) -> CodecCensusResult:
    """Encode a population of broadcasts and inspect each stream."""
    gop_counts: Dict[str, int] = {"IBP": 0, "IP": 0, "I": 0}
    i_periods: List[float] = []
    segment_durations: List[float] = []
    audio_rates: List[float] = []
    missing = 0

    for index in range(n_streams):
        rng = child_rng(seed, "codec-census", index)
        gop = GopPattern.sample(rng)
        settings = EncoderSettings(
            target_bps=sample_target_bitrate_bps(rng, gop), gop=gop
        )
        content = ContentProcess(pick_profile(rng), child_rng(seed, "census-content", index))
        encoder = VideoEncoder(settings, content, child_rng(seed, "census-enc", index))
        frames = encoder.encode_all(duration_s)
        audio = AacEncoderModel(child_rng(seed, "census-audio", index))
        audio_frames = audio.encode_all(duration_s)
        audio_rates.append(audio.nominal_bps)

        report = inspect_frames(frames, audio_frames)
        gop_counts[report.gop_kind] = gop_counts.get(report.gop_kind, 0) + 1
        if report.i_frame_period is not None:
            i_periods.append(report.i_frame_period)
        if report.has_missing_frames:
            missing += 1

        # Half the population doubles as HLS streams for the segment census.
        if index % 2 == 0:
            segments = list(HlsSegmenter().segment(frames, audio_frames))[:-1]
            segment_durations.extend(s.duration_s for s in segments)

    total = sum(gop_counts.values())
    return CodecCensusResult(
        gop_shares={k: v / total for k, v in gop_counts.items()},
        mean_i_period=sum(i_periods) / len(i_periods) if i_periods else 0.0,
        segment_durations=segment_durations,
        audio_rates=audio_rates,
        missing_frame_share=missing / n_streams,
    )
