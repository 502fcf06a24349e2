"""Media substrate: content model, AVC-like encoder, AAC-like audio.

The paper's Section 5.2 analyses the captured bitstreams: bitrate
(200-400 kbps typical), average QP vs. bitrate, frame-type patterns
(repeated IBP; some I+P-only; rare I-only), HLS segment durations
(3-6 s, mode 3.6 s) and AAC audio at ~32/64 kbps VBR.  This package
implements the *producing* side of those observations: a stochastic
content-complexity process drives a rate-controlled encoder model whose
output frames carry type, size, QP and timestamps — and can be serialized
to a parseable bitstream for the capture/reconstruction pipeline.
"""

from repro.media.content import ContentProfile, ContentProcess, CONTENT_PROFILES
from repro.media.rate_control import RateController, bits_for_frame
from repro.media.frames import AudioFrame, EncodedFrame, VIDEO_RESOLUTION
from repro.media.encoder import EncoderSettings, VideoEncoder, GopPattern
from repro.media.audio import AacEncoderModel
from repro.media.segmenter import HlsSegment, HlsSegmenter
from repro.media.bitstream import (
    FrameStreamParser,
    encode_audio_frame,
    encode_video_frame,
)

__all__ = [
    "FrameStreamParser",
    "encode_audio_frame",
    "encode_video_frame",
    "ContentProfile",
    "ContentProcess",
    "CONTENT_PROFILES",
    "RateController",
    "bits_for_frame",
    "AudioFrame",
    "EncodedFrame",
    "VIDEO_RESOLUTION",
    "EncoderSettings",
    "VideoEncoder",
    "GopPattern",
    "AacEncoderModel",
    "HlsSegment",
    "HlsSegmenter",
]
