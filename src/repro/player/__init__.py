"""The viewer's player: playout buffering, stalls, join and latency.

Implements both receive paths the Periscope app uses — RTMP push with a
small jitter buffer, and HLS segment fetching against the CDN's live
window — over one shared :class:`~repro.player.buffer.PlayoutBuffer`
that does the QoE accounting (join time, stall events, playback
latency), exactly the quantities the app's ``playbackMeta`` upload and
the paper's post-processing report.  Both players are a
:class:`~repro.player.buffer.Player`, the one contract a viewing session
reads: the buffer, delivery-latency samples, displayed frame rate and
the resilience counters.
"""

from repro.player.buffer import PlaybackReport, Player, PlayoutBuffer
from repro.player.rtmp_player import RtmpPlayer
from repro.player.hls_player import HlsPlayer
from repro.player.chat_client import ChatClient

__all__ = [
    "PlaybackReport",
    "Player",
    "PlayoutBuffer",
    "RtmpPlayer",
    "HlsPlayer",
    "ChatClient",
]
