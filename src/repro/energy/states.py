"""The seven measured app states of Figure 7 as component operating
points.

Each state fixes CPU/GPU clock fractions, codec/camera activity and the
traffic pattern (average throughput + radio duty cycle).  The chat-on
state applies the paper's measured mechanics: CPU and GPU clock rates up
by roughly one third (hence ~2.4x processor power under cubic DVFS) and
the avatar-download traffic surge from ~0.5 to ~3.5 Mbps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.energy.components import GALAXY_S4_MODEL, Radio

#: The chat feature raises average CPU/GPU clocks by about one third.
CHAT_CLOCK_BOOST = 4.0 / 3.0


class AppState(enum.Enum):
    """The x axis of Figure 7."""

    HOME_SCREEN = "home_screen"
    APP_ON = "app_on"
    VIDEO_NOT_LIVE = "video_not_live"
    VIDEO_RTMP_CHAT_OFF = "video_rtmp_chat_off"
    VIDEO_HLS_CHAT_OFF = "video_hls_chat_off"
    VIDEO_HLS_CHAT_ON = "video_hls_chat_on"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class OperatingPoint:
    """Component activity in one app state."""

    cpu_clock: float
    gpu_clock: float
    decoding: bool
    broadcasting: bool
    throughput_mbps: float
    radio_duty: float


#: Operating points per state.  Clocks and duties are the calibration
#: knobs; traffic levels come from the paper's own traffic measurements
#: (video ~0.45 Mbps aggregate; chat-on ~3.5 Mbps; feed refresh every
#: 5 s keeps the radio duty-cycled but never idle).
APP_STATES = {
    AppState.HOME_SCREEN: OperatingPoint(
        cpu_clock=0.10, gpu_clock=0.06, decoding=False, broadcasting=False,
        throughput_mbps=0.0, radio_duty=0.0,
    ),
    AppState.APP_ON: OperatingPoint(
        cpu_clock=0.50, gpu_clock=0.35, decoding=False, broadcasting=False,
        throughput_mbps=0.25, radio_duty=0.70,
    ),
    AppState.VIDEO_NOT_LIVE: OperatingPoint(
        cpu_clock=0.645, gpu_clock=0.45, decoding=True, broadcasting=False,
        throughput_mbps=0.50, radio_duty=1.0,
    ),
    AppState.VIDEO_RTMP_CHAT_OFF: OperatingPoint(
        cpu_clock=0.635, gpu_clock=0.44, decoding=True, broadcasting=False,
        throughput_mbps=0.45, radio_duty=1.0,
    ),
    AppState.VIDEO_HLS_CHAT_OFF: OperatingPoint(
        cpu_clock=0.655, gpu_clock=0.45, decoding=True, broadcasting=False,
        throughput_mbps=0.50, radio_duty=1.0,
    ),
    AppState.VIDEO_HLS_CHAT_ON: OperatingPoint(
        cpu_clock=min(1.0, 0.655 * CHAT_CLOCK_BOOST),
        gpu_clock=min(1.0, 0.45 * CHAT_CLOCK_BOOST),
        decoding=True, broadcasting=False,
        throughput_mbps=3.5, radio_duty=1.0,
    ),
    AppState.BROADCAST: OperatingPoint(
        cpu_clock=0.70, gpu_clock=0.40, decoding=False, broadcasting=True,
        throughput_mbps=0.60, radio_duty=1.0,
    ),
}


def state_power_mw(state: AppState, radio: Radio) -> float:
    """Mean power draw of the Galaxy S4 in one app state over one radio."""
    model = GALAXY_S4_MODEL
    point = APP_STATES[state]
    power = model.platform_idle_mw + model.screen_full_mw
    power += model.cpu_mw(point.cpu_clock)
    power += model.gpu_mw(point.gpu_clock)
    if point.decoding:
        power += model.decoder_mw
    if point.broadcasting:
        power += model.camera_mw + model.encoder_mw
    power += model.radio_mw(radio, point.throughput_mbps, point.radio_duty)
    return power


#: The paper's Figure 7 values (mW), for comparison in benches/tests.
PAPER_FIGURE7_MW = {
    AppState.HOME_SCREEN: (1067.0, 1006.0),
    AppState.APP_ON: (1673.0, 2159.0),
    AppState.VIDEO_NOT_LIVE: (2303.0, 3120.0),
    AppState.VIDEO_RTMP_CHAT_OFF: (2268.0, 2959.0),
    AppState.VIDEO_HLS_CHAT_OFF: (2400.0, 3033.0),
    AppState.VIDEO_HLS_CHAT_ON: (4169.0, 4540.0),
    AppState.BROADCAST: (3594.0, 4383.0),
}
