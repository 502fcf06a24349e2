"""Rate control: the QP <-> bits relationship and the ABR control loop.

We use the standard exponential R-QP model from the rate-control
literature (Chen & Ngan 2007, the paper's reference [2]): halving the
quantization step — i.e. lowering QP by 6 — roughly doubles the bitrate,

    ``bits(frame) = base_bits * complexity * type_factor * 2^((QP_REF - qp)/6)``

and an ABR-style controller that nudges QP to keep a leaky-bucket
estimate of the output rate near the target.  This produces exactly the
Figure 6(b) phenomenology: for a fixed target bitrate, harder content is
encoded at higher QP (worse quality), and at a fixed QP the bitrate
spreads over a wide range with content complexity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs

#: Reference QP at which an average-complexity frame costs ``base_bits``.
QP_REF = 30.0
#: H.264 QP range.
QP_MIN, QP_MAX = 10.0, 51.0

#: Relative size of frame types for equal QP/content.  I frames are intra
#: coded (large); B frames exploit bidirectional prediction (small).
TYPE_FACTOR = {"I": 4.5, "P": 1.0, "B": 0.55}

#: Bits an average-complexity P frame costs at QP_REF for the fixed
#: 320x568 resolution.  Chosen so that a 30 fps IBP stream at QP~30 and
#: complexity 1.0 lands near the paper's typical 300 kbps.
BASE_P_FRAME_BITS = 7200.0

#: Proportional gain: each second of excess buffered bits raises QP by
#: this many halvings of frame size (6 QP each).
QP_REACTION = 0.5
#: Bound on the QP change between two frames.
MAX_QP_STEP = 2.0


def bits_for_frame(frame_type: str, qp: float, complexity: float) -> float:
    """Size in bits of one frame under the R-QP model."""
    if frame_type not in TYPE_FACTOR:
        raise ValueError(f"unknown frame type {frame_type!r}")
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"QP {qp} outside [{QP_MIN}, {QP_MAX}]")
    if complexity <= 0:
        raise ValueError("complexity must be positive")
    scale = 2.0 ** ((QP_REF - qp) / 6.0)
    return BASE_P_FRAME_BITS * TYPE_FACTOR[frame_type] * complexity * scale


@dataclass
class RateControllerState:
    """Observable internals, exported for tests and ablations."""

    qp: float
    buffer_bits: float
    frames_encoded: int


class RateController:
    """ABR-style single-pass rate control.

    A virtual buffer drains at the target bitrate and fills with actual
    frame bits; QP starts at :data:`QP_REF` and follows the buffer error
    with a proportional step, bounded to ±:data:`MAX_QP_STEP` per frame
    so quality doesn't flicker — the
    same compromise real encoders make, and the reason short-term bitrate
    overshoots on scene changes (visible as Fig. 6(a) spread).
    """

    def __init__(self, target_bps: float, fps: float) -> None:
        if target_bps <= 0 or fps <= 0:
            raise ValueError("target bitrate and fps must be positive")
        self.target_bps = target_bps
        self.fps = fps
        self._qp = QP_REF
        self._buffer_bits = 0.0
        self._frames = 0

    @property
    def state(self) -> RateControllerState:
        return RateControllerState(self._qp, self._buffer_bits, self._frames)

    @property
    def qp(self) -> float:
        return self._qp

    def encode_frame(self, frame_type: str, complexity: float) -> float:
        """Encode one frame at the current QP; returns its size in bits and
        updates the control state."""
        bits = bits_for_frame(frame_type, self._qp, complexity)
        per_frame_budget = self.target_bps / self.fps
        self._buffer_bits += bits - per_frame_budget
        self._frames += 1
        # Proportional controller on buffer error, in QP units: one second
        # of excess buffered bits maps to `QP_REACTION` QP steps of
        # 6/ln(2)... kept simple and bounded.
        error_seconds = self._buffer_bits / self.target_bps
        step = QP_REACTION * error_seconds * 6.0
        step = min(max(step, -MAX_QP_STEP), MAX_QP_STEP)
        self._qp = min(max(self._qp + step, QP_MIN), QP_MAX)
        if self._qp >= QP_MAX:
            # The controller is pinned at its quality floor: this frame's
            # worth of time is starved by an unreachable target bitrate.
            telemetry = obs.active()
            if telemetry.enabled and telemetry.causes_on:
                telemetry.causes.add("media.rate_starvation", 1.0 / self.fps)
        return bits
