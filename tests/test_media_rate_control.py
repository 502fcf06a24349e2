"""Tests for the R-QP model and the ABR controller."""

import random

import pytest

from repro.media.rate_control import (
    QP_MAX,
    QP_MIN,
    QP_REF,
    RateController,
    bits_for_frame,
)


def test_qp_down_six_doubles_bits():
    low = bits_for_frame("P", QP_REF, 1.0)
    high = bits_for_frame("P", QP_REF - 6, 1.0)
    assert high == pytest.approx(2 * low)


def test_frame_type_ordering():
    i = bits_for_frame("I", 30, 1.0)
    p = bits_for_frame("P", 30, 1.0)
    b = bits_for_frame("B", 30, 1.0)
    assert i > p > b


def test_bits_scale_with_complexity():
    assert bits_for_frame("P", 30, 2.0) == pytest.approx(2 * bits_for_frame("P", 30, 1.0))


def test_bits_validation():
    with pytest.raises(ValueError):
        bits_for_frame("X", 30, 1.0)
    with pytest.raises(ValueError):
        bits_for_frame("P", 5, 1.0)
    with pytest.raises(ValueError):
        bits_for_frame("P", 30, 0.0)


def test_controller_validation():
    with pytest.raises(ValueError):
        RateController(target_bps=0, fps=30)
    with pytest.raises(ValueError):
        RateController(target_bps=1e5, fps=0)


def simulate(target_bps, complexity, frames=3000, fps=30.0, seed=0):
    """Run the controller over an IBP-like type sequence and return
    (achieved bps, mean qp)."""
    rng = random.Random(seed)
    rc = RateController(target_bps=target_bps, fps=fps)
    total_bits = 0.0
    qp_sum = 0.0
    for i in range(frames):
        pos = i % 36
        ftype = "I" if pos == 0 else ("B" if pos % 2 == 1 else "P")
        c = max(0.05, rng.gauss(complexity, complexity * 0.1))
        qp_sum += rc.qp
        total_bits += rc.encode_frame(ftype, c)
    return total_bits / (frames / fps), qp_sum / frames


def test_controller_converges_to_target():
    achieved, _ = simulate(300_000.0, complexity=1.0)
    assert achieved == pytest.approx(300_000.0, rel=0.10)


def test_harder_content_encoded_at_higher_qp():
    _, qp_easy = simulate(300_000.0, complexity=0.4)
    _, qp_hard = simulate(300_000.0, complexity=1.8)
    assert qp_hard > qp_easy + 3


def test_higher_target_lower_qp():
    _, qp_low_rate = simulate(200_000.0, complexity=1.0)
    _, qp_high_rate = simulate(800_000.0, complexity=1.0)
    assert qp_high_rate < qp_low_rate - 5


def test_qp_stays_in_valid_range():
    rc = RateController(target_bps=50_000.0, fps=30)
    for i in range(500):
        rc.encode_frame("I", 4.0)  # pathological: all-I, very hard content
        assert QP_MIN <= rc.qp <= QP_MAX
