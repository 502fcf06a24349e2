"""Tests for device profiles, clocks and shaping."""

import random

import pytest

from repro.automation.devices import DEVICES, GALAXY_S3, GALAXY_S4, DeviceProfile
from repro.automation.ntp import (
    BROADCASTER_PHONE_CLOCK,
    CAPTURE_DESKTOP_CLOCK,
    ClockModel,
)
from repro.automation.shaping import shaper_for_limit


class TestDevices:
    def test_registry(self):
        assert DEVICES["galaxy-s3"] is GALAXY_S3
        assert DEVICES["galaxy-s4"] is GALAXY_S4

    def test_s3_slower_display(self):
        assert GALAXY_S3.display_fps_factor < GALAXY_S4.display_fps_factor

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", display_fps_factor=1.5, display_fps_jitter=0.0)


class TestClocks:
    def test_offsets_bounded(self):
        rng = random.Random(1)
        for model in (CAPTURE_DESKTOP_CLOCK, BROADCASTER_PHONE_CLOCK):
            for _ in range(500):
                offset = model.sample_offset(rng)
                assert abs(offset) <= model.max_abs_s

    def test_phone_clock_noisier_than_desktop(self):
        assert BROADCASTER_PHONE_CLOCK.sigma_s > CAPTURE_DESKTOP_CLOCK.sigma_s

    def test_offsets_sometimes_negative(self):
        rng = random.Random(2)
        offsets = [BROADCASTER_PHONE_CLOCK.sample_offset(rng) for _ in range(200)]
        assert any(o < 0 for o in offsets) and any(o > 0 for o in offsets)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClockModel(sigma_s=-1.0, max_abs_s=1.0).sample_offset(random.Random(1))


class TestShaping:
    def test_unlimited_returns_none(self):
        assert shaper_for_limit(100.0) is None
        assert shaper_for_limit(500.0) is None

    def test_limited_returns_shaper_at_rate(self):
        shaper = shaper_for_limit(2.0)
        assert shaper is not None
        assert shaper.rate_bps == pytest.approx(2e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            shaper_for_limit(0.0)
