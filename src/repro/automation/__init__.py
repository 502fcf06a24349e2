"""Measurement automation: the paper's phones, clocks and shaping.

The study automated viewing with two Samsung phones reverse-tethered to
a Linux desktop (``tc`` for bandwidth limits, NTP for clock sync, adb
tap events driving the app's Teleport button).  This package models the
device differences, the clock-synchronization error that produces the
occasional negative delivery-latency sample, and the shaping setup.
The Teleport loop itself is :mod:`repro.core.study` and
:mod:`repro.core.session`.
"""

from repro.automation.devices import DEVICES, DeviceProfile, GALAXY_S3, GALAXY_S4
from repro.automation.ntp import ClockModel
from repro.automation.shaping import shaper_for_limit

__all__ = [
    "DEVICES",
    "DeviceProfile",
    "GALAXY_S3",
    "GALAXY_S4",
    "ClockModel",
    "shaper_for_limit",
]
