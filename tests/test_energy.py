"""Tests for the power model and the Monsoon simulator (Fig. 7)."""

import random

import pytest

from repro.energy.components import GALAXY_S4_MODEL, LTE_PARAMS, Radio, WIFI_PARAMS
from repro.energy.monsoon import MonsoonMonitor
from repro.energy.states import (
    APP_STATES,
    PAPER_FIGURE7_MW,
    AppState,
    state_power_mw,
)


def figure7_table():
    """All fourteen bars of Figure 7: {state: (wifi_mw, lte_mw)}."""
    return {
        state: (state_power_mw(state, Radio.WIFI), state_power_mw(state, Radio.LTE))
        for state in AppState
    }


class TestComponents:
    def test_dvfs_cubic_scaling(self):
        model = GALAXY_S4_MODEL
        assert model.cpu_mw(1.0) == pytest.approx(model.cpu_max_mw)
        assert model.cpu_mw(0.5) == pytest.approx(model.cpu_max_mw / 8.0)

    def test_clock_validation(self):
        with pytest.raises(ValueError):
            GALAXY_S4_MODEL.cpu_mw(1.5)
        with pytest.raises(ValueError):
            GALAXY_S4_MODEL.gpu_mw(-0.1)

    def test_lte_active_costlier_than_wifi(self):
        model = GALAXY_S4_MODEL
        assert model.radio_mw(Radio.LTE, 1.0, 1.0) > model.radio_mw(Radio.WIFI, 1.0, 1.0)

    def test_lte_idle_cheaper_than_wifi(self):
        # DRX makes LTE idle very cheap; WiFi keeps listening.
        assert LTE_PARAMS.idle_mw < WIFI_PARAMS.idle_mw

    def test_radio_validation(self):
        with pytest.raises(ValueError):
            GALAXY_S4_MODEL.radio_mw(Radio.WIFI, -1.0, 0.5)
        with pytest.raises(ValueError):
            GALAXY_S4_MODEL.radio_mw(Radio.WIFI, 1.0, 1.5)


class TestFigure7:
    def test_all_states_within_10_percent_of_paper(self):
        table = figure7_table()
        for state, (wifi, lte) in table.items():
            paper_wifi, paper_lte = PAPER_FIGURE7_MW[state]
            assert wifi == pytest.approx(paper_wifi, rel=0.10), state
            assert lte == pytest.approx(paper_lte, rel=0.10), state

    def test_ordering_home_lowest(self):
        table = figure7_table()
        home = table[AppState.HOME_SCREEN]
        for state, values in table.items():
            if state != AppState.HOME_SCREEN:
                assert values[0] > home[0]
                assert values[1] > home[1]

    def test_chat_on_dwarfs_chat_off(self):
        table = figure7_table()
        on = table[AppState.VIDEO_HLS_CHAT_ON]
        off = table[AppState.VIDEO_HLS_CHAT_OFF]
        assert on[0] > off[0] + 1000
        assert on[1] > off[1] + 1000

    def test_chat_on_comparable_to_broadcasting(self):
        table = figure7_table()
        chat = table[AppState.VIDEO_HLS_CHAT_ON]
        broadcast = table[AppState.BROADCAST]
        assert chat[0] == pytest.approx(broadcast[0], rel=0.2)

    def test_lte_above_wifi_in_active_states(self):
        table = figure7_table()
        for state in (AppState.APP_ON, AppState.VIDEO_RTMP_CHAT_OFF,
                      AppState.VIDEO_HLS_CHAT_ON, AppState.BROADCAST):
            wifi, lte = table[state]
            assert lte > wifi

    def test_rtmp_vs_hls_difference_small(self):
        # "The power consumption difference of RTMP vs HLS is very small."
        table = figure7_table()
        rtmp = table[AppState.VIDEO_RTMP_CHAT_OFF]
        hls = table[AppState.VIDEO_HLS_CHAT_OFF]
        assert abs(rtmp[0] - hls[0]) < 200
        assert abs(rtmp[1] - hls[1]) < 200

    def test_replay_similar_to_live(self):
        # "Playing back old recorded videos consume an equal amount of
        # power as playing back live videos."
        table = figure7_table()
        replay = table[AppState.VIDEO_NOT_LIVE]
        live = table[AppState.VIDEO_RTMP_CHAT_OFF]
        assert replay[0] == pytest.approx(live[0], rel=0.08)

    def test_chat_boost_mechanism(self):
        on = APP_STATES[AppState.VIDEO_HLS_CHAT_ON]
        off = APP_STATES[AppState.VIDEO_HLS_CHAT_OFF]
        assert on.cpu_clock == pytest.approx(off.cpu_clock * 4 / 3, rel=0.01)
        assert on.throughput_mbps > 5 * off.throughput_mbps


class TestMonsoon:
    def test_average_tracks_model(self):
        monitor = MonsoonMonitor(random.Random(1))
        for state in (AppState.HOME_SCREEN, AppState.VIDEO_HLS_CHAT_ON):
            for radio in Radio:
                measured = monitor.measure_average(state, radio, duration_s=30.0)
                model = state_power_mw(state, radio)
                assert measured == pytest.approx(model, rel=0.08)

    def test_trace_has_noise(self):
        monitor = MonsoonMonitor(random.Random(2))
        trace = monitor.record(AppState.APP_ON, Radio.WIFI, duration_s=5.0)
        values = {round(p) for _, p in trace.samples}
        assert len(values) > 20

    def test_duration_validation(self):
        monitor = MonsoonMonitor(random.Random(5))
        with pytest.raises(ValueError):
            monitor.record(AppState.APP_ON, Radio.WIFI, duration_s=0.0)
