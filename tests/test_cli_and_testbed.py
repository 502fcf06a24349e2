"""Tests for the CLI entry point, the session testbed and StudyConfig."""

import pytest

from repro.core.config import StudyConfig
from repro.core.testbed import (
    DELAY_FLOOR_S,
    SessionTestbed,
    TestbedConfig,
    VIEWER_LOCATION,
    path_delay_s,
)
from repro.experiments.__main__ import DRIVERS, build_parser, main
from repro.netsim.events import EventLoop
from repro.service.geo import GeoPoint


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in DRIVERS:
            assert name in out

    def test_run_table1(self, capsys):
        assert main(["table1", "--seed", "3"]) == 0
        assert "mapGeoBroadcastFeed" in capsys.readouterr().out

    def test_run_fig7(self, capsys):
        assert main(["fig7"]) == 0
        assert "wifi (paper)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--trace-out", "--metrics"])
    def test_pooled_run_notes_what_its_trace_and_profile_omit(
            self, flag, tmp_path, capsys):
        out = tmp_path / "telemetry.out"
        assert main(["fig7", "--workers", "2", flag, str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("record no spans or profiler sites") == 1

    @pytest.mark.parametrize("argv", [
        ["--workers", "1", "--trace-out", "{out}", "--metrics", "{out}"],
        ["--workers", "2", "--health", "{out}"],
    ])
    def test_complete_trace_and_profile_carry_no_note(self, argv, tmp_path, capsys):
        out = str(tmp_path / "telemetry.out")
        assert main(["fig7"] + [arg.format(out=out) for arg in argv]) == 0
        assert "record no spans" not in capsys.readouterr().err

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])


class TestStudyConfig:
    def test_scaled_counts(self):
        config = StudyConfig(scale=0.1)
        assert config.scaled(1000) == 100
        assert config.scaled(3, minimum=5) == 5


class TestPathDelay:
    def test_floor_applies(self):
        assert path_delay_s(VIEWER_LOCATION, VIEWER_LOCATION) == DELAY_FLOOR_S

    def test_monotone_in_distance(self):
        near = GeoPoint(59.0, 24.0)
        far = GeoPoint(-33.9, 151.2)
        assert path_delay_s(VIEWER_LOCATION, far) > path_delay_s(VIEWER_LOCATION, near)


class TestSessionTestbed:
    def make(self):
        loop = EventLoop()
        return loop, SessionTestbed(loop, TestbedConfig())

    def test_servers_and_streams(self):
        loop, tb = self.make()
        tb.add_server("api", GeoPoint(37.8, -122.4))
        stream = tb.stream_to("api")
        assert stream._a_to_b.src is tb.phone

    def test_duplicate_server_rejected(self):
        loop, tb = self.make()
        tb.add_server("api", GeoPoint(37.8, -122.4))
        with pytest.raises(ValueError):
            tb.add_server("api", GeoPoint(0, 0))

    def test_unknown_server_rejected(self):
        loop, tb = self.make()
        with pytest.raises(KeyError):
            tb.stream_to("nope")

    def test_rtt_scales_with_distance(self):
        loop, tb = self.make()
        tb.add_server("near", GeoPoint(60.0, 25.0))
        tb.add_server("far", GeoPoint(-33.9, 151.2))

        def one_way_delay(name):
            forward, _ = tb.server_paths(name)
            return sum(link.delay_s for link in forward.links)

        assert one_way_delay("far") > one_way_delay("near")

    def test_capture_taps_both_directions(self):
        loop, tb = self.make()
        assert tb.down_link._taps == [] and tb.up_link._taps == []
        capture = tb.start_capture()
        assert len(tb.down_link._taps) == len(tb.up_link._taps) == 1
        assert {link.name for link, _ in capture._taps} == {
            "desktop->phone", "phone->desktop"}
