"""Positive + negative fixtures for the flow-sensitive rule families:
U (units/dimensions) and R (RNG taint).

Every rule id gets at least one source that must fire it and one
adjacent-but-legitimate source that must stay silent — the silence
tests are what keep the analyses conservative.
"""

import textwrap

from repro.lint import lint_sources

SNIPPET = "src/repro/netsim/snippet.py"


def rules_fired(source, only, path=SNIPPET):
    findings = lint_sources({path: textwrap.dedent(source)}, only_rules=only)
    return [f.rule for f in findings]


# ------------------------------------------------------------------ U501

class TestIncompatibleDimensions:
    def test_seconds_plus_bytes_fires(self):
        assert rules_fired("""
            def total(delay_s, frame_bytes):
                return delay_s + frame_bytes
        """, ["U501"]) == ["U501"]

    def test_flows_through_assignment(self):
        # No single line mixes suffixes; the mix only exists flow-wise.
        assert rules_fired("""
            def total(t1_at, t0_at, wire_bytes):
                d = t1_at - t0_at
                return d + wire_bytes
        """, ["U501"]) == ["U501"]

    def test_comparison_mixing_fires(self):
        assert rules_fired("""
            def late(delay_s, n_bytes):
                return delay_s < n_bytes
        """, ["U501"]) == ["U501"]

    def test_scalar_literal_is_compatible(self):
        assert rules_fired("""
            def pad(delay_s):
                return delay_s + 3.0
        """, ["U501"]) == []

    def test_unknown_dimension_stays_silent(self):
        assert rules_fired("""
            def mix(delay_s, thing):
                return delay_s + thing
        """, ["U501"]) == []


# ------------------------------------------------------------------ U502

class TestTimestampArithmetic:
    def test_adding_two_timestamps_fires(self):
        assert rules_fired("""
            def midpoint(start_at, end_at):
                return start_at + end_at
        """, ["U502"]) == ["U502"]

    def test_multiplying_two_timestamps_fires(self):
        assert rules_fired("""
            def nonsense(start_at, end_at):
                return start_at * end_at
        """, ["U502"]) == ["U502"]

    def test_subtracting_timestamps_is_fine(self):
        assert rules_fired("""
            def span_s(start_at, end_at):
                return end_at - start_at
        """, ["U502"]) == []

    def test_timestamp_plus_duration_is_fine(self):
        assert rules_fired("""
            def deadline(now, timeout_s):
                return now + timeout_s
        """, ["U502"]) == []


# ------------------------------------------------------------------ U503

class TestReturnDimension:
    def test_bps_function_returning_bytes_fires(self):
        assert rules_fired("""
            def rate_bps(record):
                return record.wire_bytes
        """, ["U503"]) == ["U503"]

    def test_correct_rate_computation_is_fine(self):
        assert rules_fired("""
            def rate_bps(wire_bytes, span_s):
                return wire_bytes * 8.0 / span_s
        """, ["U503"]) == []

    def test_duration_function_returning_difference_is_fine(self):
        assert rules_fired("""
            def elapsed_s(start_at, end_at):
                return end_at - start_at
        """, ["U503"]) == []


# ------------------------------------------------------------------ U504

class TestByteBitConversion:
    def test_bytes_divided_by_bps_fires(self):
        assert rules_fired("""
            def tx_time(wire_bytes, rate_bps):
                return wire_bytes / rate_bps
        """, ["U504"]) == ["U504"]

    def test_bytes_per_second_stored_in_bps_name_fires(self):
        assert rules_fired("""
            def throughput(total_bytes, span_s):
                goodput_bps = total_bytes / span_s
                return goodput_bps
        """, ["U504"]) == ["U504"]

    def test_with_conversion_is_fine(self):
        assert rules_fired("""
            def tx_time_s(wire_bytes, rate_bps):
                return wire_bytes * 8.0 / rate_bps
        """, ["U503", "U504"]) == []

    def test_helper_conversion_is_fine(self):
        assert rules_fired("""
            from repro.util.units import bytes_to_bits

            def tx_time_s(wire_bytes, rate_bps):
                return bytes_to_bits(wire_bytes) / rate_bps
        """, ["U503", "U504"]) == []


# ------------------------------------------------------------------ U505

class TestDeclaredDimensionAssignment:
    def test_bytes_into_seconds_name_fires(self):
        assert rules_fired("""
            def stash(frame_bytes):
                timeout_s = frame_bytes
                return timeout_s
        """, ["U505"]) == ["U505"]

    def test_keyword_argument_mismatch_fires(self):
        assert rules_fired("""
            def call(setup, frame_bytes):
                setup(watch_seconds=frame_bytes)
        """, ["U505"]) == ["U505"]

    def test_literal_assignment_is_fine(self):
        assert rules_fired("""
            def config():
                timeout_s = 5.0
                return timeout_s
        """, ["U505"]) == []

    def test_timestamp_into_seconds_name_is_fine(self):
        # start_s = loop.now is idiomatic: timestamps are seconds-valued.
        assert rules_fired("""
            def mark(now):
                start_s = now
                return start_s
        """, ["U505"]) == []


# ------------------------------------------------------------------ R601

class TestRngReseed:
    def test_reseeding_derived_stream_fires(self):
        assert rules_fired("""
            def jitter(rng):
                rng.seed(42)
                return rng.random()
        """, ["R601"]) == ["R601"]

    def test_setstate_fires(self):
        assert rules_fired("""
            def rewind(rng, snapshot):
                rng.setstate(snapshot)
        """, ["R601"]) == ["R601"]

    def test_flows_through_assignment(self):
        assert rules_fired("""
            from repro.util.rng import child_rng

            def jitter(seed):
                stream = child_rng(seed, "jitter")
                stream.seed(0)
        """, ["R601"]) == ["R601"]

    def test_plain_draw_is_fine(self):
        assert rules_fired("""
            def jitter(rng):
                return rng.random()
        """, ["R601"]) == []

    def test_rng_module_itself_is_exempt(self):
        assert rules_fired("""
            def make(seed):
                import random
                rng = random.Random()
                rng.seed(seed)
                return rng
        """, ["R601"], path="src/repro/util/rng.py") == []


# ------------------------------------------------------------------ R602

class TestTelemetryGatedDraw:
    def test_draw_under_metrics_flag_fires(self):
        assert rules_fired("""
            def sample(rng, metrics_enabled):
                if metrics_enabled:
                    return rng.random()
                return 0.0
        """, ["R602"]) == ["R602"]

    def test_draw_in_else_branch_fires(self):
        assert rules_fired("""
            def sample(rng, telemetry):
                if telemetry.enabled:
                    x = 0.0
                else:
                    x = rng.gauss(0.0, 1.0)
                return x
        """, ["R602"]) == ["R602"]

    def test_unconditional_draw_is_fine(self):
        assert rules_fired("""
            def sample(rng, metrics_enabled):
                x = rng.random()
                if metrics_enabled:
                    record(x)
                return x
        """, ["R602"]) == []

    def test_non_telemetry_guard_is_fine(self):
        assert rules_fired("""
            def sample(rng, loss_enabled):
                if loss_enabled:
                    return rng.random()
                return 0.0
        """, ["R602"]) == []


# ------------------------------------------------------------------ R603

class TestRngGlobalEscape:
    def test_module_level_rng_fires(self):
        assert rules_fired("""
            from repro.util.rng import make_rng

            SHARED = make_rng(7)
        """, ["R603"]) == ["R603"]

    def test_global_statement_escape_fires(self):
        assert rules_fired("""
            from repro.util.rng import child_rng

            _stream = None

            def setup(seed):
                global _stream
                _stream = child_rng(seed, "hidden")
        """, ["R603"]) == ["R603"]

    def test_local_stream_is_fine(self):
        assert rules_fired("""
            from repro.util.rng import child_rng

            def setup(seed):
                stream = child_rng(seed, "local")
                return stream
        """, ["R603"]) == []


# ------------------------------------------- genuine-violation regression

class TestSec51ChatRegression:
    def test_unsuffixed_duration_denominator_fires(self):
        """The exact pattern experiments/sec51_chat.py shipped before the
        fix: a unit-opaque ``watch = 60.0`` denominator made the kbps
        keyword arguments infer as bits, and let the session's watch
        window drift apart from the bitrate denominator unnoticed."""
        assert rules_fired("""
            def run(make_result, total_down_bytes):
                watch = 60.0
                return make_result(chat_off_bps=total_down_bytes * 8.0 / watch)
        """, ["U505"]) == ["U505"]

    def test_fixed_pattern_is_clean(self):
        assert rules_fired("""
            WATCH_SECONDS = 60.0

            def run(make_result, total_down_bytes):
                watch_s = WATCH_SECONDS
                return make_result(chat_off_bps=total_down_bytes * 8.0 / watch_s)
        """, ["U501", "U504", "U505"]) == []

    def test_shipped_module_is_clean(self):
        import os
        from repro.lint import find_repo_root
        root = find_repo_root()
        path = os.path.join(root, "src", "repro", "experiments", "sec51_chat.py")
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings = lint_sources(
            {"src/repro/experiments/sec51_chat.py": source},
            only_rules=["U501", "U502", "U503", "U504", "U505"],
        )
        assert findings == []
