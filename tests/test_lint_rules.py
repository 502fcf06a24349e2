"""Per-rule fixture snippets: each rule fires on its positive example
and stays quiet on the deterministic rewrite."""

import textwrap

from repro.lint import lint_sources


def findings_for(source, path="src/repro/netsim/snippet.py", rules=None):
    return lint_sources({path: textwrap.dedent(source)}, only_rules=rules)


def rule_ids_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------- D101

class TestWallClock:
    def test_time_time_flagged(self):
        findings = findings_for("""
            import time

            def arrival():
                return time.time()
        """, rules=["D101"])
        assert rule_ids_of(findings) == ["D101"]
        assert findings[0].line == 5

    def test_from_import_and_datetime_flagged(self):
        findings = findings_for("""
            from time import perf_counter
            from datetime import datetime

            def snap():
                return perf_counter(), datetime.now()
        """, rules=["D101"])
        assert len(findings) == 2

    def test_module_datetime_flagged(self):
        findings = findings_for("""
            import datetime

            def when():
                return datetime.datetime.utcnow()
        """, rules=["D101"])
        assert rule_ids_of(findings) == ["D101"]

    def test_sim_clock_clean(self):
        findings = findings_for("""
            def arrival(loop):
                return loop.now
        """, rules=["D101"])
        assert findings == []

    def test_obs_and_automation_exempt(self):
        source = """
            import time

            def wall():
                return time.perf_counter()
        """
        for path in ("src/repro/obs/snippet.py",
                     "src/repro/automation/snippet.py"):
            assert findings_for(source, path=path, rules=["D101"]) == []

    def test_tests_are_not_exempt(self):
        findings = findings_for("""
            import time

            def test_x():
                assert time.time() > 0
        """, path="tests/test_snippet.py", rules=["D101"])
        assert rule_ids_of(findings) == ["D101"]


# ---------------------------------------------------------------- D102

class TestGlobalRandom:
    def test_module_call_flagged(self):
        findings = findings_for("""
            import random

            def draw():
                return random.random() + random.choice([1, 2])
        """, rules=["D102"])
        assert len(findings) == 2

    def test_from_import_flagged(self):
        findings = findings_for("""
            from random import shuffle

            def mix(items):
                shuffle(items)
        """, rules=["D102"])
        assert rule_ids_of(findings) == ["D102"]

    def test_instance_method_clean(self):
        findings = findings_for("""
            def draw(rng):
                return rng.random() + rng.choice([1, 2])
        """, rules=["D102"])
        assert findings == []

    def test_util_rng_exempt(self):
        findings = findings_for("""
            import random

            def noise():
                return random.random()
        """, path="src/repro/util/rng.py", rules=["D102"])
        assert findings == []


# ---------------------------------------------------------------- D103

class TestStrayRandomInstance:
    def test_unseeded_flagged_everywhere(self):
        source = """
            import random

            RNG = random.Random()
        """
        for path in ("src/repro/service/snippet.py", "tests/test_snippet.py"):
            findings = findings_for(source, path=path, rules=["D103"])
            assert rule_ids_of(findings) == ["D103"], path

    def test_seeded_flagged_in_src_only(self):
        source = """
            import random

            RNG = random.Random(42)
        """
        assert rule_ids_of(
            findings_for(source, rules=["D103"])
        ) == ["D103"]
        assert findings_for(
            source, path="tests/test_snippet.py", rules=["D103"]
        ) == []

    def test_from_import_class_flagged(self):
        findings = findings_for("""
            from random import Random

            RNG = Random()
        """, rules=["D103"])
        assert rule_ids_of(findings) == ["D103"]

    def test_make_rng_clean(self):
        findings = findings_for("""
            from repro.util.rng import child_rng, make_rng

            def streams(seed):
                return make_rng(seed), child_rng(seed, "netsim")
        """, rules=["D103"])
        assert findings == []


# ---------------------------------------------------------------- D104

class TestSetIteration:
    def test_for_over_set_call_flagged(self):
        findings = findings_for("""
            def drain(items):
                for item in set(items):
                    yield item
        """, rules=["D104"])
        assert rule_ids_of(findings) == ["D104"]

    def test_comprehension_over_set_literal_flagged(self):
        findings = findings_for("""
            def ids():
                return [x for x in {"a", "b"}]
        """, rules=["D104"])
        assert rule_ids_of(findings) == ["D104"]

    def test_list_of_annotated_set_flagged(self):
        findings = findings_for("""
            from typing import Set

            def order(seen: Set[str]):
                return list(seen)
        """, rules=["D104"])
        assert rule_ids_of(findings) == ["D104"]

    def test_sorted_and_membership_clean(self):
        findings = findings_for("""
            from typing import Set

            def order(seen: Set[str], probe: str):
                hits = probe in seen
                return sorted(seen), len(seen), hits
        """, rules=["D104"])
        assert findings == []


# ---------------------------------------------------------------- D105

class TestHermeticPath:
    def test_environ_and_open_flagged_in_netsim(self):
        findings = findings_for("""
            import os

            def load(path):
                mode = os.environ["MODE"]
                tz = os.getenv("TZ")
                with open(path) as handle:
                    return handle.read(), mode, tz
        """, rules=["D105"])
        assert len(findings) == 3

    def test_experiments_may_do_io(self):
        findings = findings_for("""
            import os

            def load(path):
                with open(path) as handle:
                    return handle.read(), os.getenv("TZ")
        """, path="src/repro/experiments/snippet.py", rules=["D105"])
        assert findings == []


# ---------------------------------------------------------------- O201/O202

class TestObsPurity:
    def test_obs_importing_sim_flagged(self):
        findings = findings_for("""
            from repro.netsim.link import BottleneckLink
        """, path="src/repro/obs/snippet.py", rules=["O201"])
        assert rule_ids_of(findings) == ["O201"]

    def test_obs_importing_util_clean(self):
        findings = findings_for("""
            from repro.util.tables import render_table
            from repro.obs.metrics import Counter
        """, path="src/repro/obs/snippet.py", rules=["O201"])
        assert findings == []

    def test_obs_importing_rng_flagged_even_deferred(self):
        findings = findings_for("""
            def sneak():
                from repro.util.rng import make_rng
                return make_rng(0)
        """, path="src/repro/obs/snippet.py", rules=["O202"])
        assert rule_ids_of(findings) == ["O202"]

    def test_obs_importing_events_flagged(self):
        findings = findings_for("""
            from repro.netsim.events import EventLoop
        """, path="src/repro/obs/snippet.py", rules=["O202"])
        assert "O202" in rule_ids_of(findings)


# ---------------------------------------------------------------- O203

class TestInstrumentationGuard:
    def test_chained_active_flagged(self):
        findings = findings_for("""
            from repro import obs

            def record(value):
                obs.active().metrics.counter("x", "help").inc()
        """, rules=["O203"])
        assert rule_ids_of(findings) == ["O203"]

    def test_unguarded_handle_flagged(self):
        findings = findings_for("""
            from repro import obs

            def record(value):
                telemetry = obs.active()
                telemetry.metrics.counter("x", "help").inc(value)
        """, rules=["O203"])
        assert rule_ids_of(findings) == ["O203"]

    def test_guarded_handle_clean(self):
        findings = findings_for("""
            from repro import obs

            def record(value):
                telemetry = obs.active()
                if telemetry.enabled and telemetry.metrics_on:
                    telemetry.metrics.counter("x", "help").inc(value)
        """, rules=["O203"])
        assert findings == []

    def test_unguarded_causes_surface_flagged(self):
        findings = findings_for("""
            from repro import obs

            def record(delay):
                telemetry = obs.active()
                telemetry.causes.add("link.queue", delay)
        """, rules=["O203"])
        assert rule_ids_of(findings) == ["O203"]

    def test_causes_guarded_by_causes_on_clean(self):
        findings = findings_for("""
            from repro import obs

            def record(delay):
                telemetry = obs.active()
                if telemetry.enabled and telemetry.causes_on:
                    telemetry.causes.add("link.queue", delay)
        """, rules=["O203"])
        assert findings == []

    def test_health_guarded_by_health_on_clean(self):
        findings = findings_for("""
            from repro import obs

            def record(level):
                telemetry = obs.active()
                if telemetry.enabled and telemetry.health_on:
                    telemetry.health.check("player.buffer_nonnegative", level >= 0)
        """, rules=["O203"])
        assert findings == []


# ---------------------------------------------------------------- O204

class TestCauseTaxonomy:
    GUARDED = """
        from repro import obs

        def record(delay):
            telemetry = obs.active()
            if telemetry.enabled and telemetry.causes_on:
                telemetry.causes.add({tag}, delay)
    """

    def test_taxonomy_tag_clean(self):
        source = self.GUARDED.format(tag='"link.loss_recovery"')
        assert findings_for(source, rules=["O204"]) == []

    def test_off_taxonomy_tag_flagged(self):
        source = self.GUARDED.format(tag='"link.gremlins"')
        findings = findings_for(source, rules=["O204"])
        assert rule_ids_of(findings) == ["O204"]
        assert "link.gremlins" in findings[0].message

    def test_dynamic_tag_flagged(self):
        source = self.GUARDED.format(tag='f"link.{kind}"')
        findings = findings_for(source, rules=["O204"])
        assert rule_ids_of(findings) == ["O204"]

    def test_aliased_collector_checked(self):
        findings = findings_for("""
            from repro import obs

            def record(delay):
                telemetry = obs.active()
                if telemetry.enabled and telemetry.causes_on:
                    causes = telemetry.causes
                    causes.add("not.a.cause", delay)
        """, rules=["O204"])
        assert rule_ids_of(findings) == ["O204"]

    def test_outside_sim_packages_ignored(self):
        source = self.GUARDED.format(tag='"whatever.i.like"')
        findings = findings_for(
            source, path="src/repro/analysis/snippet.py", rules=["O204"]
        )
        assert findings == []

    def test_unrelated_add_calls_clean(self):
        findings = findings_for("""
            def collect(items):
                seen = set()
                for item in items:
                    seen.add(item)
                return seen
        """, rules=["O204"])
        assert findings == []


# ---------------------------------------------------------------- L301/L302

class TestLayering:
    def test_netsim_importing_service_rejected(self):
        # The acceptance-criterion case: a synthetic upward import.
        findings = lint_sources({
            "src/repro/netsim/bad.py":
                "from repro.service.api import ApiServer\n",
        }, only_rules=["L301"])
        assert rule_ids_of(findings) == ["L301"]
        assert "upward import" in findings[0].message

    def test_downward_import_clean(self):
        findings = lint_sources({
            "src/repro/service/fine.py":
                "from repro.netsim.events import EventLoop\n",
        }, only_rules=["L301"])
        assert findings == []

    def test_type_checking_import_exempt(self):
        findings = lint_sources({
            "src/repro/netsim/hints.py": textwrap.dedent("""
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.service.api import ApiServer
            """),
        }, only_rules=["L301"])
        assert findings == []

    def test_deferred_import_exempt(self):
        findings = lint_sources({
            "src/repro/netsim/lazy.py": textwrap.dedent("""
                def escape_hatch():
                    from repro.service.api import ApiServer
                    return ApiServer
            """),
        }, only_rules=["L301"])
        assert findings == []

    def test_cycle_detected(self):
        findings = lint_sources({
            "src/repro/media/alpha.py": "from repro.media.beta import B\n",
            "src/repro/media/beta.py": "from repro.media.alpha import A\n",
        }, only_rules=["L302"])
        assert rule_ids_of(findings) == ["L302"]
        assert len(findings) == 2  # one per cycle member

    def test_undeclared_package_flagged(self):
        findings = lint_sources({
            "src/repro/mystery/__init__.py": "X = 1\n",
        }, only_rules=["L303"])
        assert rule_ids_of(findings) == ["L303"]

    def test_world_may_import_service(self):
        # The mesoscale layer sits above the simulated backend…
        findings = lint_sources({
            "src/repro/world/snippet.py":
                "from repro.service.broadcast import Broadcast\n",
        }, only_rules=["L301"])
        assert findings == []

    def test_world_importing_core_rejected(self):
        # …but below study orchestration: full-fidelity expansion is
        # injected as a callable, never imported upward.
        findings = lint_sources({
            "src/repro/world/snippet.py":
                "from repro.core.session import SessionSetup\n",
        }, only_rules=["L301"])
        assert rule_ids_of(findings) == ["L301"]
        assert "upward import" in findings[0].message

    def test_world_is_declared(self):
        findings = lint_sources({
            "src/repro/world/__init__.py": "X = 1\n",
        }, only_rules=["L303"])
        assert findings == []


# ---------------------------------------------------------------- L304

class TestProcessPoolConfinement:
    def test_pool_import_outside_parallel_flagged(self):
        findings = lint_sources({
            "src/repro/core/sneaky.py":
                "from concurrent.futures import ProcessPoolExecutor\n",
        }, only_rules=["L304"])
        assert rule_ids_of(findings) == ["L304"]

    def test_multiprocessing_flagged_even_deferred(self):
        findings = lint_sources({
            "src/repro/service/snippet.py": textwrap.dedent("""
                def fan_out():
                    import multiprocessing.pool
                    return multiprocessing.pool.Pool()
            """),
        }, only_rules=["L304"])
        assert rule_ids_of(findings) == ["L304"]

    def test_declared_parallel_module_exempt(self):
        findings = lint_sources({
            "src/repro/core/parallel.py": textwrap.dedent("""
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor
            """),
        }, only_rules=["L304"])
        assert findings == []

    def test_world_shard_module_flagged(self):
        # Shards are fanned out by core.popstudy over core.parallel's
        # pool; the shard module itself defines the unit only.
        findings = lint_sources({
            "src/repro/world/shards.py":
                "from concurrent.futures import ProcessPoolExecutor\n",
        }, only_rules=["L304"])
        assert rule_ids_of(findings) == ["L304"]

    def test_other_world_module_flagged(self):
        # The mesoscale layer stays pool-free.
        findings = lint_sources({
            "src/repro/world/cohorts.py":
                "from concurrent.futures import ProcessPoolExecutor\n",
        }, only_rules=["L304"])
        assert rule_ids_of(findings) == ["L304"]

    def test_outside_repro_clean(self):
        findings = lint_sources({
            "tools/snippet.py":
                "from concurrent.futures import ProcessPoolExecutor\n",
        }, only_rules=["L304"])
        assert findings == []


# ---------------------------------------------------------------- F401/F402

class TestFloatDiscipline:
    def test_time_equality_flagged(self):
        findings = findings_for("""
            def underrun(now, deadline):
                return now == deadline
        """, rules=["F401"])
        assert rule_ids_of(findings) == ["F401"]

    def test_time_vs_fraction_flagged(self):
        findings = findings_for("""
            def check(queued_at):
                return queued_at != 0.5
        """, rules=["F401"])
        assert rule_ids_of(findings) == ["F401"]

    def test_sentinel_and_tolerance_clean(self):
        findings = findings_for("""
            def check(duration_s, now, deadline):
                if duration_s == 0:
                    return True
                return abs(now - deadline) < 1e-9
        """, rules=["F401"])
        assert findings == []

    def test_outside_sim_packages_clean(self):
        findings = findings_for("""
            def check(now, deadline):
                return now == deadline
        """, path="src/repro/analysis/snippet.py", rules=["F401"])
        assert findings == []

    def test_accumulated_schedule_at_flagged(self):
        findings = findings_for("""
            def emit(loop, step, fire):
                t = 0.0
                for _ in range(10):
                    t += step
                    loop.schedule_at(t, fire)
        """, rules=["F402"])
        assert rule_ids_of(findings) == ["F402"]

    def test_multiplied_times_clean(self):
        findings = findings_for("""
            def emit(loop, start, step, fire):
                for index in range(10):
                    loop.schedule_at(start + index * step, fire)
        """, rules=["F402"])
        assert findings == []

    def test_integer_counter_clean(self):
        findings = findings_for("""
            def emit(loop, fire):
                count = 0
                for _ in range(10):
                    count += 1
                    loop.schedule_at(10.0, fire)
        """, rules=["F402"])
        assert findings == []


# ---------------------------------------------------------------- F403

class TestBandwidthLimitEquality:
    def test_attribute_equality_flagged(self):
        findings = findings_for("""
            def by_limit(sessions, limit):
                return [s for s in sessions
                        if s.bandwidth_limit_mbps == limit]
        """, path="src/repro/core/snippet.py", rules=["F403"])
        assert rule_ids_of(findings) == ["F403"]

    def test_mbps_name_inequality_flagged(self):
        findings = findings_for("""
            def changed(old_mbps, new_mbps):
                return old_mbps != new_mbps
        """, path="src/repro/core/snippet.py", rules=["F403"])
        assert rule_ids_of(findings) == ["F403"]

    def test_isclose_clean(self):
        findings = findings_for("""
            import math

            def by_limit(sessions, limit):
                return [s for s in sessions
                        if math.isclose(s.bandwidth_limit_mbps, limit)]
        """, path="src/repro/core/snippet.py", rules=["F403"])
        assert findings == []

    def test_sentinel_literals_exempt(self):
        findings = findings_for("""
            def unshaped(nominal_mbps, limit_mbps):
                return nominal_mbps == 0.0 or limit_mbps == 100
        """, path="src/repro/core/snippet.py", rules=["F403"])
        assert findings == []

    def test_outside_sim_packages_clean(self):
        findings = findings_for("""
            def check(limit_mbps, other_mbps):
                return limit_mbps == other_mbps
        """, path="src/repro/analysis/snippet.py", rules=["F403"])
        assert findings == []


# ---------------------------------------------------------------- registry

def test_rule_catalogue_covers_every_family():
    from repro.lint import iter_rule_metadata, rule_ids

    ids = rule_ids()
    for family in "DOLF":
        assert any(rule_id.startswith(family) for rule_id in ids), family
    metadata = list(iter_rule_metadata())
    assert len(metadata) == len(ids)
    assert all(meta["description"] for meta in metadata)
