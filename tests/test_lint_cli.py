"""The ``python -m repro.lint`` CLI: exit codes, output formats, the
line pragma, and the seeded-violation acceptance check."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def mini_repo(tmp_path):
    """A tiny checkout with one hermetic netsim module."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'mini'\n")
    pkg = tmp_path / "src" / "repro" / "netsim"
    pkg.mkdir(parents=True)
    (pkg / "link.py").write_text(textwrap.dedent("""
        def transit(loop, delay):
            return loop.now + delay
    """))
    (tmp_path / "tests").mkdir()
    return tmp_path


def seed_violation(mini_repo):
    (mini_repo / "src" / "repro" / "netsim" / "link.py").write_text(
        textwrap.dedent("""
            import time

            def transit(loop, delay):
                return time.time() + delay
        """)
    )


def test_clean_tree_exits_zero(mini_repo):
    proc = run_cli("--root", str(mini_repo))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_seeded_violation_exits_nonzero(mini_repo):
    seed_violation(mini_repo)
    proc = run_cli("--root", str(mini_repo))
    assert proc.returncode == 1
    assert "D101" in proc.stdout


def test_json_format_schema(mini_repo):
    seed_violation(mini_repo)
    proc = run_cli("--root", str(mini_repo), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == 2
    assert payload["ok"] is False
    assert payload["counts"] == {"findings": 1, "suppressed": 0}
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "D101"
    assert finding["path"] == "src/repro/netsim/link.py"


def test_pragma_silences_seeded_violation(mini_repo):
    (mini_repo / "src" / "repro" / "netsim" / "link.py").write_text(
        textwrap.dedent("""
            import time

            def transit(loop, delay):
                return time.time() + delay  # lint: disable=D101
        """)
    )
    proc = run_cli("--root", str(mini_repo))
    assert proc.returncode == 0
    assert "1 suppressed by pragma" in proc.stdout


def test_list_rules(mini_repo):
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()
              if line and not line[0].isspace()]
    assert listed == [
        "D101", "D102", "D103", "D104", "D105",
        "F401", "F402", "F403",
        "L301", "L302", "L303", "L304",
        "O201", "O202", "O203", "O204",
        "R601", "R602", "R603",
        "U501", "U502", "U503", "U504", "U505",
    ]


def test_explicit_path_argument(mini_repo):
    seed_violation(mini_repo)
    proc = run_cli("--root", str(mini_repo), "src/repro/netsim/link.py")
    assert proc.returncode == 1
    proc = run_cli("--root", str(mini_repo), "tests")
    assert proc.returncode == 0


def test_real_repo_cli_is_clean():
    """Acceptance criterion: python -m repro.lint exits 0 on the tree."""
    proc = run_cli("--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["counts"]["findings"] == 0


# ---------------------------------------------------------------- sarif

_SARIF_LEVELS = {"none", "note", "warning", "error"}


def _assert_valid_sarif(payload):
    """Structural check against the SARIF 2.1.0 schema subset we emit."""
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0.json" in payload["$schema"]
    assert isinstance(payload["runs"], list) and payload["runs"]
    for run in payload["runs"]:
        driver = run["tool"]["driver"]
        assert driver["name"]
        rule_ids = []
        for rule in driver.get("rules", []):
            assert rule["id"]
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in _SARIF_LEVELS
            rule_ids.append(rule["id"])
        assert len(rule_ids) == len(set(rule_ids))
        for result in run.get("results", []):
            assert result["message"]["text"]
            assert result["level"] in _SARIF_LEVELS
            if "ruleIndex" in result:
                assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            for location in result.get("locations", []):
                physical = location["physicalLocation"]
                assert physical["artifactLocation"]["uri"]
                assert physical["region"]["startLine"] >= 1


def test_sarif_format_is_structurally_valid(mini_repo):
    seed_violation(mini_repo)
    proc = run_cli("--root", str(mini_repo), "--format", "sarif")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    _assert_valid_sarif(payload)
    results = payload["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["D101"]
    assert set(results[0]) == {"ruleId", "ruleIndex", "level", "message",
                               "locations"}
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/netsim/link.py"


def test_sarif_round_trips_json_findings(mini_repo):
    """Acceptance criterion: SARIF carries the same findings as
    --format json."""
    seed_violation(mini_repo)
    (mini_repo / "src" / "repro" / "netsim" / "extra.py").write_text(
        "def tx(wire_bytes, rate_bps):\n    return wire_bytes / rate_bps\n"
    )
    json_proc = run_cli("--root", str(mini_repo), "--format", "json")
    sarif_proc = run_cli("--root", str(mini_repo), "--format", "sarif")
    json_payload = json.loads(json_proc.stdout)
    sarif_payload = json.loads(sarif_proc.stdout)
    _assert_valid_sarif(sarif_payload)

    json_view = {
        (f["rule"], f["path"], f["line"], f["col"] + 1)
        for f in json_payload["findings"]
    }
    sarif_view = {
        (
            r["ruleId"],
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            r["locations"][0]["physicalLocation"]["region"]["startLine"],
            r["locations"][0]["physicalLocation"]["region"]["startColumn"],
        )
        for r in sarif_payload["runs"][0]["results"]
    }
    assert json_view == sarif_view
    assert len(json_view) == 2  # D101 + U504


def test_output_flag_writes_file(mini_repo):
    seed_violation(mini_repo)
    out = mini_repo / "lint.sarif"
    proc = run_cli("--root", str(mini_repo), "--format", "sarif",
                   "--output", str(out))
    assert proc.returncode == 1  # exit code still reflects findings
    assert proc.stdout == ""
    _assert_valid_sarif(json.loads(out.read_text()))
