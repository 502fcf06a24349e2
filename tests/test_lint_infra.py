"""Linter infrastructure: pragmas and the shared file discovery."""

import os
import textwrap

from repro.lint import discover_files, lint_sources, run_lint


# ---------------------------------------------------------------- pragmas

class TestPragmas:
    def test_pragma_suppresses_named_rule(self):
        source = textwrap.dedent("""
            import time

            def arrival():
                return time.time()  # lint: disable=D101
        """)
        findings = lint_sources(
            {"src/repro/netsim/snippet.py": source}, only_rules=["D101"]
        )
        assert findings == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = textwrap.dedent("""
            import time

            def arrival():
                return time.time()  # lint: disable=D102
        """)
        findings = lint_sources(
            {"src/repro/netsim/snippet.py": source}, only_rules=["D101"]
        )
        assert [f.rule for f in findings] == ["D101"]

    def test_disable_all_and_multi_rule_lists(self):
        source = textwrap.dedent("""
            import time, random

            def draw():
                return time.time() and random.random()  # lint: disable=D101,D102

            def both():
                return time.time() and random.random()  # lint: disable=all
        """)
        findings = lint_sources({"src/repro/netsim/snippet.py": source})
        assert findings == []

    def test_pragma_only_covers_its_own_line(self):
        source = textwrap.dedent("""
            import time  # lint: disable=D101

            def arrival():
                return time.time()
        """)
        findings = lint_sources(
            {"src/repro/netsim/snippet.py": source}, only_rules=["D101"]
        )
        assert [f.rule for f in findings] == ["D101"]


# ---------------------------------------------------------------- discovery

class TestDiscovery:
    def _make_tree(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        pkg = tmp_path / "src" / "repro" / "netsim"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("X = 1\n")
        cache = pkg / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-312.py").write_text("X = 1\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text("def test(): pass\n")
        fixtures = tests / "fixtures"
        fixtures.mkdir()
        (fixtures / "bad_snippet.py").write_text("import time\ntime.time()\n")
        (tests / "generated_pb2.py").write_text(
            "# @generated by protoc\nX = 1\n"
        )
        (tests / "notes.txt").write_text("not python\n")
        return tmp_path

    def test_skips_pycache_fixtures_and_generated(self, tmp_path):
        root = self._make_tree(tmp_path)
        files = discover_files(str(root))
        assert files == ["src/repro/netsim/mod.py", "tests/test_mod.py"]

    def test_cli_and_pytest_agree_on_discovery(self, tmp_path):
        """The meta-test and ``python -m repro.lint`` share one discovery
        function, so their file sets are identical by construction —
        this pins the contract."""
        root = self._make_tree(tmp_path)
        result = run_lint(root=str(root))
        assert result.files == discover_files(str(root))

    def test_single_file_root(self, tmp_path):
        root = self._make_tree(tmp_path)
        files = discover_files(str(root), ["src/repro/netsim/mod.py"])
        assert files == ["src/repro/netsim/mod.py"]


# ---------------------------------------------------------------- meta

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestShippedTree:
    def test_shipped_tree_is_lint_clean(self):
        """The tier-1 CI gate: src/repro + tests must produce zero
        findings."""
        result = run_lint(root=REPO_ROOT)
        formatted = "\n".join(
            f"{f.location()}: {f.rule} {f.message}" for f in result.findings
        )
        assert result.ok, f"lint findings:\n{formatted}"
        assert len(result.files) > 100  # sanity: the whole tree was seen
