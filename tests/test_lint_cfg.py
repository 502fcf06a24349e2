"""The dataflow engine never takes the linter down.

CFG construction and the two flow analyses run over every construct
Python can throw at them — the whole shipped tree plus a torture
fixture — and must finish without raising.  Also pins the single-parse
/ single-CFG-build contract: one ``ast.parse`` and one CFG build per
file per lint run, shared across all rule families.
"""

import ast
import sys
import textwrap

import pytest

from repro.lint import discover_files, find_repo_root, lint_sources
from repro.lint.cfg import build_module_cfgs
from repro.lint.dataflow import ForwardAnalysis, flow_findings
from repro.lint.modinfo import parse_module
from repro.lint import rules_rng, rules_units

FAMILIES = (rules_units.check_units, rules_rng.check_rng)

TORTURE = textwrap.dedent('''
    """Every awkward construct in one file."""

    import contextlib

    CONSTANT = [x * 2 for x in range(4)]


    def walrus(values):
        total = 0
        while (chunk := values.pop()) is not None:
            total += chunk
            if (n := len(values)) == 0:
                break
        else:
            total = -1
        return total, locals().get("n")


    def try_everything(path):
        handle = None
        try:
            handle = open(path)
            for line in handle:
                if not line:
                    continue
                yield line
        except OSError as error:
            raise RuntimeError("boom") from error
        except (ValueError, KeyError):
            pass
        else:
            yield "clean"
        finally:
            if handle is not None:
                handle.close()


    async def gather(sources):
        async with contextlib.AsyncExitStack() as stack:
            results = [item async for source in sources
                       for item in source if item]
            await stack.aclose()
        return results


    def nested_comprehensions(grid):
        return {
            row: [cell ** 2 for cell in cells if cell]
            for row, cells in enumerate(grid)
            if any(c > 0 for c in cells)
        }


    def closures(seed):
        def inner(offset, *, scale=2):
            nonlocal seed
            seed += offset
            return seed * scale
        return [inner, lambda q: inner(q) + seed]


    class Widget:
        kind = "widget"

        def __init__(self, delay_s=0.0):
            self.delay_s = delay_s

        @property
        def doubled(self):
            return self.delay_s * 2


    def unreachable(flag):
        if flag:
            return 1
        return 2
        print("never")  # noqa: intentional dead code


    def star_targets(pairs):
        (first, *rest), last = pairs, None
        del last
        return first, rest
''')

TORTURE_MATCH = textwrap.dedent('''
    def dispatch(event):
        match event:
            case {"kind": "join", "delay_s": d} if d > 0:
                return d
            case [first, *rest]:
                return len(rest)
            case str() as name:
                return name
            case _:
                return None
''')


def _run_all_analyses(module):
    for family in FAMILIES:
        flow_findings(module, family)


class TestTorture:
    def test_cfg_and_analyses_survive_torture(self):
        module = parse_module("src/repro/netsim/torture.py", TORTURE)
        cfgs = module.function_cfgs()
        assert any(cfg.name == "<module>" for cfg in cfgs)
        assert any(cfg.name == "walrus" for cfg in cfgs)
        assert any(cfg.name == "inner" for cfg in cfgs)
        for cfg in cfgs:
            assert cfg.blocks
            assert cfg.entry in cfg.blocks and cfg.exit in cfg.blocks
            reachable = cfg.reachable_blocks()
            assert cfg.entry in reachable
        _run_all_analyses(module)

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="match statements need Python 3.10")
    def test_match_statement_survives(self):
        module = parse_module("src/repro/netsim/torture_match.py", TORTURE_MATCH)
        assert module.function_cfgs()
        _run_all_analyses(module)

    def test_lint_sources_on_torture_raises_nothing(self):
        # Full pipeline, every rule family enabled.
        lint_sources({"src/repro/netsim/torture.py": TORTURE})

    def test_fixpoint_terminates_on_pathological_loop(self):
        source = textwrap.dedent("""
            def churn(n, delay_s, size_bytes):
                x = delay_s
                for _ in range(n):
                    for _ in range(n):
                        while n:
                            x = size_bytes if n else x
                return x
        """)
        lint_sources({"src/repro/netsim/loops.py": source})


class TestWholeRepo:
    def test_engine_survives_every_shipped_file(self):
        root = find_repo_root()
        for rel_path in discover_files(root):
            with open(f"{root}/{rel_path}", "r", encoding="utf-8") as handle:
                source = handle.read()
            module = parse_module(rel_path, source)
            cfgs = module.function_cfgs()
            for cfg in cfgs:
                assert cfg.entry in cfg.blocks and cfg.exit in cfg.blocks
            _run_all_analyses(module)


class TestSingleParse:
    def test_each_file_parsed_once_across_all_rule_families(self, monkeypatch):
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename") or "<anon>")
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        sources = {
            f"src/repro/netsim/mod{i}.py": (
                "def f(delay_s, frame_bytes):\n"
                "    return delay_s + frame_bytes\n"
            )
            for i in range(3)
        }
        findings = lint_sources(sources)  # every registered rule
        assert len(parsed) == len(sources)
        assert sorted(parsed) == sorted(sources)
        assert [f.rule for f in findings] == ["U501"] * 3

    def test_cfgs_built_once_and_shared(self, monkeypatch):
        import repro.lint.cfg as cfg_mod
        builds = []
        real_build = cfg_mod.build_module_cfgs

        def counting_build(tree):
            builds.append(tree)
            return real_build(tree)

        monkeypatch.setattr(cfg_mod, "build_module_cfgs", counting_build)
        sources = {
            "src/repro/netsim/one.py": "def f(rng):\n    return rng.random()\n",
            "src/repro/netsim/two.py": "def g(pool, xs):\n    return pool.map(len, xs)\n",
        }
        lint_sources(sources)  # the U and R families both need CFGs
        assert len(builds) == len(sources)

    def test_family_analyses_are_memoized_per_module(self, monkeypatch):
        solved = []
        real_solve = ForwardAnalysis.solve

        def counting_solve(analysis, cfg):
            solved.append((type(analysis).__name__, cfg.name))
            return real_solve(analysis, cfg)

        monkeypatch.setattr(ForwardAnalysis, "solve", counting_solve)
        module = parse_module(
            "src/repro/netsim/memo.py",
            "def f(delay_s, frame_bytes):\n    return delay_s + frame_bytes\n",
        )
        for family in FAMILIES:
            first = flow_findings(module, family)
            assert flow_findings(module, family) is first
        # One fixpoint per family per CFG (the module body and ``f``).
        assert sorted(solved) == [
            ("DimensionAnalysis", "<module>"), ("DimensionAnalysis", "f"),
            ("RngTaintAnalysis", "<module>"), ("RngTaintAnalysis", "f"),
        ]


class TestDataflowContract:
    def test_solver_visits_every_reachable_block(self):
        source = textwrap.dedent("""
            def f(a, b):
                if a:
                    x = 1
                else:
                    x = 2
                return x
        """)
        tree = ast.parse(source)
        cfgs = build_module_cfgs(tree)
        func = next(cfg for cfg in cfgs if cfg.name == "f")

        class Noop(ForwardAnalysis):
            def transfer(self, stmt, env):
                pass

        entry_envs = Noop().solve(func)
        for block in func.reachable_blocks():
            assert block.bid in entry_envs
