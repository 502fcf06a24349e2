"""Orchestration: discovery -> parse -> rules -> pragmas.

:func:`run_lint` is the single entry point used by the CLI, the CI
gate, and the pytest meta-test; :func:`lint_sources` lints in-memory
sources and powers the rule fixture tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.discovery import discover_files, find_repo_root
from repro.lint.findings import Finding
from repro.lint.modinfo import ModuleInfo, parse_module
from repro.lint.pragmas import parse_pragmas, suppressed
from repro.lint.registry import FileRule, ProjectRule, all_rules


@dataclass
class LintResult:
    """Everything one lint run produced."""

    root: str
    files: List[str] = field(default_factory=list)
    #: Findings with no pragma on their line — these gate CI.
    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by a ``# lint: disable=`` pragma.
    suppressed_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def _check_modules(
    modules: List[ModuleInfo], only_rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    wanted = set(only_rules) if only_rules is not None else None
    raw: List[Finding] = []
    for rule in all_rules():
        if wanted is not None and rule.id not in wanted:
            continue
        if isinstance(rule, FileRule):
            for module in modules:
                raw.extend(rule.check(module))
        elif isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(modules))
    return raw


def _drop_suppressed(
    raw: Sequence[Finding], modules: Sequence[ModuleInfo]
) -> Tuple[List[Finding], int]:
    """(kept findings in path/line/col/rule order, suppressed count)."""
    pragma_tables = {
        module.path: parse_pragmas(module.lines) for module in modules
    }
    kept = [
        finding for finding in raw
        if not suppressed(
            pragma_tables.get(finding.path, {}), finding.line, finding.rule
        )
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept, len(raw) - len(kept)


def parse_files(root: str, rel_paths: Sequence[str]) -> tuple:
    """Parse files into ModuleInfos; unparsable files become E001 findings."""
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for rel_path in rel_paths:
        full = os.path.join(root, rel_path)
        try:
            with open(full, "r", encoding="utf-8") as handle:
                source = handle.read()
            modules.append(parse_module(rel_path, source))
        except SyntaxError as error:
            errors.append(Finding(
                rule="E001",
                path=rel_path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
            ))
        except (OSError, UnicodeDecodeError) as error:
            errors.append(Finding(
                rule="E002", path=rel_path, line=1, col=0,
                message=f"file unreadable: {error}",
            ))
    return modules, errors


def lint_modules(
    modules: List[ModuleInfo], only_rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Rules + pragmas over parsed modules."""
    kept, _ = _drop_suppressed(_check_modules(modules, only_rules), modules)
    return kept


def lint_sources(
    sources: Dict[str, str], only_rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint in-memory ``{repo_relative_path: source}`` (for tests)."""
    modules = [parse_module(path, text) for path, text in sources.items()]
    return lint_modules(modules, only_rules)


def run_lint(
    root: Optional[str] = None,
    paths: Optional[Sequence[str]] = None,
    only_rules: Optional[Iterable[str]] = None,
) -> LintResult:
    """Full pipeline over a checkout; ``paths`` defaults to the shared
    discovery roots."""
    root = root or find_repo_root()
    files = discover_files(root, paths)
    modules, errors = parse_files(root, files)
    raw = _check_modules(modules, only_rules) + errors
    findings, dropped = _drop_suppressed(raw, modules)
    return LintResult(
        root=root, files=files, findings=findings, suppressed_count=dropped,
    )
