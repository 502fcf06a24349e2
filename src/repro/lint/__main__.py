"""``python -m repro.lint`` — the determinism & architecture gate.

Usage::

    python -m repro.lint                       # lint src/repro + tests
    python -m repro.lint src/repro/netsim      # a subtree
    python -m repro.lint --format json         # machine output for CI
    python -m repro.lint --format sarif --output lint.sarif
                                               # GitHub code scanning
    python -m repro.lint --list-rules          # rule catalogue

The only way past a finding is a ``# lint: disable=<ID>`` pragma on the
flagged line.  Exit codes: 0 — clean (pragma-suppressed findings
only); 1 — at least one finding; 2 — usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.discovery import find_repo_root
from repro.lint.registry import iter_rule_metadata
from repro.lint.report import format_json, format_text
from repro.lint.sarif import format_sarif
from repro.lint.runner import run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism & architecture static analysis for the "
            "Periscope-QoE reproduction."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro and tests)",
    )
    parser.add_argument(
        "--root", default=None,
        help="repo root (default: auto-detected from pyproject.toml)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="output_format", help="output format (default: text)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for meta in iter_rule_metadata():
            print(f"{meta['id']}  {meta['name']}")
            print(f"      {meta['description']}")
        return 0

    root = os.path.abspath(args.root) if args.root else find_repo_root(os.getcwd())
    only_rules = (
        [rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()]
        if args.rules else None
    )
    result = run_lint(root=root, paths=args.paths or None, only_rules=only_rules)

    if args.output_format == "json":
        rendered = format_json(result)
    elif args.output_format == "sarif":
        rendered = format_sarif(result)
    else:
        rendered = format_text(result) + "\n"

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
