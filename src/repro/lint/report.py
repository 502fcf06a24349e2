"""Rendering lint results as text (humans) or JSON (CI)."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.runner import LintResult


def format_text(result: LintResult) -> str:
    lines: List[str] = [
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in result.findings
    ]
    lines.append(
        f"{len(result.files)} files checked: "
        f"{len(result.findings)} finding(s), "
        f"{result.suppressed_count} suppressed by pragma"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    payload: Dict[str, object] = {
        "version": 2,
        "files_checked": len(result.files),
        "findings": [finding.to_json() for finding in result.findings],
        "counts": {
            "findings": len(result.findings),
            "suppressed": result.suppressed_count,
        },
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2) + "\n"
