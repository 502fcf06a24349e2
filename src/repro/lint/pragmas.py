"""Suppression pragmas: the one way past a finding.

A finding is suppressed when the flagged physical line carries::

    something()  # lint: disable=D102
    other()      # lint: disable=D102,L301
    anything()   # lint: disable=all

The pragma applies to that line only, which keeps every suppression
visible next to the code it excuses.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Sequence

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*disable=(?P<rules>all|[A-Z][0-9]{3}(?:\s*,\s*[A-Z][0-9]{3})*)"
)

#: Sentinel meaning "every rule" on the pragma line.
ALL = frozenset(("all",))


def parse_pragmas(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> set of disabled rule ids (or :data:`ALL`)."""
    pragmas: Dict[int, FrozenSet[str]] = {}
    for number, line in enumerate(lines, start=1):
        if "lint:" not in line:
            continue
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        spec = match.group("rules")
        if spec == "all":
            pragmas[number] = ALL
        else:
            pragmas[number] = frozenset(
                part.strip() for part in spec.split(",") if part.strip()
            )
    return pragmas


def suppressed(pragmas: Dict[int, FrozenSet[str]], line: int, rule: str) -> bool:
    """True when ``rule`` is disabled on ``line``."""
    disabled = pragmas.get(line)
    if disabled is None:
        return False
    return disabled is ALL or "all" in disabled or rule in disabled
