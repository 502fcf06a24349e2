"""The unit of linter output: one :class:`Finding` per rule violation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str          # e.g. "D101"
    path: str          # repo-relative, forward slashes
    line: int          # 1-based
    col: int           # 0-based (ast convention)
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
