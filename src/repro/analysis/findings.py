"""The finding record shared by rules, the engine, and the reporters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    Ordering is (path, line, col, code) so reports read top-to-bottom
    per file regardless of which rule produced each finding.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        """``path:line:col: CODE message`` — the text-reporter line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-reporter representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "severity": self.severity,
        }
