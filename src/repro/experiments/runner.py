"""Shared scaffolding for the per-figure experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.results import format_table


@dataclass
class ExperimentOutput:
    """One experiment's regenerated table plus paper-vs-measured notes."""

    name: str
    headers: List[str]
    rows: List[List[str]]
    paper_claims: Dict[str, str] = field(default_factory=dict)
    measured: Dict[str, str] = field(default_factory=dict)
    notes: str = ""

    def table(self) -> str:
        """The regenerated table in fixed-width form."""
        return format_table(self.headers, self.rows)

    def report(self) -> str:
        """Full report: table plus paper-vs-measured comparison."""
        lines = [f"== {self.name} ==", self.table()]
        if self.paper_claims:
            lines.append("")
            lines.append("paper vs measured:")
            for key, claim in self.paper_claims.items():
                measured = self.measured.get(key, "n/a")
                lines.append(f"  {key}: paper {claim} | measured {measured}")
        extra = {
            key: value
            for key, value in self.measured.items()
            if key not in self.paper_claims
        }
        if extra:
            lines.append("")
            lines.append("measured:")
            for key, value in extra.items():
                lines.append(f"  {key}: {value}")
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)


def fmt(value: float, digits: int = 3) -> str:
    """Compact numeric cell formatting."""
    return f"{value:.{digits}g}"
