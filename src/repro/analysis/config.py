"""Analyzer configuration: rule selection, per-path ignores, allowlists."""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Mapping, Tuple

#: Identifiers that look like unsuffixed physical quantities but follow a
#: conventional unit by near-universal DSP usage; U101 skips them.
DEFAULT_ALLOWED_UNSUFFIXED: Tuple[str, ...] = (
    "sample_rate",  # conventionally Hz throughout the package
    "blf",  # backscatter link frequency, Hz by Gen2 definition
)

#: Per-path rule suppressions applied after ``select``/``ignore``.
#: ``repro/dsp/units.py`` is the one module allowed to spell out the raw
#: dB/linear conversion formulas — it *is* the converter.
DEFAULT_PER_PATH_IGNORES: Mapping[str, Tuple[str, ...]] = {
    "*repro/dsp/units.py": ("U106",),
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Immutable knobs for one analyzer run.

    ``select``/``ignore`` hold rule-code *prefixes*: ``("U",)`` selects
    every units rule, ``("U104",)`` exactly one. An empty ``select``
    means all registered rules.
    """

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    exclude_paths: Tuple[str, ...] = ()
    per_path_ignores: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PER_PATH_IGNORES)
    )
    allowed_unsuffixed: Tuple[str, ...] = DEFAULT_ALLOWED_UNSUFFIXED

    def rule_enabled(self, code: str) -> bool:
        """Apply ``select`` then ``ignore`` prefix filters to a rule code."""
        if self.select and not any(code.startswith(p) for p in self.select if p):
            return False
        return not any(code.startswith(p) for p in self.ignore if p)

    def code_ignored_for_path(self, code: str, path: str) -> bool:
        """True when a per-path pattern suppresses this code for this file."""
        normalized = path.replace("\\", "/")
        for pattern, codes in self.per_path_ignores.items():
            if fnmatch(normalized, pattern) and any(
                code.startswith(p) for p in codes if p
            ):
                return True
        return False

    def path_excluded(self, path: str) -> bool:
        """True when the file should not be analyzed at all."""
        normalized = path.replace("\\", "/")
        return any(fnmatch(normalized, pat) or pat in normalized for pat in self.exclude_paths)
