"""Rule registry: importing this package registers every rule module."""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (registration)
    api,
    determinism,
    faults,
    observability,
    units,
)
from repro.analysis.rules.base import ModuleContext, Rule, all_rules, register

__all__ = ["ModuleContext", "Rule", "all_rules", "register"]
