"""Rule protocol, module context, and the global rule registry."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Type

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to inspect one parsed module."""

    path: str
    tree: ast.Module
    config: AnalysisConfig


class Rule:
    """Base class for all reprolint rules.

    Subclasses set ``code`` (stable, reported, selectable), ``name``
    (kebab-case slug), and ``severity``, then implement :meth:`check`
    as a generator of findings over the module AST.
    """

    code: str = ""
    name: str = ""
    severity: str = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module; default checks nothing."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` in ``ctx``'s file."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry.

    Duplicate codes are a programming error in the rule modules
    themselves, so they fail loudly at import time.
    """
    if not rule_cls.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]
