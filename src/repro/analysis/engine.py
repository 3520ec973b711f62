"""Analysis engine: file discovery, parsing, rule dispatch, filtering.

Every rule is a per-file check, so the engine is one pass: parse a
file, run the enabled rules on its AST, move on. Nothing is shared
between files.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, all_rules


def iter_python_files(paths: Sequence[str], config: AnalysisConfig) -> Iterator[Path]:
    """Expand files/directories into the sorted set of ``.py`` files."""
    seen = set()
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates: Iterable[Path] = sorted(root.rglob("*.py"))
        else:
            candidates = [root]
        for path in candidates:
            if config.path_excluded(str(path)) or path in seen:
                continue
            seen.add(path)
            yield path


def analyze_module(tree: ast.Module, path: str, config: AnalysisConfig) -> List[Finding]:
    """Run every enabled rule over one parsed module."""
    ctx = ModuleContext(path=path, tree=tree, config=config)
    findings: List[Finding] = []
    for rule in all_rules():
        if not config.rule_enabled(rule.code):
            continue
        if config.code_ignored_for_path(rule.code, path):
            continue
        findings.extend(rule.check(ctx))
    return sorted(findings)


def analyze_source(
    source: str,
    path: str = "<string>",
    config: Optional[AnalysisConfig] = None,
) -> List[Finding]:
    """Run every enabled rule over one module's source text.

    This is the entry point the rule unit tests use: they feed
    deliberately-broken snippets through the same dispatch path the CLI
    uses, so a rule passing its tests is the rule the gate runs.
    """
    config = config or AnalysisConfig()
    return analyze_module(ast.parse(source, filename=path), path, config)


def analyze_paths(
    paths: Sequence[str], config: Optional[AnalysisConfig] = None
) -> List[Finding]:
    """Analyze every Python file under ``paths`` and collect findings.

    A file that fails to read or parse becomes an ``E998``/``E999``
    finding rather than an exception, so one broken file cannot hide
    the report for the rest of the tree.
    """
    config = config or AnalysisConfig()
    findings: List[Finding] = []
    for path in iter_python_files(paths, config):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(
                Finding(str(path), 1, 0, "E998", f"cannot read file: {exc}")
            )
            continue
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(str(path), exc.lineno or 1, 0, "E999", f"syntax error: {exc.msg}")
            )
            continue
        findings.extend(analyze_module(tree, str(path), config))
    return sorted(findings)
