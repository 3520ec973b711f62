"""Tier-1 gate: no module-level import in ``src/repro`` or ``tests`` is
left unread.

CI's lint job runs ``ruff check src tests`` (rule set ``F``, which
includes F401 "imported but unused"); this is the same check for trees
where ruff is not installed. An import counts as used when its bound
name is read anywhere in the module, appears in ``__all__`` or in a
string annotation, is re-exported by an ``__init__.py``, or is a
``from __future__`` feature.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = (REPO_ROOT / "src" / "repro", REPO_ROOT / "tests")


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import outside functions and
    classes (module level, including under ``if``/``try``)."""
    pending: List[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ExceptHandler):
                    pending.extend(child.body)
                elif isinstance(child, ast.stmt):
                    pending.append(child)


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, including via ``__all__`` and
    string annotations."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                names.update(
                    inner.id
                    for inner in ast.walk(parsed)
                    if isinstance(inner, ast.Name)
                )
    for node in tree.body:
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, (ast.AnnAssign, ast.AugAssign))
            else []
        )
        if any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ) and node.value is not None:
            names.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
                and isinstance(item.value, str)
            )
    return names


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of each unread module-level import."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read_names(tree)
    return sorted(
        (line, name)
        for name, line in _module_imports(tree)
        if name not in read
    )


def test_no_unused_module_level_imports():
    findings = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for root in SCANNED
        for path in sorted(root.rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert findings == [], "unused imports:\n" + "\n".join(findings)


def test_the_scan_bites(tmp_path):
    """A seeded unused import is found; the exemptions are not."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'Dict[str, int]') -> int:\n"
        "    return os.path.sep\n",
        encoding="utf-8",
    )
    assert unused_imports(sample) == [(2, "json"), (4, "List")]
    init = tmp_path / "__init__.py"
    init.write_text("import json\n", encoding="utf-8")
    assert unused_imports(init) == []
