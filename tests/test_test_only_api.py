"""Tier-1 gate: no module-level definition in ``src/repro`` exists only
for its own tests.

A module-level ``def`` or ``class`` of ``src/repro`` counts as used when
its name appears as a ``Name``, an ``Attribute`` or an identifier-shaped
string constant in a ``src/repro`` module that is not an
``__init__.py`` (outside the definition's own body), in ``examples/``
or in ``benchmarks/``. Re-exports and tests do not count.
``__init__.py`` files, definitions under a decorator other than
``dataclass`` (the decorator registers them) and CLI ``main`` functions
(``-m`` calls them) are not scanned. ``KEPT`` names each definition
that the tests alone call and that stays anyway, with the reason; an
entry that is no longer needed fails the gate too, so the list cannot
go stale.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Test-only definitions that stay, each with why.
KEPT = {
    "reflection_point": (
        "the specular-point geometry tests/channel/reference_tracer.py "
        "builds its brute-force ray oracle from"
    ),
    "trace_rays": (
        "the stateless entry to the vectorized tracer that the oracle tests "
        "compare, ray for ray, with tests/channel/reference_tracer.py"
    ),
    "simulate_feedback": (
        "the Eq. 3 ring-or-decay instrument the relay feedback tests measure "
        "forwarding paths with"
    ),
    "analyze_source": "lints a source string; every reprolint rule test runs through it",
    "active_tracer": "lets the observability tests assert scope restore and nesting",
    "active_engine": "lets the fault tests assert engine activation and restore",
    "awgn": "adds noise at a target SNR for the DSP, relay and discovery tests",
    "mean_power_dbm": "a power meter the amplifier, isolation and tag tests read",
    "peak_power_dbm": "a power meter the relay forwarding tests read",
    "tone_power_dbm": "a spectrum probe the filter, mixer and relay tests read",
    "phase_of_tone": "a phase probe the relay phase-mirroring tests read",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _referenced_names(tree: ast.AST) -> Set[str]:
    """Every name a module mentions as a Name, an Attribute or an
    identifier-shaped string."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIER.match(node.value)
        ):
            names.add(node.value)
    return names


def _registered(node: ast.AST) -> bool:
    """Whether a decorator other than ``dataclass`` wraps ``node``."""
    return any(
        "dataclass" not in ast.unparse(decorator)
        for decorator in getattr(node, "decorator_list", ())
    )


def definitions_only_tests_use(root: Path) -> List[Tuple[str, str]]:
    """``(name, "path:line")`` of each src definition nothing but tests uses."""
    package = root / "src" / "repro"
    used: Set[str] = set()
    defined: List[Tuple[str, str]] = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = _referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not _registered(node) and node.name != "main":
                    defined.append((node.name, f"{path.relative_to(root)}:{node.lineno}"))
            used |= names
    for folder in ("examples", "benchmarks"):
        for path in sorted((root / folder).rglob("*.py")):
            used |= _referenced_names(
                ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            )
    return [(name, where) for name, where in defined if name not in used]


def test_no_src_definition_exists_only_for_tests():
    flagged = definitions_only_tests_use(REPO_ROOT)
    unexplained = [f"{where}: {name}" for name, where in flagged if name not in KEPT]
    assert unexplained == [], (
        "definitions only tests use (delete them, or add each to KEPT "
        "with its reason):\n" + "\n".join(unexplained)
    )
    stale = sorted(set(KEPT) - {name for name, _ in flagged})
    assert stale == [], f"KEPT entries that src, examples or benchmarks now use: {stale}"


def test_the_scan_bites(tmp_path):
    """A seeded test-only def is flagged; each kind of real use is not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (package / "__init__.py").write_text(
        "from repro.mod import only_tests\n", encoding="utf-8"
    )
    (package / "mod.py").write_text(
        "import dataclasses, functools\n"
        "def only_tests(): ...\n"
        "def called(): ...\n"
        "def by_attribute(): ...\n"
        "def by_string(): ...\n"
        "def by_example(): ...\n"
        "@functools.lru_cache\n"
        "def registered(): ...\n"
        "def main(): ...\n"
        "@dataclasses.dataclass\n"
        "class OnlyItself:\n"
        "    def copy(self) -> 'OnlyItself':\n"
        "        return OnlyItself()\n"
        "class Helper:\n"
        "    def method(self):\n"
        "        return called(), self.by_attribute, getattr(self, 'by_string')\n",
        encoding="utf-8",
    )
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import by_example, Helper\nby_example()\nHelper()\n",
        encoding="utf-8",
    )
    assert definitions_only_tests_use(tmp_path) == [
        ("only_tests", "src/repro/mod.py:2"),
        ("OnlyItself", "src/repro/mod.py:11"),
    ]
