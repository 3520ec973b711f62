"""Fault-injection rules (``F6xx``).

Faults enter the simulator through exactly one surface: a declarative
:class:`repro.faults.FaultPlan` engaged around the code under test. The
hooks compiled into the hardware, relay, channel, and serving layers
fire only for an engaged plan, so every injection is seeded, logged,
and counted. Ad-hoc monkeypatching of repro internals — reassigning an
attribute of a module or class, ``setattr`` on one, ``mock.patch`` over
a ``repro.*`` target — bypasses all of that: the "fault" is invisible to
the injection log, unreproducible across seeds, and leaks past the
block that installed it. Library code must not do it (tests are
exempt; their fixtures clean up after themselves).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register

#: Path fragments exempt from the rule: the engine's own package (it
#: IS the sanctioned surface) and test suites (their monkeypatching is
#: fixture-scoped and cleaned up by the test harness).
FAULTS_EXEMPT_FRAGMENTS = ("repro/faults/", "tests/")

#: Engine entry points reserved to :func:`repro.faults.engaged`.
_ENGINE_ENTRY_POINTS = frozenset({"FaultEngine", "activate_engine"})


def _is_exempt(ctx: ModuleContext) -> bool:
    path = ctx.path.replace("\\", "/")
    return any(fragment in path for fragment in FAULTS_EXEMPT_FRAGMENTS)


def _repro_names(tree: ast.Module) -> Set[str]:
    """Names in this module bound to ``repro`` modules, classes or functions.

    ``import repro.x`` binds ``repro``; ``import repro.x as y`` binds
    ``y``; ``from repro[.pkg] import name`` binds ``name``.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    if alias.asname is not None:
                        names.add(alias.asname)
                    else:
                        names.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and (
                module == "repro" or module.startswith("repro.")
            ):
                names.update(alias.asname or alias.name for alias in node.names)
    return names


def _attribute_root(node: ast.AST) -> str:
    """The root ``Name`` id of an attribute chain, or ``""``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _call_name(func: ast.AST) -> str:
    """The trailing name of a call target (``mock.patch`` -> ``patch``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@register
class AdHocFaultInjection(Rule):
    """F601: faults injected by monkeypatching instead of repro.faults.

    Reassigning an attribute of an imported ``repro`` module, class or
    function (``ServeConfig.latency_slo_s = ...`` is process state that
    outlives the call), or ``setattr``/``mock.patch`` over a
    ``repro.*`` target, installs an invisible, unseeded, unlogged fault
    that outlives its scope. Build
    a :class:`repro.faults.FaultPlan` and wrap the code under test in
    ``faults.engaged(plan, seed=...)`` — the compiled hooks then fire
    deterministically and land in the injection log and metrics.
    Constructing ``FaultEngine`` or calling ``activate_engine``
    directly is reserved to ``repro.faults`` itself for the same
    reason: ``engaged`` guarantees the previous engine is restored.
    """

    code = "F601"
    name = "ad-hoc-fault-injection"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _is_exempt(ctx):
            return
        aliases = _repro_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and _attribute_root(target) in aliases
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "monkeypatching an attribute of a repro module "
                            "or class; inject faults with a "
                            "repro.faults.FaultPlan engaged around the "
                            "code under test",
                        )
            elif isinstance(node, ast.Call):
                name = _call_name(node.func)
                if (
                    name == "setattr"
                    and isinstance(node.func, ast.Name)
                    and node.args
                    and _attribute_root(node.args[0]) in aliases
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "setattr on a repro module or class; inject faults with a "
                        "repro.faults.FaultPlan instead of patching "
                        "internals",
                    )
                elif (
                    name == "patch"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value.startswith("repro.")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "mock.patch over a repro target in library code; "
                        "use a repro.faults plan so the injection is "
                        "seeded and logged",
                    )
                elif name in _ENGINE_ENTRY_POINTS:
                    yield self.finding(
                        ctx,
                        node,
                        f"direct {name} use outside repro.faults; "
                        "faults.engaged(plan, seed=...) is the supported "
                        "entry point and restores the previous engine",
                    )
