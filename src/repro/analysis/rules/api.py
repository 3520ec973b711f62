"""API-contract rules (``A4xx``): annotations, module hygiene, foot-guns."""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _public_functions(tree: ast.Module) -> Iterator[_FunctionNode]:
    """Module-level and class-body functions with public names.

    Functions nested inside other functions are implementation detail
    and carry no API contract.
    """
    stack = [(tree, False)]
    while stack:
        node, _in_class = stack.pop()
        for child in getattr(node, "body", []):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    yield child
            elif isinstance(child, ast.ClassDef):
                stack.append((child, True))


@register
class MissingReturnAnnotation(Rule):
    """A401: public functions must annotate their return type."""

    code = "A401"
    name = "missing-return-annotation"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in _public_functions(ctx.tree):
            if func.returns is None:
                yield self.finding(
                    ctx,
                    func,
                    f"public function '{func.name}' has no return annotation",
                )


@register
class MissingFutureAnnotations(Rule):
    """A402: every module starts with ``from __future__ import annotations``."""

    code = "A402"
    name = "missing-future-annotations"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                and any(alias.name == "annotations" for alias in node.names)
            ):
                return
        yield self.finding(
            ctx, ctx.tree, "module lacks 'from __future__ import annotations'"
        )


@register
class MissingModuleDocstring(Rule):
    """A403: every module carries a docstring."""

    code = "A403"
    name = "missing-module-docstring"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ast.get_docstring(ctx.tree) is None:
            yield self.finding(ctx, ctx.tree, "module lacks a docstring")


@register
class BareExcept(Rule):
    """A404: bare ``except:`` swallows KeyboardInterrupt and SystemExit."""

    code = "A404"
    name = "bare-except"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node, "bare 'except:'; catch a specific exception type"
                )


@register
class ExperimentsBypassScenarioRegistry(Rule):
    """A406: experiments resolve worlds via ``repro.scenarios``.

    Geometry and traffic under ``repro/experiments/`` must come from a
    named scenario spec — hand-building world objects (environments,
    measurement models, trajectories, grids, tag placements) inline
    bypasses the registry, so the run is no longer reproducible from a
    spec name. Grandfathered sites live in the checked-in reprolint
    baseline and must ratchet down, not up.
    """

    code = "A406"
    name = "experiments-bypass-scenario-registry"
    severity = "error"

    #: (defining module, exported name) pairs experiments may not call.
    _BANNED = frozenset(
        {
            ("repro.sim.environment", "Environment"),
            ("repro.localization.measurement", "MeasurementModel"),
            ("repro.localization.grid", "Grid2D"),
            ("repro.localization", "Grid2D"),
            ("repro.mobility.trajectory", "LineTrajectory"),
            ("repro.mobility", "LineTrajectory"),
            ("repro.hardware.tag", "PassiveTag"),
            ("repro.hardware", "PassiveTag"),
        }
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        normalized = ctx.path.replace("\\", "/")
        if "repro/experiments/" not in normalized:
            return
        from_imports: dict = {}
        module_aliases: dict = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    from_imports[local] = (node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    module_aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = self._call_origin(
                node.func, from_imports, module_aliases
            )
            if origin in self._BANNED:
                module, name = origin
                yield self.finding(
                    ctx,
                    node,
                    f"experiment builds its world inline via "
                    f"{module}.{name}; resolve geometry/traffic through "
                    "a repro.scenarios spec instead",
                )

    @staticmethod
    def _call_origin(func: ast.AST, from_imports: dict, module_aliases: dict):
        """(defining module, name) of a call target, if import-traceable."""
        if isinstance(func, ast.Name):
            return from_imports.get(func.id)
        if isinstance(func, ast.Attribute):
            parts = []
            node = func
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            parts.append(node.id)
            parts.reverse()
            dotted_module = ".".join(parts[:-1])
            if dotted_module in module_aliases:
                # plain `import repro.localization.grid` binds the full path
                return (module_aliases[dotted_module], parts[-1])
            head = module_aliases.get(parts[0])
            if head is None and parts[0] in from_imports:
                # `from repro.localization import grid; grid.Grid2D`
                mod, name = from_imports[parts[0]]
                head = f"{mod}.{name}"
            if head is None:
                return None
            return (".".join([head] + parts[1:-1]), parts[-1])
        return None


@register
class MutableDefaultArgument(Rule):
    """A405: list/dict/set defaults are shared across calls."""

    code = "A405"
    name = "mutable-default-argument"
    severity = "error"

    _MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        node,
                        f"function '{node.name}' has a mutable default "
                        "argument; use None and construct inside",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CONSTRUCTORS
        )
