"""The whole-program project model: symbol table and call graph.

Per-file AST rules can enforce *local* conventions, but the bugs that
threaten the reproduction are cross-module: a ``_db`` value flowing
into a linear-domain parameter two calls away, an unseeded generator
reaching a :class:`~repro.runtime.task.SweepTask` function, a worker
mutating a module global that the serial backend would share across
tasks. This module builds the shared substrate those analyses need:

* a **module summary** per file — dotted module name, import bindings,
  function signatures with unit-suffix facts, module-level names;
* a **call graph** of resolved project-internal call edges, plus the
  set of *task functions* (functions referenced at ``SweepTask`` /
  ``SweepTask.make`` construction sites) and everything reachable from
  them — the worker-purity rules' root set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.unitlang import family_of


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    The name is rooted at the outermost enclosing package: directories
    are included while they contain an ``__init__.py``, so
    ``src/repro/dsp/units.py`` maps to ``repro.dsp.units`` regardless
    of the checkout location, and a bare ``tmp/helper.py`` maps to
    ``helper``. ``__init__.py`` maps to its package's name.
    """
    resolved = Path(path)
    parts: List[str] = []
    if resolved.name != "__init__.py":
        parts.append(resolved.stem)
    parent = resolved.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        grandparent = parent.parent
        if grandparent == parent:
            break
        parent = grandparent
    return ".".join(reversed(parts)) if parts else resolved.stem


@dataclass(frozen=True)
class FunctionSummary:
    """Cross-module facts about one function definition.

    ``param_families`` maps parameter name to the unit family its
    suffix claims (parameters with no unit suffix are absent);
    ``return_family`` is the family claimed by the function name's own
    suffix. ``calls`` holds the *raw* dotted call targets appearing in
    the body (resolution to project symbols happens against the
    containing module's import bindings); ``mutated_globals`` the
    module-level names the body mutates.
    """

    qualname: str
    module: str
    line: int
    params: Tuple[str, ...] = ()
    param_families: Tuple[Tuple[str, str], ...] = ()
    return_family: Optional[str] = None
    calls: Tuple[str, ...] = ()
    mutated_globals: Tuple[str, ...] = ()
    is_public: bool = True

    @property
    def symbol(self) -> str:
        """``module:qualname`` — the project-wide function identity."""
        return f"{self.module}:{self.qualname}"

    def family_for_param(self, name: str) -> Optional[str]:
        """Unit family claimed by parameter ``name``'s suffix, if any."""
        for param, fam in self.param_families:
            if param == name:
                return fam
        return None

    def param_at(self, index: int) -> Optional[str]:
        """Positional parameter name at ``index``, if in range."""
        if 0 <= index < len(self.params):
            return self.params[index]
        return None


@dataclass(frozen=True)
class ModuleSummary:
    """One analyzed module: bindings, functions, graph-relevant facts.

    ``imports`` maps each locally bound name to the dotted target it
    refers to — a module (``units`` -> ``repro.dsp.units``) or a symbol
    (``db_to_linear`` -> ``repro.dsp.units:db_to_linear``).
    ``task_fn_refs`` holds the raw names referenced as the ``fn``
    argument of ``SweepTask``/``SweepTask.make`` calls in this module.
    """

    name: str
    path: str
    imports: Tuple[Tuple[str, str], ...] = ()
    functions: Tuple[FunctionSummary, ...] = ()
    module_level_names: Tuple[str, ...] = ()
    task_fn_refs: Tuple[str, ...] = ()


def _attribute_chain(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain (``a.b.c``), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Absolute dotted module for a level-``level`` relative import."""
    # The containing *package* of ``module`` is its name minus the last
    # component; each additional level strips one more component.
    parts = module.split(".")
    keep = len(parts) - level
    base = parts[: max(keep, 0)]
    if target:
        base.append(target)
    return ".".join(base)


class _ModuleExtractor(ast.NodeVisitor):
    """Single-pass extraction of one module's summary facts."""

    def __init__(self, module_name: str, path: str) -> None:
        self.module_name = module_name
        self.path = path
        self.imports: List[Tuple[str, str]] = []
        self.functions: List[FunctionSummary] = []
        self.module_level_names: List[str] = []
        self.task_fn_refs: List[str] = []
        self._scope: List[str] = []

    # -- imports ----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.imports.append((bound, target))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            source = _resolve_relative(
                self.module_name, node.level, node.module
            )
        else:
            source = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            # A lowercase name imported from a package is, throughout
            # this codebase, a submodule; CamelCase names are classes
            # and the rest are functions/constants. Record modules as
            # dotted paths and symbols as ``module:name``.
            if alias.name != alias.name.lower():
                target = f"{source}:{alias.name}"
            else:
                target = f"{source}:{alias.name}" if source else alias.name
            self.imports.append((bound, target))
        self.generic_visit(node)

    # -- module-level bindings --------------------------------------

    def _record_module_target(self, target: ast.AST) -> None:
        if not self._scope and isinstance(target, ast.Name):
            self.module_level_names.append(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._record_module_target(element)
            else:
                self._record_module_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_module_target(node.target)
        self.generic_visit(node)

    # -- functions ---------------------------------------------------

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        qualname = ".".join([*self._scope, node.name])
        args = node.args
        params = tuple(
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if arg.arg not in ("self", "cls")
        )
        families = tuple(
            (name, fam)
            for name in params
            for fam in (family_of(name),)
            if fam is not None
        )
        self.functions.append(
            FunctionSummary(
                qualname=qualname,
                module=self.module_name,
                line=node.lineno,
                params=params,
                param_families=families,
                return_family=family_of(node.name),
                calls=tuple(_collect_calls(node)),
                mutated_globals=tuple(_collect_global_mutations(node)),
                is_public=not node.name.startswith("_"),
            )
        )
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._scope:
            self.module_level_names.append(node.name)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    # -- task-fn references -----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attribute_chain(node.func)
        if chain is not None and chain.split(".")[-1] in (
            "SweepTask",
            "make",
        ):
            is_sweeptask = chain.endswith("SweepTask") or chain.endswith(
                "SweepTask.make"
            )
            if is_sweeptask:
                fn_arg: Optional[ast.AST] = None
                if node.args:
                    fn_arg = node.args[0]
                else:
                    for kw in node.keywords:
                        if kw.arg == "fn":
                            fn_arg = kw.value
                            break
                if fn_arg is not None:
                    ref = _attribute_chain(fn_arg)
                    if ref is not None:
                        self.task_fn_refs.append(ref)
        self.generic_visit(node)

    def summary(self) -> ModuleSummary:
        """The extracted, order-stable module summary."""
        return ModuleSummary(
            name=self.module_name,
            path=self.path,
            imports=tuple(sorted(set(self.imports))),
            functions=tuple(self.functions),
            module_level_names=tuple(
                sorted(set(self.module_level_names))
            ),
            task_fn_refs=tuple(sorted(set(self.task_fn_refs))),
        )


def _collect_calls(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> List[str]:
    """Sorted raw dotted call targets appearing in ``fn``'s body."""
    calls: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            chain = _attribute_chain(node.func)
            if chain is not None:
                calls.add(chain)
    return sorted(calls)


#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
        "sort",
        "reverse",
    }
)


def _store_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment/loop target (destructured too)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _store_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _store_names(elt)


def _collect_global_mutations(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> List[str]:
    """Module-level names ``fn`` mutates (assign, augassign, method, item).

    A name is counted when it is declared ``global`` and stored to, or
    when a store/mutating-method/subscript-store targets a name the
    function never binds locally — the classic shared-state patterns
    (``CACHE[key] = value``, ``_REGISTRY.append(...)``) that diverge
    between the serial backend (one shared process) and pool workers
    (fresh state each).
    """
    declared_global: Set[str] = set()
    local_bindings: Set[str] = set()
    args = fn.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]:
        local_bindings.add(arg.arg)
    mutated: Set[str] = set()

    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                local_bindings.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _store_names(target):
                    local_bindings.add(name)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            for name in _store_names(node.target):
                local_bindings.add(name)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name in _store_names(node.target):
                local_bindings.add(name)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for name in _store_names(item.optional_vars):
                        local_bindings.add(name)
        elif isinstance(node, ast.comprehension):
            for name in _store_names(node.target):
                local_bindings.add(name)

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    mutated.add(target.id)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in declared_global or name not in local_bindings:
                        mutated.add(name)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Name)
            ):
                name = func.value.id
                if name in declared_global or name not in local_bindings:
                    mutated.add(name)
    # Names never bound locally are only *module* globals when the
    # module actually defines them; that containment check happens in
    # the purity rule against ``ModuleSummary.module_level_names``.
    return sorted(mutated)


@dataclass
class ProjectModel:
    """Symbol table + call graph over an analyzed tree."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)

    # -- construction ------------------------------------------------

    @staticmethod
    def build(
        sources: Mapping[str, ast.Module],
        names: Optional[Mapping[str, str]] = None,
    ) -> "ProjectModel":
        """Model a set of parsed modules, keyed by file path.

        ``names`` optionally overrides the path-derived module name per
        path (used when analyzing source text without a real file).
        """
        model = ProjectModel()
        for path, tree in sources.items():
            module_name = (
                names[path]
                if names is not None and path in names
                else module_name_for_path(path)
            )
            extractor = _ModuleExtractor(module_name, path)
            extractor.visit(tree)
            model.modules[module_name] = extractor.summary()
        return model

    # -- symbol resolution -------------------------------------------

    def module_for_path(self, path: str) -> Optional[ModuleSummary]:
        """The summary whose source file is ``path``, if modeled."""
        for summary in self.modules.values():
            if summary.path == path:
                return summary
        return None

    def function(self, symbol: str) -> Optional[FunctionSummary]:
        """Look up ``module:qualname`` in the symbol table."""
        module, _, qualname = symbol.partition(":")
        summary = self.modules.get(module)
        if summary is None:
            return None
        for fn in summary.functions:
            if fn.qualname == qualname:
                return fn
        return None

    def resolve_call(
        self, module: str, chain: str
    ) -> Optional[FunctionSummary]:
        """Resolve a raw dotted call target seen in ``module``.

        Handles the three project idioms: a bare name defined in the
        same module, a bare name imported ``from mod import fn``, and a
        one-level attribute call on an imported module alias
        (``units.db_to_linear``). Anything deeper (methods on objects)
        resolves to None — unknown, not wrong.
        """
        summary = self.modules.get(module)
        if summary is None:
            return None
        imports = dict(summary.imports)
        head, _, rest = chain.partition(".")
        if not rest:
            # Bare name: local function first, then imported symbol.
            local = self.function(f"{module}:{head}")
            if local is not None:
                return local
            target = imports.get(head)
            if target is not None and ":" in target:
                return self.function(target)
            return None
        target = imports.get(head)
        if target is None or ":" in target:
            return None
        # ``alias.fn`` on an imported module, or ``alias.sub.fn`` /
        # ``alias.Class.method`` through a package or class: try every
        # split of the remaining chain into (submodule path, qualname).
        parts = rest.split(".")
        for split in range(len(parts) - 1, -1, -1):
            module_path = ".".join([target, *parts[:split]])
            qualname = ".".join(parts[split:])
            fn = self.function(f"{module_path}:{qualname}")
            if fn is not None:
                return fn
        return None

    # -- graphs ------------------------------------------------------

    def task_functions(self) -> FrozenSet[str]:
        """Symbols of functions referenced at SweepTask creation sites."""
        symbols: Set[str] = set()
        for name, summary in self.modules.items():
            for ref in summary.task_fn_refs:
                fn = self.resolve_call(name, ref)
                if fn is not None:
                    symbols.add(fn.symbol)
        return frozenset(symbols)

    def reachable_from_tasks(self) -> FrozenSet[str]:
        """Function symbols reachable from any task fn via resolved calls."""
        roots = self.task_functions()
        seen: Set[str] = set(roots)
        frontier = list(roots)
        while frontier:
            symbol = frontier.pop()
            fn = self.function(symbol)
            if fn is None:
                continue
            for chain in fn.calls:
                callee = self.resolve_call(fn.module, chain)
                if callee is not None and callee.symbol not in seen:
                    seen.add(callee.symbol)
                    frontier.append(callee.symbol)
        return frozenset(seen)
