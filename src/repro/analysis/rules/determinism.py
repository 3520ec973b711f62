"""Determinism rules (``R3xx``).

Every figure reproduction must regenerate bit-identically from its
seed, so library code never owns hidden randomness: RNGs are injected
as ``np.random.Generator`` instances seeded by the caller (the
convention of the trial builders in ``repro/scenarios/trials.py``), and
fallbacks derive from a documented fixed seed. These rules ban
nondeterminism where it enters a module — an unseeded generator, hidden
global RNG state, OS entropy, a hash-ordered set walk — so it is caught
wherever the value would have flowed next.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register

#: numpy legacy global-state RandomState functions; calling any of these
#: as ``np.random.<fn>`` uses (and mutates) hidden module-level state.
LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "random",
        "random_sample",
        "rand",
        "randn",
        "randint",
        "normal",
        "uniform",
        "choice",
        "shuffle",
        "permutation",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "get_state",
        "set_state",
    }
)


def _np_random_attr(func: ast.AST) -> Optional[str]:
    """``fn`` when ``func`` is ``np.random.fn`` / ``numpy.random.fn``."""
    if not isinstance(func, ast.Attribute):
        return None
    parent = func.value
    if (
        isinstance(parent, ast.Attribute)
        and parent.attr == "random"
        and isinstance(parent.value, ast.Name)
        and parent.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


#: numpy constructors that fall back to OS entropy when called argless.
SEEDABLE_CONSTRUCTORS = frozenset({"default_rng", "SeedSequence"})


@register
class UnseededDefaultRng(Rule):
    """R301: argless ``default_rng()``/``SeedSequence()`` draw OS entropy."""

    code = "R301"
    name = "unseeded-default-rng"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else _np_random_attr(func)
            if name in SEEDABLE_CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"np.random.{name}() without a seed; inject an rng "
                    "or seed from a documented constant",
                )


@register
class LegacyGlobalNpRandom(Rule):
    """R302: ``np.random.<fn>`` legacy global-state calls."""

    code = "R302"
    name = "legacy-global-np-random"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _np_random_attr(node.func)
            if attr in LEGACY_NP_RANDOM:
                yield self.finding(
                    ctx,
                    node,
                    f"np.random.{attr} uses hidden global state; draw from "
                    "an injected np.random.Generator instead",
                )


#: Path fragment identifying the one package allowed to spawn workers.
RUNTIME_PACKAGE_FRAGMENT = "repro/runtime/"

#: Modules whose import means ad-hoc parallelism outside the sweep engine.
PARALLELISM_MODULES = ("multiprocessing", "concurrent.futures", "concurrent")


def _parallelism_root(name: str) -> Optional[str]:
    """The banned top-level module when ``name`` falls under one."""
    for banned in PARALLELISM_MODULES:
        if name == banned or name.startswith(banned + "."):
            return banned
    return None


@register
class AdHocParallelism(Rule):
    """R304: worker pools outside ``repro.runtime``.

    Parallel dispatch is only bit-reproducible when seeds are fixed
    before fan-out and results are reduced in task order — the
    contract ``repro.runtime.backends`` implements once. Importing
    ``multiprocessing`` or ``concurrent.futures`` anywhere else
    reintroduces scheduling-order nondeterminism the engine exists to
    prevent, so those modules route through ``repro.runtime.run_sweep``
    instead.
    """

    code = "R304"
    name = "ad-hoc-parallelism"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if RUNTIME_PACKAGE_FRAGMENT in ctx.path.replace("\\", "/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = _parallelism_root(alias.name)
                    if root is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"direct {root} use outside repro.runtime; "
                            "dispatch through repro.runtime.run_sweep",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None:
                    root = _parallelism_root(node.module)
                    if root is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"direct {root} use outside repro.runtime; "
                            "dispatch through repro.runtime.run_sweep",
                        )


#: ``module.function`` calls that read OS entropy; ``secrets`` is
#: banned whole, at its import.
ENTROPY_CALLS = frozenset({("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")})


def _entropy_import(node: ast.AST) -> Optional[str]:
    """The entropy source an import statement binds, if any."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("random", "secrets"):
                return root
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module in ("random", "secrets"):
            return node.module
        for alias in node.names:
            if (node.module, alias.name) in ENTROPY_CALLS:
                return f"{node.module}.{alias.name}"
    return None


@register
class EntropySource(Rule):
    """R303: stdlib ``random``, ``secrets``, ``os.urandom`` or ``uuid1/4``.

    Each reads process or OS entropy that no seed controls, so a value
    drawn from one differs run to run wherever it flows next: into a
    fallback rng, a sweep task's seed, or a result row.
    """

    code = "R303"
    name = "entropy-source"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            source = _entropy_import(node)
            if source is None and isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in ENTROPY_CALLS
                ):
                    source = f"{func.value.id}.{func.attr}"
            if source is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{source} draws unseeded entropy; use an injected "
                    "np.random.Generator or a seed derived from a constant",
                )


#: Builtins that walk their first argument in iteration order.
ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "next"})

#: Builtins whose result does not depend on iteration order.
ORDER_FREE_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

#: Binary operators that keep a set a set.
SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Nodes that open a new name scope (their bodies bind their own names).
SCOPE_NODES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node inside ``scope``, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPE_NODES):
            todo.extend(ast.iter_child_nodes(node))


def _is_set_expr(node: ast.AST, set_names: "frozenset[str]") -> bool:
    """Whether ``node`` evaluates to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPERATORS):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    return False


def _set_names(scope: ast.AST, nodes: "list[ast.AST]") -> "frozenset[str]":
    """Names that every binding in ``scope`` binds to a set expression.

    A name also bound any other way (a parameter, a loop or ``with``
    target, an unpacking, a non-set assignment) is not a set;
    augmented set operators (``|=``, ...) keep a set a set.
    """
    values: "dict[str, list[ast.AST]]" = {}
    other: "set[str]" = set()
    seen: "set[ast.AST]" = set()  # targets already classified
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        other.update(arg.arg for arg in every if arg is not None)
    for node in nodes:  # parents come before their targets
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    seen.add(target)
                    if node.value is not None:
                        values.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, SET_OPERATORS):
            seen.add(node.target)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node not in seen:
                other.add(node.id)
    names = frozenset(values) - other
    while True:
        kept = frozenset(
            name for name in names
            if all(_is_set_expr(value, names) for value in values[name])
        )
        if kept == names:
            return names
        names = kept


@register
class UnorderedSetIteration(Rule):
    """R312: iterating a set where the order becomes observable.

    ``for x in some_set``, ``list(some_set)``, ``",".join(some_set)``
    and friends inherit ``PYTHONHASHSEED``-dependent order, so a row,
    a message or a merge built on them differs run to run and between
    the serial backend and pool workers. A set is a set display or
    comprehension, a ``set(...)``/``frozenset(...)`` call, a set
    operator over one, or a name its function binds only to those.
    Wrap the set in ``sorted(...)`` at the iteration site; ``len``,
    ``sum``, ``min``, ``max``, ``any`` and ``all`` are order-free.
    """

    code = "R312"
    name = "unordered-set-iteration"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope in ast.walk(ctx.tree):
            if isinstance(scope, SCOPE_NODES):
                yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: ModuleContext, scope: ast.AST) -> Iterator[Finding]:
        nodes = list(_scope_walk(scope))  # parents come before their children
        if not any(_is_set_expr(node, frozenset()) for node in nodes):
            return
        set_names = _set_names(scope, nodes)
        order_free: "set[ast.AST]" = set()  # generators fed to ORDER_FREE_CALLS
        for node in nodes:
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ORDER_FREE_CALLS:
                order_free.update(node.args)
            if node in order_free:
                continue
            for iterated, how in _iterations(node):
                if _is_set_expr(iterated, set_names):
                    yield self.finding(
                        ctx,
                        iterated,
                        f"set iterated via {how}: order depends on "
                        "PYTHONHASHSEED; wrap in sorted(...)",
                    )


def _iterations(node: ast.AST) -> "Iterator[tuple[ast.AST, str]]":
    """(iterated expression, how) for each ordered walk ``node`` makes."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter, "for-loop"
    elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter, "comprehension"
    elif isinstance(node, ast.Starred) and isinstance(node.ctx, ast.Load):
        yield node.value, "unpacking"
    elif isinstance(node, ast.Call) and node.args:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ORDER_SENSITIVE_CALLS:
            yield node.args[0], f"{func.id}()"
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            is_unbound = isinstance(func.value, ast.Name) and func.value.id == "str"
            if is_unbound and len(node.args) > 1:
                yield node.args[1], "str.join()"
            elif not is_unbound:
                yield node.args[0], "join()"


#: Methods that mutate a list, dict or set in place.
MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
     "remove", "discard", "clear", "sort", "reverse"}
)

#: The audited owners of process-wide state: the telemetry, sweep and
#: fault engines, and the two registries (filled at import or by an
#: explicit ``register`` call, never by a task).
PROCESS_STATE_OWNERS = (
    "repro/obs/",
    "repro/runtime/",
    "repro/faults/",
    "repro/analysis/rules/base.py",
    "repro/scenarios/registry.py",
)


def _root_name(node: ast.AST) -> Optional[str]:
    """The ``Name`` under a chain of subscripts and attributes."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class ModuleStateMutation(Rule):
    """P701: a function mutates module-level state.

    ``CACHE[key] = value``, ``_SEEN.add(x)`` or a ``global`` rebind in a
    function makes every later result that reads the name depend on
    what ran before in the process: the serial backend runs all tasks
    in one process, pool workers start fresh, and a second sweep reads
    the first one's leftovers. Pass state through arguments and return
    values instead.
    """

    code = "P701"
    name = "module-state-mutation"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if any(owner in ctx.path.replace("\\", "/") for owner in PROCESS_STATE_OWNERS):
            return
        module_names = {
            target.id
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
            if isinstance(target, ast.Name)
        }
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(_scope_walk(fn))
            found = list(_state_mutations(nodes, module_names))
            local = _local_names(fn, nodes) if found else set()
            for node, name in found:
                if isinstance(node, ast.Global) or name not in local:
                    yield self.finding(
                        ctx,
                        node,
                        f"'{fn.name}' mutates module-level '{name}'; results "
                        "then depend on what ran before in the process",
                    )


def _local_names(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef", nodes: "list[ast.AST]"
) -> "set[str]":
    """Names ``fn`` binds locally (parameters and plain stores)."""
    args = fn.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    local = {arg.arg for arg in every if arg is not None}
    local.update(
        node.id
        for node in nodes
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    )
    return local


def _state_mutations(
    nodes: "list[ast.AST]", shared: "set[str]"
) -> "Iterator[tuple[ast.AST, str]]":
    """(node, name) for each ``global`` rebind or in-place mutation of ``shared``."""
    for node in nodes:
        if isinstance(node, ast.Global):
            yield node, ", ".join(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                name = _root_name(target)
                if name is not None and name in shared and not isinstance(target, ast.Name):
                    yield node, name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (
                node.func.attr in MUTATING_METHODS
                and isinstance(owner, ast.Name)
                and owner.id in shared
            ):
                yield node, owner.id
