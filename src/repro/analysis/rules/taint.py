"""Determinism taint rules (``R310``–``R313``).

The ``R30x`` rules ban the *syntactic* forms of hidden randomness.
These rules track nondeterminism as a dataflow property instead:

* **R310** — a generator or ``SeedSequence`` seeded from a tainted
  value (``default_rng(int(wall_clock_s()))``) is as unreproducible as
  an unseeded one, however disciplined the spelling looks;
* **R311** — tainted values reaching the sweep engine's task boundary:
  an unseeded/entropy-derived argument passed to a known task function
  or into a ``SweepTask``/``SweepTask.make`` construction (seeds must
  trace back to explicit constants or ``SeedSequence.spawn``
  discipline, see :mod:`repro.runtime.seeding`);
* **R312** — iteration over a ``set``/``frozenset`` value: ordering
  depends on ``PYTHONHASHSEED``, so any reduce/merge path that walks a
  set without ``sorted(...)`` can differ between the serial backend
  and pool workers;
* **R313** — wall-clock readings flowing into a task function's return
  value: the payload lands in the content-addressed cache, and a
  cached replay can never be bit-identical to the original run.

Taint *sources* are wall clocks (``time.*``, ``datetime.now``, and the
sanctioned ``repro.obs.wall_clock_s`` — sanctioned for CLI status
lines, still wall-clock), OS entropy (``os.urandom``, ``secrets``,
``uuid.uuid1/4``), and unseeded RNG constructors.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.dataflow import (
    FlowWalker,
    TaintLattice,
    call_chain,
    functions_in,
    statement_expressions,
)
from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register

#: Dotted-call tails that read a wall clock.
WALL_CLOCK_TAILS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "wall_clock_s",
        "tracing.wall_clock_s",
        "obs.wall_clock_s",
    }
)

#: Dotted-call tails that draw OS entropy.
ENTROPY_TAILS = frozenset(
    {
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

_RNG_CONSTRUCTOR_TAILS = ("default_rng", "SeedSequence")


def _chain_tail(chain: str, depth: int = 2) -> str:
    """The last ``depth`` dotted components of a call chain."""
    return ".".join(chain.split(".")[-depth:])


def classify_taint_source(chain: str, node: ast.Call) -> FrozenSet[str]:
    """Taint reasons introduced by one call, by its dotted target."""
    tail2 = _chain_tail(chain, 2)
    tail1 = _chain_tail(chain, 1)
    if tail2 in WALL_CLOCK_TAILS or tail1 in WALL_CLOCK_TAILS:
        return frozenset({"wall-clock"})
    if tail2 in ENTROPY_TAILS:
        return frozenset({"entropy"})
    if tail1 in _RNG_CONSTRUCTOR_TAILS and not node.args and not node.keywords:
        return frozenset({"unseeded-rng"})
    return frozenset()


def _make_lattice(ctx: ModuleContext) -> TaintLattice:
    return TaintLattice(classify_taint_source, ctx.resolver())


def _task_function_nodes(
    ctx: ModuleContext,
) -> "List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]":
    """(node, symbol) for this module's functions that are task fns."""
    if ctx.project is None:
        return []
    task_symbols = ctx.project.task_functions()
    if not task_symbols:
        return []
    nodes = []
    for node, qualname in function_qualnames(ctx.tree):
        symbol = f"{ctx.module_name}:{qualname}"
        if symbol in task_symbols:
            nodes.append((node, symbol))
    return nodes


def function_qualnames(
    tree: ast.Module,
) -> "List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]":
    """Every function definition in ``tree`` with its dotted qualname.

    Nested scopes follow Python's ``<locals>``-free dotted spelling the
    project model uses (``Class.method``, ``outer.inner``).
    """
    out: "List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]" = []

    def _visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join([*scope, child.name])
                out.append((child, qualname))
                _visit(child, (*scope, child.name))
            elif isinstance(child, ast.ClassDef):
                _visit(child, (*scope, child.name))
            elif isinstance(
                child, (ast.If, ast.Try, ast.For, ast.While, ast.With)
            ):
                _visit(child, scope)

    _visit(tree, ())
    return out


def _reasons(found: Optional[FrozenSet[str]]) -> str:
    return ", ".join(sorted(found or ()))


@register
class TaintedSeed(Rule):
    """R310: RNG/SeedSequence seeded from a nondeterministic value."""

    code = "R310"
    name = "tainted-seed"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        lattice = _make_lattice(ctx)
        walker = FlowWalker(lattice)
        for scope in [ctx.tree, *functions_in(ctx.tree)]:
            for stmt, env in walker.walk(scope):  # type: ignore[arg-type]
                for tree in statement_expressions(stmt):
                    for node in ast.walk(tree):
                        if not isinstance(node, ast.Call):
                            continue
                        chain = call_chain(node)
                        if chain is None:
                            continue
                        if _chain_tail(chain, 1) not in _RNG_CONSTRUCTOR_TAILS:
                            continue
                        tainted: FrozenSet[str] = frozenset()
                        for arg in [
                            *node.args,
                            *[kw.value for kw in node.keywords],
                        ]:
                            tainted = tainted | (
                                lattice.infer(arg, env)  # type: ignore[arg-type]
                                or frozenset()
                            )
                        if tainted:
                            yield self.finding(
                                ctx,
                                node,
                                f"{_chain_tail(chain, 1)} seeded from a "
                                f"nondeterministic value "
                                f"({_reasons(tainted)}); derive seeds from "
                                "constants or SeedSequence.spawn",
                            )


@register
class TaintReachesTaskBoundary(Rule):
    """R311: tainted values crossing into the sweep engine's task layer."""

    code = "R311"
    name = "taint-reaches-task"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        lattice = _make_lattice(ctx)
        walker = FlowWalker(lattice)
        project = ctx.project
        task_symbols = (
            project.task_functions() if project is not None else frozenset()
        )
        for scope in [ctx.tree, *functions_in(ctx.tree)]:
            for stmt, env in walker.walk(scope):  # type: ignore[arg-type]
                for tree in statement_expressions(stmt):
                    for node in ast.walk(tree):
                        if not isinstance(node, ast.Call):
                            continue
                        chain = call_chain(node)
                        if chain is None:
                            continue
                        is_task_boundary = chain.endswith(
                            "SweepTask"
                        ) or chain.endswith("SweepTask.make")
                        if not is_task_boundary and project is not None:
                            fn = project.resolve_call(
                                ctx.module_name, chain
                            )
                            is_task_boundary = (
                                fn is not None
                                and fn.symbol in task_symbols
                            )
                        if not is_task_boundary:
                            continue
                        for arg in [
                            *[
                                a
                                for a in node.args
                                if not isinstance(a, ast.Starred)
                            ],
                            *[kw.value for kw in node.keywords],
                        ]:
                            tainted = lattice.infer(arg, env)  # type: ignore[arg-type]
                            if tainted:
                                yield self.finding(
                                    ctx,
                                    node,
                                    "nondeterministic value "
                                    f"({_reasons(tainted)}) passed into "
                                    f"the task boundary '{chain}'; tasks "
                                    "must be pure in (params, seed)",
                                )


class _SetLattice:
    """Tracks which locals hold ``set``/``frozenset`` values.

    The single abstract value is the string ``"set"``; everything else
    is unknown. Ordered wrappers (``sorted``, ``list``, ``tuple``)
    deliberately return unknown — they are the sanctioned exits.
    """

    _CONSTRUCTORS = frozenset({"set", "frozenset"})
    _SET_METHODS = frozenset(
        {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
            "copy",
        }
    )

    def join(self, a: Optional[str], b: Optional[str]) -> Optional[str]:
        """Branch merge: both branches must agree on set-ness."""
        return a if a == b else None

    def infer(self, node: ast.AST, env: Dict[str, str]) -> Optional[str]:
        """``"set"`` when ``node`` evaluates to a set, else None."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            chain = call_chain(node)
            if chain is None:
                return None
            tail = chain.split(".")[-1]
            if chain in self._CONSTRUCTORS:
                return "set"
            if tail in self._SET_METHODS and isinstance(
                node.func, ast.Attribute
            ):
                return self.infer(node.func.value, env)
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            left = self.infer(node.left, env)
            right = self.infer(node.right, env)
            return "set" if "set" in (left, right) else None
        if isinstance(node, ast.IfExp):
            return self.join(
                self.infer(node.body, env), self.infer(node.orelse, env)
            )
        return None


#: Call targets whose iteration order becomes observable output.
_ORDER_SENSITIVE_CONSUMERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "join", "next"}
)

#: Order-insensitive reducers where set iteration is harmless.
_ORDER_FREE_CONSUMERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)


@register
class UnorderedSetIteration(Rule):
    """R312: iterating a set where the order becomes observable.

    ``for x in some_set``, ``list(some_set)``, ``",".join(some_set)``
    and friends inherit ``PYTHONHASHSEED``-dependent order; a reduce or
    merge path built on them differs run-to-run and backend-to-backend.
    Wrap the set in ``sorted(...)`` at the iteration site.
    """

    code = "R312"
    name = "unordered-set-iteration"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        lattice = _SetLattice()
        walker = FlowWalker(lattice)  # type: ignore[arg-type]
        for scope in [ctx.tree, *functions_in(ctx.tree)]:
            for stmt, env in walker.walk(scope):  # type: ignore[arg-type]
                yield from self._check_statement(ctx, lattice, stmt, env)

    def _check_statement(
        self,
        ctx: ModuleContext,
        lattice: _SetLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            if lattice.infer(stmt.iter, env) == "set":
                yield self._site(ctx, stmt.iter, "for-loop")
        for tree in statement_expressions(stmt):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    yield from self._check_call(ctx, lattice, node, env)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for generator in node.generators:
                        if lattice.infer(generator.iter, env) == "set":
                            # Set comprehensions re-hash anyway; list/
                            # dict/generator outputs keep the order.
                            if not isinstance(node, ast.SetComp):
                                yield self._site(
                                    ctx, generator.iter, "comprehension"
                                )
                elif isinstance(node, ast.Starred):
                    if lattice.infer(node.value, env) == "set":
                        yield self._site(ctx, node.value, "unpacking")

    def _check_call(
        self,
        ctx: ModuleContext,
        lattice: _SetLattice,
        node: ast.Call,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        chain = call_chain(node)
        if chain is None:
            return
        tail = chain.split(".")[-1]
        if tail in _ORDER_FREE_CONSUMERS:
            return
        if tail not in _ORDER_SENSITIVE_CONSUMERS:
            return
        candidates = node.args[:1]
        if tail == "join" and isinstance(node.func, ast.Attribute):
            candidates = node.args[:1]
        for arg in candidates:
            if lattice.infer(arg, env) == "set":
                yield self._site(ctx, arg, f"{tail}()")

    def _site(self, ctx: ModuleContext, node: ast.AST, how: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"set iterated via {how}: order depends on PYTHONHASHSEED; "
            "wrap in sorted(...)",
        )


@register
class WallClockInTaskPayload(Rule):
    """R313: wall-clock taint entering a cached task payload."""

    code = "R313"
    name = "wall-clock-in-task-payload"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        lattice = _make_lattice(ctx)
        walker = FlowWalker(lattice)
        for node, symbol in _task_function_nodes(ctx):
            for stmt, env in walker.walk(node):
                if not isinstance(stmt, ast.Return) or stmt.value is None:
                    continue
                tainted = lattice.infer(stmt.value, env)  # type: ignore[arg-type]
                if tainted and "wall-clock" in tainted:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"task function '{symbol}' returns a wall-clock-"
                        "derived value; cached replays can never be "
                        "bit-identical (timing belongs in the manifest)",
                    )
