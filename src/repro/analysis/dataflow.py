"""Flow-sensitive intraprocedural dataflow for the whole-program rules.

The per-file rules in :mod:`repro.analysis.rules.units` only see unit
facts spelled directly in identifier suffixes. The dataflow rules need
more: ``loss = path_loss_db(...)`` makes ``loss`` a decibel quantity
three statements before it is misused, and ``stamp = wall_clock_s()``
makes ``stamp`` wall-clock-tainted wherever it flows. This module
provides the shared machinery:

* a statement **walker** that traverses one function body in execution
  order, maintaining an abstract environment (local name -> lattice
  value), forking per branch and re-joining afterwards — findings are
  emitted against the environment *live* at each statement;
* two lattices over that walker — :class:`UnitLattice` (dimension
  families, join drops to unknown on disagreement so branchy code
  never false-positives) and :class:`TaintLattice` (reason sets, join
  is union so taint can only grow).

Loops get a silent pre-pass so loop-carried facts reach the emitting
pass; nested function definitions open fresh scopes and are analyzed
separately by the rules.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.analysis.project import FunctionSummary, _attribute_chain
from repro.analysis.unitlang import UNIT_FAMILIES, family_of

#: Resolves a raw dotted call target (as seen in the module's source)
#: to a modeled project function, or None when unknown.
CallResolver = Callable[[str], Optional[FunctionSummary]]

#: Builtins / numpy helpers whose result carries the same unit family
#: (and taint) as their first argument.
PASSTHROUGH_CALLS = frozenset(
    {
        "float",
        "int",
        "abs",
        "round",
        "min",
        "max",
        "sum",
        "sorted",
        "np.abs",
        "np.asarray",
        "np.array",
        "np.asfarray",
        "np.mean",
        "np.median",
        "np.max",
        "np.min",
        "np.sum",
        "np.percentile",
        "np.quantile",
        "np.clip",
        "np.round",
        "np.copy",
        "np.ravel",
        "np.squeeze",
    }
)


def call_chain(node: ast.Call) -> Optional[str]:
    """Dotted target of a call (``np.mean``), or None for dynamic calls."""
    return _attribute_chain(node.func)


def _is_numeric_literal(node: ast.AST) -> bool:
    """A literal int/float, optionally signed — known dimensionless."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


class UnitLattice:
    """Infers dimension families for expressions under an environment.

    A value is a family token from
    :data:`repro.analysis.unitlang.UNIT_FAMILIES` or None (unknown /
    dimensionless). Precedence for names: an explicit unit suffix is a
    *declaration* and wins over anything propagated — the propagated
    value only fills in suffix-less locals.
    """

    def __init__(self, resolver: Optional[CallResolver] = None) -> None:
        self._resolver = resolver

    def resolve(self, chain: str) -> Optional[FunctionSummary]:
        """The modeled callee for a raw call target, when resolvable."""
        if self._resolver is None:
            return None
        return self._resolver(chain)

    def join(self, a: Optional[str], b: Optional[str]) -> Optional[str]:
        """Branch merge: agreement survives, disagreement drops to unknown."""
        return a if a == b else None

    def infer(
        self, node: ast.AST, env: Dict[str, str]
    ) -> Optional[str]:
        """Family of ``node``'s value, or None when unknown."""
        if isinstance(node, ast.Name):
            declared = family_of(node.id)
            return declared if declared is not None else env.get(node.id)
        if isinstance(node, ast.Attribute):
            return family_of(node.attr)
        if isinstance(node, ast.Subscript):
            return self.infer(node.value, env)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand, env)
        if isinstance(node, ast.IfExp):
            return self.join(
                self.infer(node.body, env), self.infer(node.orelse, env)
            )
        if isinstance(node, ast.Call):
            return self._infer_call(node, env)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, env)
        return None

    def _infer_call(
        self, node: ast.Call, env: Dict[str, str]
    ) -> Optional[str]:
        chain = call_chain(node)
        if chain is None:
            return None
        if chain in PASSTHROUGH_CALLS and node.args:
            return self.infer(node.args[0], env)
        fn = self.resolve(chain)
        if fn is not None:
            return fn.return_family
        # Unresolved call: a trailing unit suffix on the callee name
        # still declares the return family (``path_loss_db(...)``).
        return family_of(chain.rsplit(".", 1)[-1])

    def _infer_binop(
        self, node: ast.BinOp, env: Dict[str, str]
    ) -> Optional[str]:
        left = self.infer(node.left, env)
        right = self.infer(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is None or right is None:
                return left if right is None else right
            if left == right:
                return left
            if {left, right} == {"db", "dbm"}:
                # gain_db + power_dbm is an absolute power in dBm;
                # dbm - dbm is handled by the same-family branch.
                return "dbm"
            return None
        if isinstance(node.op, (ast.Mult, ast.Div)):
            # Only a literal numeric factor is known dimensionless, so
            # only it preserves the family; an unknown *expression* may
            # carry dimension (``f_hz * t`` is a phase, not a
            # frequency), so any other product drops to unknown.
            if left is not None and _is_numeric_literal(node.right):
                return left
            if right is not None and _is_numeric_literal(node.left) and isinstance(
                node.op, ast.Mult
            ):
                return right
            return None
        return None


class TaintLattice:
    """Propagates nondeterminism-taint reason sets through expressions.

    A value is a frozenset of reason strings produced by the rule's
    ``sources`` classifier at call sites; any expression built from a
    tainted operand is tainted with the union of its operands' reasons.
    """

    def __init__(
        self,
        sources: Callable[[str, ast.Call], FrozenSet[str]],
        resolver: Optional[CallResolver] = None,
    ) -> None:
        self._sources = sources
        self._resolver = resolver

    def join(
        self, a: Optional[FrozenSet[str]], b: Optional[FrozenSet[str]]
    ) -> Optional[FrozenSet[str]]:
        """Branch merge: taint is a may-property, so reasons union."""
        if not a:
            return b
        if not b:
            return a
        return a | b

    def infer(
        self, node: ast.AST, env: Dict[str, FrozenSet[str]]
    ) -> Optional[FrozenSet[str]]:
        """Taint reasons carried by ``node``'s value (None when clean)."""
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            reasons: FrozenSet[str] = frozenset()
            chain = call_chain(node)
            if chain is not None:
                reasons = self._sources(chain, node)
            for arg in node.args:
                reasons = reasons | (self.infer(arg, env) or frozenset())
            for kw in node.keywords:
                reasons = reasons | (self.infer(kw.value, env) or frozenset())
            return reasons or None
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare)):
            reasons = frozenset()
            for child in ast.iter_child_nodes(node):
                reasons = reasons | (self.infer(child, env) or frozenset())
            return reasons or None
        if isinstance(node, (ast.UnaryOp, ast.Starred)):
            return self.infer(
                node.operand
                if isinstance(node, ast.UnaryOp)
                else node.value,
                env,
            )
        if isinstance(node, (ast.Subscript, ast.Attribute)):
            return self.infer(node.value, env)
        if isinstance(node, ast.IfExp):
            return self.join(
                self.infer(node.body, env), self.infer(node.orelse, env)
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            reasons = frozenset()
            for element in node.elts:
                reasons = reasons | (self.infer(element, env) or frozenset())
            return reasons or None
        if isinstance(node, ast.Dict):
            reasons = frozenset()
            for value in [*node.keys, *node.values]:
                if value is not None:
                    reasons = reasons | (
                        self.infer(value, env) or frozenset()
                    )
            return reasons or None
        if isinstance(node, ast.JoinedStr):
            reasons = frozenset()
            for part in node.values:
                reasons = reasons | (self.infer(part, env) or frozenset())
            return reasons or None
        if isinstance(node, ast.FormattedValue):
            return self.infer(node.value, env)
        return None


def statement_expressions(stmt: ast.stmt) -> Iterator[ast.AST]:
    """The expression trees evaluated *directly* by one statement.

    Compound statements (``if``/``for``/``with``/...) contribute only
    their own condition/iterable/context expressions — their nested
    statement blocks are walked (and emitted) separately, so a rule
    inspecting these trees never sees the same expression twice.
    """
    if isinstance(stmt, ast.Expr):
        yield stmt.value
    elif isinstance(stmt, ast.Assign):
        yield stmt.value
        for target in stmt.targets:
            yield target
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            yield stmt.value
        yield stmt.target
    elif isinstance(stmt, ast.AugAssign):
        yield stmt.value
        yield stmt.target
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, (ast.If, ast.While)):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
        yield stmt.target
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
    elif isinstance(stmt, ast.Assert):
        yield stmt.test
        if stmt.msg is not None:
            yield stmt.msg
    elif isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            yield stmt.exc
        if stmt.cause is not None:
            yield stmt.cause
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            yield target


def _target_names(target: ast.AST) -> List[str]:
    """Plain local names bound by an assignment target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


class FlowWalker:
    """Executes one function body abstractly, yielding (stmt, env) pairs.

    ``lattice`` is either lattice class above (anything with ``infer``
    and ``join``). The environment passed with each statement is the
    abstract state *before* the statement executes; rules must treat it
    as read-only (the walker snapshots lazily).
    """

    def __init__(self, lattice: "UnitLattice | TaintLattice") -> None:
        self._lattice = lattice

    def walk(
        self, fn: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Tuple[ast.stmt, Dict[str, object]]]:
        """Yield (statement, live environment) in execution order."""
        events: List[Tuple[ast.stmt, Dict[str, object]]] = []
        self._block(list(fn.body), {}, events, emit=True)
        return iter(events)

    # -- internals ---------------------------------------------------

    def _block(
        self,
        stmts: List[ast.stmt],
        env: Dict[str, object],
        events: List[Tuple[ast.stmt, Dict[str, object]]],
        emit: bool,
    ) -> Dict[str, object]:
        for stmt in stmts:
            if emit:
                events.append((stmt, dict(env)))
            env = self._transfer(stmt, env, events, emit)
        return env

    def _merge(
        self, branches: List[Dict[str, object]]
    ) -> Dict[str, object]:
        if not branches:
            return {}
        merged = dict(branches[0])
        for other in branches[1:]:
            for name in sorted(set(merged) | set(other)):
                joined = self._lattice.join(  # type: ignore[arg-type]
                    merged.get(name), other.get(name)
                )
                if joined is None:
                    merged.pop(name, None)
                else:
                    merged[name] = joined
        return merged

    def _bind(
        self, env: Dict[str, object], target: ast.AST, value: object
    ) -> None:
        for name in _target_names(target):
            # Tuple unpacking smears one value over every name, which
            # is only sound for single-name targets; drop otherwise.
            if value is None or not isinstance(target, ast.Name):
                env.pop(name, None)
            else:
                env[name] = value

    def _transfer(
        self,
        stmt: ast.stmt,
        env: Dict[str, object],
        events: List[Tuple[ast.stmt, Dict[str, object]]],
        emit: bool,
    ) -> Dict[str, object]:
        lattice = self._lattice
        if isinstance(stmt, ast.Assign):
            value = lattice.infer(stmt.value, env)  # type: ignore[arg-type]
            for target in stmt.targets:
                self._bind(env, target, value)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = lattice.infer(stmt.value, env)  # type: ignore[arg-type]
                self._bind(env, stmt.target, value)
            return env
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = env.get(stmt.target.id)
                update = lattice.infer(stmt.value, env)  # type: ignore[arg-type]
                joined = lattice.join(current, update)  # type: ignore[arg-type]
                if joined is None:
                    env.pop(stmt.target.id, None)
                else:
                    env[stmt.target.id] = joined
            return env
        if isinstance(stmt, ast.If):
            body_env = self._block(list(stmt.body), dict(env), events, emit)
            else_env = self._block(
                list(stmt.orelse), dict(env), events, emit
            )
            return self._merge([body_env, else_env])
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind(env, stmt.target, None)
            # Silent pre-pass so loop-carried facts are live when the
            # emitting pass records events inside the body.
            pre_env = self._block(list(stmt.body), dict(env), events, False)
            seeded = self._merge([env, pre_env])
            body_env = self._block(list(stmt.body), seeded, events, emit)
            else_env = self._block(
                list(stmt.orelse), dict(env), events, emit
            )
            return self._merge([env, body_env, else_env])
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    value = lattice.infer(  # type: ignore[arg-type]
                        item.context_expr, env
                    )
                    self._bind(env, item.optional_vars, value)
            return self._block(list(stmt.body), env, events, emit)
        if isinstance(stmt, ast.Try):
            body_env = self._block(list(stmt.body), dict(env), events, emit)
            branch_envs = [body_env]
            for handler in stmt.handlers:
                handler_env = dict(env)
                if handler.name is not None:
                    handler_env.pop(handler.name, None)
                branch_envs.append(
                    self._block(list(handler.body), handler_env, events, emit)
                )
            merged = self._merge(branch_envs)
            merged = self._block(list(stmt.orelse), merged, events, emit)
            return self._block(list(stmt.finalbody), merged, events, emit)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            env.pop(stmt.name, None)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                for name in _target_names(target):
                    env.pop(name, None)
            return env
        return env


def functions_in(tree: ast.Module) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    """Every function definition in a module, outermost first.

    Nested functions are yielded too (each opens a fresh abstract
    scope), so rules analyze every body exactly once.
    """
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
                stack.append(child)
            elif isinstance(child, (ast.ClassDef, ast.Module)):
                stack.append(child)
            elif isinstance(child, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
                stack.append(child)


__all__ = [
    "CallResolver",
    "FlowWalker",
    "PASSTHROUGH_CALLS",
    "TaintLattice",
    "UnitLattice",
    "UNIT_FAMILIES",
    "call_chain",
    "functions_in",
    "statement_expressions",
]
