"""Flow-sensitive and cross-module unit rules (``U110``–``U115``).

The per-file ``U10x`` rules only catch unit mixing spelled directly in
identifier suffixes. These rules close the gaps that actually bite in
a growing codebase:

* a suffix-less local that *holds* a decibel value (``loss =
  path_loss_db(...)``) mixed with a linear quantity statements later
  (U110, U115) or stored into a conflicting suffixed name (U114);
* a value crossing a call boundary into a parameter of a different
  dimension — resolved cross-module through the project model's symbol
  table (U111) — or returned from a function whose name promises a
  different unit (U112);
* the one mixing mode with a dedicated remedy: decibel values meeting
  linear power (watts) anywhere outside ``repro.dsp.units``, which is
  always a missing converter call (U113).

U113 owns every dB-vs-watts crossing; U110/U111/U112/U114/U115 skip
those pairs so each defect reports exactly one code. Pairs already
flagged by the suffix-only rules (both operands directly suffixed) are
likewise skipped — these rules report only what dataflow *added*.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.dataflow import (
    FlowWalker,
    UnitLattice,
    call_chain,
    functions_in,
    statement_expressions,
)
from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register
from repro.analysis.unitlang import (
    families_compatible_additive,
    family_of,
    operand_family,
)

#: The decibel-domain families and the linear-power family whose
#: crossings mean "someone forgot a repro.dsp.units converter".
_DECIBEL_FAMILIES = frozenset({"db", "dbm"})
_LINEAR_POWER_FAMILY = "watts"


def _is_db_linear_crossing(a: str, b: str) -> bool:
    """True when families ``a``/``b`` are a decibel-vs-watts pair."""
    return (a in _DECIBEL_FAMILIES and b == _LINEAR_POWER_FAMILY) or (
        b in _DECIBEL_FAMILIES and a == _LINEAR_POWER_FAMILY
    )


class _UnitFlowRule(Rule):
    """Shared traversal: walk every function with a live unit env."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Drive :meth:`check_site` over every statement of every scope."""
        lattice = UnitLattice(ctx.resolver())
        walker = FlowWalker(lattice)
        scopes: List[ast.AST] = [ctx.tree, *functions_in(ctx.tree)]
        for scope in scopes:
            for stmt, env in walker.walk(scope):  # type: ignore[arg-type]
                yield from self.check_site(ctx, lattice, stmt, env)

    def check_site(
        self,
        ctx: ModuleContext,
        lattice: UnitLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        """Inspect one statement under its live environment."""
        raise NotImplementedError


def _inferred_pair(
    lattice: UnitLattice,
    env: "dict[str, str]",
    left: ast.AST,
    right: ast.AST,
) -> Optional[Tuple[str, str]]:
    """Incompatible (left, right) families added by dataflow, else None.

    Returns None when either family is unknown, when the two are
    additively compatible, or when *both* operands carry the families
    directly in their suffixes — the suffix-only rules already own
    that case.
    """
    left_family = lattice.infer(left, env)
    right_family = lattice.infer(right, env)
    if left_family is None or right_family is None:
        return None
    if families_compatible_additive(left_family, right_family):
        return None
    if operand_family(left) is not None and operand_family(right) is not None:
        return None
    return left_family, right_family


def _describe(node: ast.AST) -> str:
    """Compact source rendering of an operand for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs
        return "<expression>"
    return text if len(text) <= 40 else text[:37] + "..."


@register
class FlowAdditiveMix(_UnitFlowRule):
    """U110: additive mixing of incompatible *propagated* unit families."""

    code = "U110"
    name = "flow-additive-unit-mix"
    severity = "error"

    def check_site(
        self,
        ctx: ModuleContext,
        lattice: UnitLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        for tree in statement_expressions(stmt):
            for node in ast.walk(tree):
                if not isinstance(node, ast.BinOp):
                    continue
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                pair = _inferred_pair(lattice, env, node.left, node.right)
                if pair is None or _is_db_linear_crossing(*pair):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"additive mix of '{_describe(node.left)}' "
                    f"({pair[0]}) and '{_describe(node.right)}' "
                    f"({pair[1]}) via dataflow",
                )


def _call_argument_bindings(
    node: ast.Call, params: Tuple[str, ...]
) -> Iterator[Tuple[str, ast.AST]]:
    """(parameter name, argument expression) pairs for a resolved call.

    Positional matching stops at the first ``*args`` splat; ``**kwargs``
    splats contribute nothing.
    """
    for index, arg in enumerate(node.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            yield params[index], arg
    for keyword in node.keywords:
        if keyword.arg is not None and keyword.arg in params:
            yield keyword.arg, keyword.value


@register
class CallArgumentUnitMismatch(_UnitFlowRule):
    """U111: argument unit family conflicts with the callee's parameter."""

    code = "U111"
    name = "call-argument-unit-mismatch"
    severity = "error"

    def check_site(
        self,
        ctx: ModuleContext,
        lattice: UnitLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        for tree in statement_expressions(stmt):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                chain = call_chain(node)
                if chain is None:
                    continue
                fn = lattice.resolve(chain)
                if fn is None:
                    continue
                for param, arg in _call_argument_bindings(node, fn.params):
                    param_family = fn.family_for_param(param)
                    if param_family is None:
                        continue
                    arg_family = lattice.infer(arg, env)
                    if arg_family is None or families_compatible_additive(
                        arg_family, param_family
                    ):
                        continue
                    if _is_db_linear_crossing(arg_family, param_family):
                        continue  # U113 owns the decibel/linear case
                    yield self.finding(
                        ctx,
                        node,
                        f"argument '{_describe(arg)}' ({arg_family}) "
                        f"bound to parameter '{param}' ({param_family}) "
                        f"of '{fn.symbol}'",
                    )


@register
class ReturnUnitMismatch(_UnitFlowRule):
    """U112: returned value's family conflicts with the function's suffix."""

    code = "U112"
    name = "return-unit-mismatch"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        lattice = UnitLattice(ctx.resolver())
        walker = FlowWalker(lattice)
        for fn in functions_in(ctx.tree):
            declared = family_of(fn.name)
            if declared is None:
                continue
            for stmt, env in walker.walk(fn):
                if not isinstance(stmt, ast.Return) or stmt.value is None:
                    continue
                returned = lattice.infer(stmt.value, env)  # type: ignore[arg-type]
                if returned is None or families_compatible_additive(
                    returned, declared
                ):
                    continue
                if _is_db_linear_crossing(returned, declared):
                    continue  # U113 owns the decibel/linear case
                yield self.finding(
                    ctx,
                    stmt,
                    f"'{fn.name}' promises {declared} but returns "
                    f"'{_describe(stmt.value)}' ({returned})",
                )

    def check_site(
        self,
        ctx: ModuleContext,
        lattice: UnitLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:  # pragma: no cover - custom check() above
        return iter(())


@register
class DbLinearCrossing(_UnitFlowRule):
    """U113: decibel value meets linear watts without a converter.

    Fires on any of the three hand-off points — additive arithmetic,
    call arguments against a resolved signature, assignments into a
    suffixed name — whenever one side is ``db``/``dbm`` and the other
    ``watts``. The remedy is always the same:
    ``repro.dsp.units.db_to_linear`` / ``linear_to_db`` /
    ``dbm_to_watts`` / ``watts_to_dbm``. The converter module itself is
    exempt via the default per-path ignores (it *is* the crossing).
    """

    code = "U113"
    name = "db-linear-crossing"
    severity = "error"

    _REMEDY = "; convert via repro.dsp.units"

    def check_site(
        self,
        ctx: ModuleContext,
        lattice: UnitLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        for tree in statement_expressions(stmt):
            for node in ast.walk(tree):
                if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
                ):
                    left = lattice.infer(node.left, env)
                    right = lattice.infer(node.right, env)
                    if (
                        left is not None
                        and right is not None
                        and _is_db_linear_crossing(left, right)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"'{_describe(node.left)}' ({left}) and "
                            f"'{_describe(node.right)}' ({right}) mix "
                            f"decibel and linear power{self._REMEDY}",
                        )
                elif isinstance(node, ast.Call):
                    chain = call_chain(node)
                    fn = None if chain is None else lattice.resolve(chain)
                    if fn is None:
                        continue
                    for param, arg in _call_argument_bindings(
                        node, fn.params
                    ):
                        param_family = fn.family_for_param(param)
                        arg_family = lattice.infer(arg, env)
                        if (
                            param_family is not None
                            and arg_family is not None
                            and _is_db_linear_crossing(
                                arg_family, param_family
                            )
                        ):
                            yield self.finding(
                                ctx,
                                node,
                                f"argument '{_describe(arg)}' "
                                f"({arg_family}) bound to parameter "
                                f"'{param}' ({param_family}) of "
                                f"'{fn.symbol}'{self._REMEDY}",
                            )
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None:
                return
            value_family = lattice.infer(value, env)
            if value_family is None:
                return
            for target in targets:
                target_family = operand_family(target)
                if target_family is not None and _is_db_linear_crossing(
                    value_family, target_family
                ):
                    yield self.finding(
                        ctx,
                        stmt,
                        f"assigning '{_describe(value)}' ({value_family}) "
                        f"to '{_describe(target)}' ({target_family}) mixes "
                        f"decibel and linear power{self._REMEDY}",
                    )


@register
class FlowAssignmentUnitMismatch(_UnitFlowRule):
    """U114: inferred value family conflicts with a suffixed target."""

    code = "U114"
    name = "flow-assignment-unit-mismatch"
    severity = "error"

    def check_site(
        self,
        ctx: ModuleContext,
        lattice: UnitLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        value = stmt.value
        if value is None:
            return
        if operand_family(value) is not None:
            return  # direct suffixed identifier: U102 owns this
        value_family = lattice.infer(value, env)
        if value_family is None:
            return
        for target in targets:
            target_family = operand_family(target)
            if target_family is None:
                continue
            if families_compatible_additive(target_family, value_family):
                continue
            if _is_db_linear_crossing(value_family, target_family):
                continue  # U113 owns the decibel/linear case
            yield self.finding(
                ctx,
                stmt,
                f"assigning '{_describe(value)}' ({value_family}) to "
                f"'{_describe(target)}' ({target_family}) mixes unit "
                "families via dataflow",
            )


@register
class FlowComparisonUnitMismatch(_UnitFlowRule):
    """U115: comparison across incompatible *propagated* unit families."""

    code = "U115"
    name = "flow-comparison-unit-mismatch"
    severity = "error"

    def check_site(
        self,
        ctx: ModuleContext,
        lattice: UnitLattice,
        stmt: ast.stmt,
        env: "dict[str, str]",
    ) -> Iterator[Finding]:
        for tree in statement_expressions(stmt):
            for node in ast.walk(tree):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                for a, b in zip(operands, operands[1:]):
                    pair = _inferred_pair(lattice, env, a, b)
                    if pair is None or _is_db_linear_crossing(*pair):
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        f"comparing '{_describe(a)}' ({pair[0]}) with "
                        f"'{_describe(b)}' ({pair[1]}) via dataflow",
                    )
