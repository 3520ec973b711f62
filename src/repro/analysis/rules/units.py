"""Unit-suffix discipline and dB/linear hygiene rules (``U1xx``).

The package-wide convention (see ``repro/constants.py`` and DESIGN.md
§8) is that every identifier holding a physical quantity spells its
unit as a trailing snake-case token: ``power_dbm``, ``distance_m``,
``cutoff_hz``, ``phase_rad``. These rules turn that convention into a
checked contract: quantities without a suffix are flagged where the
name makes the physical dimension obvious, and arithmetic or
assignment mixing *conflicting* suffixes is an error.

Two deliberate limits keep the checker honest rather than clever:

* Only identifier-shaped operands (names and attribute accesses) carry
  unit information; expressions are not dimension-inferred.
* Same-dimension scale mixing (``_m`` + ``_mm``) is allowed — the
  families below model dimensions, not scales.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register
from repro.analysis.unitlang import (
    families_compatible_additive,
    family_of,
    has_physical_stem,
    head_noun_is_physical_stem,
    identifier_name,
    operand_family,
    suffix_of,
)


def _is_number(node: ast.AST, value: float) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and float(node.value) == value
    )


@register
class UnitSuffixMissing(Rule):
    """U101: physical-quantity names must carry a unit suffix."""

    code = "U101"
    name = "unit-suffix-missing"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        allowed = set(ctx.config.allowed_unsuffixed)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                if (
                    node.name not in allowed
                    and head_noun_is_physical_stem(node.name)
                    and suffix_of(node.name) is None
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"public function '{node.name}' returns a physical "
                        "quantity but has no unit suffix",
                    )
                for arg in _public_args(node):
                    if self._violates(arg.arg, allowed):
                        yield self.finding(
                            ctx,
                            arg,
                            f"parameter '{arg.arg}' of '{node.name}' names a "
                            "physical quantity but has no unit suffix",
                        )
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        field = stmt.target.id
                        if not field.startswith("_") and self._violates(field, allowed):
                            yield self.finding(
                                ctx,
                                stmt,
                                f"field '{field}' of '{node.name}' names a "
                                "physical quantity but has no unit suffix",
                            )

    @staticmethod
    def _violates(name: str, allowed: "set[str]") -> bool:
        return (
            name not in allowed
            and has_physical_stem(name)
            and suffix_of(name) is None
        )


def _public_args(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> Iterator[ast.arg]:
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg in ("self", "cls") or arg.arg.startswith("_"):
            continue
        yield arg


@register
class ConflictingUnitAssignment(Rule):
    """U102: ``x_db = y_watts`` — assignment across dimension families."""

    code = "U102"
    name = "conflicting-unit-assignment"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: Tuple[ast.AST, ...]
            if isinstance(node, ast.Assign):
                targets, value = tuple(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = (node.target,), node.value
            else:
                continue
            value_name = identifier_name(value)
            value_family = family_of(value_name) if value_name else None
            if value_family is None:
                continue
            for target in targets:
                target_name = identifier_name(target)
                target_family = family_of(target_name) if target_name else None
                if target_family is None or target_family == value_family:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"assigning '{value_name}' ({value_family}) to "
                    f"'{target_name}' ({target_family}) mixes unit families",
                )


@register
class ConflictingUnitAdditiveMix(Rule):
    """U103: additive mixing of incompatible unit families."""

    code = "U103"
    name = "conflicting-unit-additive-mix"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left, right = operand_family(node.left), operand_family(node.right)
            if left and right and not families_compatible_additive(left, right):
                yield self.finding(
                    ctx,
                    node,
                    f"additive mix of '{identifier_name(node.left)}' ({left}) "
                    f"and '{identifier_name(node.right)}' ({right})",
                )


@register
class DecibelMultiplication(Rule):
    """U104: two decibel quantities multiplied — dB composes by addition."""

    code = "U104"
    name = "db-multiplication"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
                continue
            left, right = operand_family(node.left), operand_family(node.right)
            if left in ("db", "dbm") and right in ("db", "dbm"):
                yield self.finding(
                    ctx,
                    node,
                    f"multiplying '{identifier_name(node.left)}' and "
                    f"'{identifier_name(node.right)}': decibel quantities "
                    "compose additively; convert with repro.dsp.units first",
                )


@register
class ConflictingUnitComparison(Rule):
    """U105: comparing identifiers across dimension families."""

    code = "U105"
    name = "conflicting-unit-comparison"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for a, b in zip(operands, operands[1:]):
                left, right = operand_family(a), operand_family(b)
                if left and right and not families_compatible_additive(left, right):
                    yield self.finding(
                        ctx,
                        node,
                        f"comparing '{identifier_name(a)}' ({left}) with "
                        f"'{identifier_name(b)}' ({right})",
                    )


@register
class RawDbConversion(Rule):
    """U106: inline ``10**(x/10)`` / ``10*log10(x)`` outside the converters.

    Power-domain dB conversions must go through
    :func:`repro.dsp.units.db_to_linear` / ``linear_to_db`` (and the
    dBm/watts wrappers) so ``-inf`` and zero-power edge cases are
    handled in exactly one place. Amplitude-domain ``20 log10`` forms
    have no shared converter and are not flagged.
    """

    code = "U106"
    name = "raw-db-conversion"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, ast.Pow) and _is_number(node.left, 10.0):
                exponent = node.right
                if isinstance(exponent, ast.UnaryOp):
                    exponent = exponent.operand
                if (
                    isinstance(exponent, ast.BinOp)
                    and isinstance(exponent.op, ast.Div)
                    and _is_number(exponent.right, 10.0)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "inline 10**(x/10); use repro.dsp.units.db_to_linear",
                    )
            elif isinstance(node.op, ast.Mult):
                for factor, other in ((node.left, node.right), (node.right, node.left)):
                    if _is_number(factor, 10.0) and _is_log10_call(other):
                        yield self.finding(
                            ctx,
                            node,
                            "inline 10*log10(x); use repro.dsp.units.linear_to_db",
                        )
                        break


def _is_log10_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "log10"
    return isinstance(func, ast.Name) and func.id == "log10"
