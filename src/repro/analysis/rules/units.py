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
from typing import Iterator, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register

#: unit suffix token -> dimension family
UNIT_FAMILIES = {
    "db": "db",
    "dbi": "db",
    "dbc": "db",
    "dbm": "dbm",
    "hz": "hz",
    "khz": "hz",
    "mhz": "hz",
    "ghz": "hz",
    "m": "m",
    "mm": "m",
    "cm": "m",
    "km": "m",
    "meters": "m",
    "s": "s",
    "ms": "s",
    "us": "s",
    "ns": "s",
    "sec": "s",
    "seconds": "s",
    "rad": "angle",
    "deg": "angle",
    "watts": "watts",
    "mw": "watts",
    "ppm": "ppm",
}

#: snake-case tokens whose presence marks an identifier as physical.
#: Kept to tokens whose dimension is unambiguous in RF code so U101
#: stays high-precision; dimensionless names (``rate``, ``snr`` as a
#: bare ratio, ``gain`` of a linear amplifier object) are indirected
#: through the suffix lexicon instead.
PHYSICAL_STEMS = frozenset(
    {
        "frequency",
        "freq",
        "wavelength",
        "bandwidth",
        "cutoff",
        "distance",
        "spacing",
        "separation",
        "altitude",
        "aperture",
        "wattage",
        "dwell",
        "latency",
        "azimuth",
        "elevation",
        "attenuation",
        "isolation",
    }
)

#: Families that may mix additively / in comparisons: adding a dB gain
#: to a dBm power yields dBm, and dBm - dBm yields dB, so the decibel
#: families are mutually compatible.
_ADDITIVE_COMPATIBLE = frozenset({frozenset({"db", "dbm"})})


def suffix_of(name: str) -> Optional[str]:
    """The unit-suffix token of ``name`` (lowercased), or None.

    Only underscore-separated trailing tokens count, so a variable
    named plainly ``m`` or ``s`` carries no unit claim.
    """
    lowered = name.lower()
    if "_" not in lowered:
        return None
    token = lowered.rsplit("_", 1)[1]
    return token if token in UNIT_FAMILIES else None


def family_of(name: str) -> Optional[str]:
    """The dimension family of ``name``'s unit suffix, or None.

    Ratio names (``noise_dbm_per_hz``) take the *numerator*'s family:
    a dBm/Hz density plus a dB(Hz) bandwidth term is a dBm power, so
    treating the density as decibel-family keeps the canonical noise-
    floor sum (``N = kTB`` in dB form) clean while still flagging a
    density added to, say, a distance.
    """
    lowered = name.lower()
    if "_per_" in lowered:
        numerator = lowered.split("_per_", 1)[0]
        token = numerator.rsplit("_", 1)[-1]
        return UNIT_FAMILIES.get(token)
    token = suffix_of(name)
    return UNIT_FAMILIES[token] if token else None


def identifier_name(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a Name/Attribute operand, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def operand_family(node: ast.AST) -> Optional[str]:
    """Dimension family claimed by an identifier-shaped operand."""
    name = identifier_name(node)
    return family_of(name) if name else None


def families_compatible_additive(a: str, b: str) -> bool:
    """Whether families ``a`` and ``b`` may be added/subtracted/compared."""
    return a == b or frozenset({a, b}) in _ADDITIVE_COMPATIBLE


def has_physical_stem(name: str) -> bool:
    """True when a snake-case token of ``name`` is a physical stem."""
    return any(tok in PHYSICAL_STEMS for tok in name.lower().split("_"))


def head_noun_is_physical_stem(name: str) -> bool:
    """True when the *last* snake-case token of ``name`` is a physical stem.

    Used for function names, where the head noun is what the function
    returns: a bare ``carrier_frequency`` returns a frequency and needs
    a suffix, ``frequency_shift_ablation`` returns an ablation result
    and does not.
    """
    return name.lower().rsplit("_", 1)[-1] in PHYSICAL_STEMS


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
