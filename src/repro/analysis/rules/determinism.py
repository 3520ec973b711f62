"""Determinism rules (``R3xx``).

Every figure reproduction must regenerate bit-identically from its
seed, so library code never owns hidden randomness: RNGs are injected
as ``np.random.Generator`` instances seeded by the caller (the
convention of the trial builders in ``repro/scenarios/trials.py``), and
fallbacks derive from a documented fixed seed. These rules ban the
three ways nondeterminism has historically crept in.
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


@register
class UnseededDefaultRng(Rule):
    """R301: argless ``np.random.default_rng()`` is nondeterministic."""

    code = "R301"
    name = "unseeded-default-rng"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _np_random_attr(node.func)
            is_bare_name = (
                isinstance(node.func, ast.Name) and node.func.id == "default_rng"
            )
            if (attr == "default_rng" or is_bare_name) and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    "np.random.default_rng() without a seed; inject an rng "
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


@register
class StdlibRandomImport(Rule):
    """R303: stdlib ``random`` in library code."""

    code = "R303"
    name = "stdlib-random-import"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib random is unseedable per-call; use an "
                            "injected np.random.Generator",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        ctx,
                        node,
                        "stdlib random is unseedable per-call; use an "
                        "injected np.random.Generator",
                    )
