"""Observability rules (``O5xx``).

Timing belongs to the tracing layer: spans carry wall/CPU time into run
manifests, and :func:`repro.obs.tracing.wall_clock_s` is the sanctioned
raw clock for CLI status lines. Ad-hoc ``time.perf_counter()``
stopwatches scattered through library code bypass that surface — their
measurements never reach a manifest, a trace file, or the metrics
registry — and a clock read in library code can reach a seed or a
result and break bit-identical replay.

Buffering belongs to the serving layer for the same reason: an
unbounded ``deque``/``queue.Queue`` hides backlog growth that
``repro.serve``'s bounded queues would expose as gauges and shed
counters.

Routing belongs to the shard ring: Python's builtin ``hash()`` is
salted per process (``PYTHONHASHSEED``), so any key-to-worker mapping
derived from it silently disagrees between the router and its workers.
``repro.serve.shard.ShardRing`` hashes with a keyed blake2b digest that
is stable across processes, machines, and interpreter versions.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding
from repro.analysis.rules.base import ModuleContext, Rule, register

#: Path fragments of the packages allowed to read clocks directly: the
#: tracing layer itself and the engine that records task wall times.
CLOCK_EXEMPT_FRAGMENTS = ("repro/obs/", "repro/runtime/")

#: ``time`` module functions that read a clock.
CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock",
    }
)


#: The ``repro.obs`` clock helpers, sanctioned for CLI status lines.
OBS_CLOCK_HELPERS = frozenset({"wall_clock_s", "cpu_clock_s"})

#: File names of the CLI entry modules, the one place outside the
#: exempt packages where a status line may read a clock helper.
CLI_ENTRY_MODULES = frozenset({"cli.py", "__main__.py"})

#: ``datetime`` calls that read the calendar clock: (owner, method).
CALENDAR_CLOCKS = frozenset(
    {("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"), ("date", "today")}
)

#: Imported names O501 follows through ``as`` renames.
ALIASED_CLOCK_NAMES = OBS_CLOCK_HELPERS | {"datetime", "date"}


#: Path fragments allowed to build raw deques/queues: the serving layer
#: owns admission control (``BoundedBuffer`` checks capacity explicitly
#: because ``maxlen`` would silently drop the wrong end).
QUEUE_EXEMPT_FRAGMENTS = ("repro/serve/",)

#: ``queue`` module classes whose default construction is unbounded.
QUEUE_CLASSES = frozenset({"Queue", "LifoQueue", "PriorityQueue"})


def _is_exempt(ctx: ModuleContext) -> bool:
    path = ctx.path.replace("\\", "/")
    return any(fragment in path for fragment in CLOCK_EXEMPT_FRAGMENTS)


def _is_queue_exempt(ctx: ModuleContext) -> bool:
    path = ctx.path.replace("\\", "/")
    return any(fragment in path for fragment in QUEUE_EXEMPT_FRAGMENTS)


@register
class AdHocTiming(Rule):
    """O501: clock reads outside ``repro.obs``/``repro.runtime``.

    A ``time.perf_counter()`` pair is an untracked span: its duration
    is printed or dropped instead of landing in the run manifest. Wrap
    the region in ``repro.obs.tracing.span(...)``. The raw helpers
    ``repro.obs.wall_clock_s()``/``cpu_clock_s()`` and the calendar
    clock (``datetime.now()``, ``date.today()``, ...) are allowed only
    in CLI entry modules (``cli.py``, ``__main__.py``), for status
    lines: anywhere else a clock value can reach a seed, a task
    payload or a result row and break bit-identical replay.
    """

    code = "O501"
    name = "ad-hoc-timing"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _is_exempt(ctx):
            return
        is_cli = ctx.path.replace("\\", "/").rsplit("/", 1)[-1] in CLI_ENTRY_MODULES
        aliases: "dict[str, str]" = {}  # `import wall_clock_s as now` -> now
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.asname and alias.name in ALIASED_CLOCK_NAMES:
                        aliases[alias.asname] = alias.name
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                message = _clock_call_message(node.func, aliases, is_cli)
                if message is not None:
                    yield self.finding(ctx, node, message)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    for alias in node.names:
                        if alias.name in CLOCK_FUNCTIONS:
                            yield self.finding(
                                ctx,
                                node,
                                f"importing {alias.name} from time for ad-hoc "
                                "timing; use a repro.obs.tracing span (or, in "
                                "a CLI entry module, repro.obs.wall_clock_s)",
                            )


def _clock_call_message(func: ast.AST, aliases: "dict[str, str]", is_cli: bool) -> Optional[str]:
    """The O501 message for a call of ``func``, or None when it reads no clock."""
    owner: Optional[ast.AST] = None
    if isinstance(func, ast.Name):
        name = aliases.get(func.id, func.id)
    elif isinstance(func, ast.Attribute):
        name, owner = func.attr, func.value
    else:
        return None
    owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
    if isinstance(owner, ast.Name) and owner_name == "time" and name in CLOCK_FUNCTIONS:
        return (
            f"ad-hoc time.{name}() timing; use a repro.obs.tracing span "
            "(or, in a CLI entry module, repro.obs.wall_clock_s)"
        )
    if is_cli:
        return None
    if name in OBS_CLOCK_HELPERS:
        return "repro.obs clock helper outside a CLI entry module; use a repro.obs.tracing span"
    owner_name = aliases.get(owner_name or "", owner_name)
    if (owner_name, name) in CALENDAR_CLOCKS:
        return f"{owner_name}.{name}() reads the calendar clock outside a CLI entry module"
    return None


def _has_bound_argument(node: ast.Call, keyword: str) -> bool:
    """Whether a deque/queue constructor call passes a real bound.

    ``deque(items)`` and ``Queue()`` are unbounded; so are the explicit
    ``maxlen=None`` / ``maxsize=0`` spellings. A non-``None``/non-zero
    keyword, a second positional argument (``deque``'s ``maxlen``), or
    anything dynamic (``*args`` / ``**kwargs``) counts as bounded.
    """
    if keyword == "maxlen" and len(node.args) >= 2:
        return not (
            isinstance(node.args[1], ast.Constant)
            and node.args[1].value is None
        )
    if keyword == "maxsize" and len(node.args) >= 1:
        return not (
            isinstance(node.args[0], ast.Constant)
            and node.args[0].value in (0, None)
        )
    for kw in node.keywords:
        if kw.arg is None:  # **kwargs — assume the caller bounds it
            return True
        if kw.arg == keyword:
            if isinstance(kw.value, ast.Constant):
                return kw.value.value not in (0, None)
            return True
    return False


@register
class UnboundedQueue(Rule):
    """O502: unbounded ``deque``/``queue.Queue`` growth outside serving.

    A queue without a capacity is a latent memory leak under sustained
    load: nothing sheds when the producer outruns the consumer. Library
    code should pass ``deque(maxlen=...)`` / ``Queue(maxsize=...)`` or
    route buffering through ``repro.serve``'s admission-controlled
    :class:`~repro.serve.queueing.BoundedBuffer`, which is why only the
    ``repro.serve`` package is exempt.
    """

    code = "O502"
    name = "unbounded-queue"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _is_queue_exempt(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                owner = func.value.id
                if (owner, func.attr) == ("collections", "deque"):
                    name = "deque"
                elif owner == "queue" and (
                    func.attr in QUEUE_CLASSES or func.attr == "SimpleQueue"
                ):
                    name = func.attr
            if name == "deque":
                if not _has_bound_argument(node, "maxlen"):
                    yield self.finding(
                        ctx,
                        node,
                        "unbounded deque(); pass maxlen=... or use "
                        "repro.serve's admission-controlled BoundedBuffer",
                    )
            elif name in QUEUE_CLASSES:
                if not _has_bound_argument(node, "maxsize"):
                    yield self.finding(
                        ctx,
                        node,
                        f"unbounded queue.{name}(); pass a positive "
                        "maxsize=... so producers back-pressure",
                    )
            elif name == "SimpleQueue":
                yield self.finding(
                    ctx,
                    node,
                    "queue.SimpleQueue cannot be bounded; use "
                    "queue.Queue(maxsize=...) instead",
                )


def _enclosing_function_names(tree: ast.AST) -> "dict[ast.AST, str]":
    """Map each node to the name of its nearest enclosing function."""
    owners: "dict[ast.AST, str]" = {}

    def visit(node: ast.AST, current: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        for child in ast.iter_child_nodes(node):
            owners[child] = current
            visit(child, current)

    visit(tree, "")
    return owners


@register
class SaltedHashRouting(Rule):
    """O503: builtin ``hash()`` — salted, so never routing-stable.

    ``hash(tag_id) % n_shards`` looks like consistent routing but is
    randomized per interpreter process (PYTHONHASHSEED), so a router
    and its pool workers can disagree about who owns a session, and a
    replayed run cannot reproduce yesterday's placement. Shard and
    session routing must go through
    :class:`repro.serve.shard.ShardRing` (or another keyed
    ``hashlib`` digest) instead. Delegating ``hash()`` calls inside a
    ``__hash__`` implementation are exempt — in-process dict identity
    is exactly what the builtin is for.
    """

    code = "O503"
    name = "salted-hash-routing"
    severity = "error"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        owners = None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_builtin_hash = (
                isinstance(func, ast.Name) and func.id == "hash"
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "hash"
                and isinstance(func.value, ast.Name)
                and func.value.id == "builtins"
            )
            if not is_builtin_hash:
                continue
            if owners is None:
                owners = _enclosing_function_names(ctx.tree)
            if owners.get(node) == "__hash__":
                continue
            yield self.finding(
                ctx,
                node,
                "builtin hash() is salted per process (PYTHONHASHSEED) "
                "and cannot route keys deterministically; use "
                "repro.serve.shard.ShardRing or a keyed hashlib digest",
            )
