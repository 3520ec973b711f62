"""Command-line front end for the experiment sweep engine.

Usage::

    python -m repro.experiments list                # available names
    python -m repro.experiments run fig12 --trace   # one figure, traced
    python -m repro.experiments                     # everything, serial
    python -m repro.experiments fig12 fig13         # legacy bare names
    python -m repro.experiments --parallel --cache-dir .repro-cache
    python -m repro.experiments --smoke --manifest-dir reports/manifests

``--parallel`` fans tasks out over a process pool; results are
bit-identical to ``--serial`` because every task's seed is fixed before
dispatch. ``--cache-dir`` turns on the content-addressed result cache
(second runs are nearly free); ``--no-cache`` bypasses it without
deleting anything. ``--manifest-dir`` writes one JSON run manifest per
sweep with per-task wall time, cache hits, and result hashes.

Observability (``repro.obs``) flags:

``--trace``
    Record nested span trees (engine + per-task) and print the engine
    span tree after each experiment; with ``--obs-dir DIR`` also write
    ``<sweep>.trace.jsonl``.
``--metrics``
    Collect the metrics registry (cache hits/misses, tasks dispatched,
    grid points evaluated, ...) and print it; with ``--obs-dir DIR``
    also write ``<sweep>.metrics.json``.
``--profile`` / ``--trace-malloc``
    Per-task cProfile aggregation / peak traced allocations.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, RFlyError
from repro.experiments import registry
from repro.experiments.registry import ExperimentSpec
from repro.experiments.runner import ExperimentOutput
from repro.obs import (
    CProfileObserver,
    MetricsObserver,
    SweepObserver,
    TraceMallocObserver,
    TraceObserver,
    wall_clock_s,
)
from repro.runtime import RuntimeConfig

#: CLI alias -> registry spec, in registry order. Kept for backward
#: compatibility with callers that imported the old per-figure table.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.alias: spec for spec in registry.REGISTRY if spec.alias != spec.name
}

ALL_NAMES = tuple(spec.alias for spec in registry.REGISTRY)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (shared with ``python -m repro``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the RFly paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=(
            "'list', 'run NAME [NAME ...]', or bare experiment names "
            "(default: all figures + ablations)"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    backend = parser.add_mutually_exclusive_group()
    backend.add_argument(
        "--parallel",
        action="store_true",
        help="fan tasks out over a process pool (bit-identical to serial)",
    )
    backend.add_argument(
        "--serial",
        action="store_true",
        help="run tasks in-process in task order (the default)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker count for --parallel (default: CPU count)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (e.g. .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the cache entirely (neither read nor written)",
    )
    parser.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="write one JSON run manifest per sweep into this directory",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced trial counts (fast CI pass; tables still deterministic)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help=(
            "resolve geometry/traffic from this scenario (a registry "
            "name or a .toml/.json path) instead of the spec's default"
        ),
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="scenario_sets",
        metavar="KEY=VALUE",
        help=(
            "dotted-path override applied to the resolved scenario "
            "(repeatable), e.g. --set traffic.load=8.0; values parse "
            "as JSON with a plain-string fallback"
        ),
    )
    parser.add_argument(
        "--hours",
        type=float,
        default=None,
        metavar="H",
        help="soak: virtual horizon in hours (experiments with an "
        "'hours' knob only)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=float,
        default=None,
        dest="snapshot_every_s",
        metavar="SECONDS",
        help="soak: virtual seconds between metric snapshots",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="M",
        help="shard count (experiments with a scalar 'shards' knob only)",
    )
    parser.add_argument(
        "--trend-file",
        default=None,
        metavar="PATH",
        help="soak: trend file to append to (default: "
        "benchmarks/reports/SOAK_TREND.json)",
    )
    parser.add_argument(
        "--no-trend",
        action="store_true",
        help="soak: skip appending this run to the trend file",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record span trees and print the engine span tree per sweep",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print the metrics registry per sweep",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="aggregate per-task cProfile rows and print the top functions",
    )
    parser.add_argument(
        "--trace-malloc",
        action="store_true",
        help="record per-task peak traced allocations in the manifest",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="write trace JSONL / metrics JSON files into this directory",
    )
    return parser


def runtime_from_args(args: argparse.Namespace) -> RuntimeConfig:
    """Translate CLI flags into a :class:`RuntimeConfig`."""
    return RuntimeConfig(
        backend="process" if args.parallel else "serial",
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        manifest_dir=args.manifest_dir,
    )


def observers_from_args(args: argparse.Namespace) -> List[SweepObserver]:
    """Fresh observer instances for one experiment's sweeps."""
    observers: List[SweepObserver] = []
    if args.trace:
        observers.append(TraceObserver(out_dir=args.obs_dir))
    if args.metrics:
        observers.append(MetricsObserver(out_dir=args.obs_dir))
    if args.profile:
        observers.append(CProfileObserver())
    if args.trace_malloc:
        observers.append(TraceMallocObserver())
    return observers


def run_experiment(
    name: str,
    runtime: RuntimeConfig,
    smoke: bool = False,
    observers: Optional[Sequence[SweepObserver]] = None,
    **overrides: Any,
) -> List[ExperimentOutput]:
    """Run one named experiment and return its rendered outputs.

    Side-effect free — ``post_run`` hooks (e.g. the soak trend append)
    only fire from :func:`main`, so the golden and observer suites can
    call this freely.
    """
    return registry.run_experiment(
        name, runtime=runtime, smoke=smoke, observers=observers, **overrides
    ).outputs


def knob_overrides(
    parser: argparse.ArgumentParser,
    spec: ExperimentSpec,
    args: argparse.Namespace,
) -> Dict[str, Any]:
    """Scalar knob flags -> parameter overrides, validated per spec.

    A knob applies only when the spec's defaults carry the same key as
    a scalar (``--shards 4`` must not silently replace ``serve_scale``'s
    swept tuple); anything else is a usage error, not a typo-eating
    no-op.
    """
    knobs = {
        "hours": ("--hours", args.hours),
        "snapshot_every_s": ("--snapshot-every", args.snapshot_every_s),
        "shards": ("--shards", args.shards),
    }
    overrides: Dict[str, Any] = {}
    for key, (flag, value) in knobs.items():
        if value is None:
            continue
        default = spec.defaults.get(key)
        if key not in spec.defaults:
            parser.error(
                f"{flag} does not apply to experiment {spec.alias!r}"
            )
        if isinstance(default, (tuple, list)):
            parser.error(
                f"{flag} expects a scalar knob, but {spec.alias!r} "
                f"sweeps {key!r}; use the module API instead"
            )
        overrides[key] = value
    return overrides


def parse_set_overrides(items: Sequence[str]) -> Dict[str, Any]:
    """``KEY=VALUE`` tokens -> dotted-path override mapping.

    Values are parsed as JSON (``8.0`` -> float, ``true`` -> bool,
    ``[1,2]`` -> list) with a plain-string fallback, so unquoted names
    like ``--set traffic.mix=dense`` keep working.
    """
    overrides: Dict[str, Any] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--set expects KEY=VALUE, got {item!r}"
            )
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def scenario_override(
    spec: ExperimentSpec,
    scenario: Optional[str],
    set_items: Sequence[str],
) -> Optional[Any]:
    """The ``scenario=`` override implied by ``--scenario``/``--set``.

    Returns ``None`` when neither flag was given (spec default wins).
    With only ``--scenario`` the name/path passes through untouched —
    ``build_tasks`` resolves it. With ``--set`` the base scenario (the
    flag's, else the spec's) is resolved here and the dotted overrides
    are applied, yielding an anonymous :class:`Scenario`; precedence is
    therefore defaults < smoke < ``--scenario`` < ``--set``.
    """
    if scenario is None and not set_items:
        return None
    if not spec.scenario:
        raise ConfigurationError(
            f"experiment {spec.alias!r} does not resolve a single "
            "scenario; --scenario/--set do not apply"
        )
    base = scenario if scenario is not None else spec.scenario
    if not set_items:
        return base
    from repro.scenarios import registry as scenario_registry

    return scenario_registry.resolve(base).with_overrides(
        parse_set_overrides(set_items)
    )


def _observer_reports(observers: Sequence[SweepObserver]) -> List[str]:
    """Headed report blocks of the observers that produce one."""
    reports = []
    for observer in observers:
        if isinstance(observer, TraceObserver):
            reports.append(f"span tree:\n{observer.report()}")
        elif isinstance(observer, MetricsObserver):
            reports.append(f"metrics:\n{observer.report()}")
        elif isinstance(observer, CProfileObserver):
            reports.append(f"profile (top functions):\n{observer.report()}")
    return reports


def _resolve_names(
    parser: argparse.ArgumentParser, tokens: List[str]
) -> "tuple[List[str], bool]":
    """Interpret positional tokens -> (experiment names, list_requested).

    Supports the subcommand forms ``list`` and ``run NAME [NAME ...]``
    alongside the legacy bare-name form.
    """
    if tokens and tokens[0] == "list":
        if len(tokens) > 1:
            parser.error("'list' takes no further arguments")
        return [], True
    if tokens and tokens[0] == "run":
        tokens = tokens[1:]
    chosen = tokens or list(ALL_NAMES)
    for name in chosen:
        try:
            registry.get(name)
        except ConfigurationError as error:
            parser.error(str(error))
    return chosen, False


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    chosen, list_requested = _resolve_names(parser, args.experiments)
    if args.list or list_requested:
        for spec in registry.REGISTRY:
            print(f"{spec.alias:<10} {spec.description}")
        return 0

    runtime = runtime_from_args(args)
    for name in chosen:
        start_s = wall_clock_s()
        observers = observers_from_args(args)
        spec = registry.get(name)
        overrides: Dict[str, Any] = knob_overrides(parser, spec, args)
        try:
            scenario = scenario_override(
                spec, args.scenario, args.scenario_sets
            )
            if scenario is not None:
                overrides["scenario"] = scenario
            run = registry.run_experiment(
                spec, runtime=runtime, smoke=args.smoke,
                observers=observers, **overrides,
            )
        except RFlyError as error:
            parser.error(str(error))
        for output in run.outputs:
            print(output.report())
            print()
        for report in _observer_reports(observers):
            print(report)
            print()
        if spec.post_run is not None:
            message = spec.post_run(
                run,
                {
                    "trend_file": args.trend_file,
                    "no_trend": args.no_trend,
                },
            )
            if message:
                print(message)
                print()
        print(f"[{name} regenerated in {wall_clock_s() - start_s:.1f} s]")
        print()
    return 0
