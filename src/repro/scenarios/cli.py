"""Command-line front end for the scenario registry.

Usage::

    python -m repro.scenarios list                   # shipped names
    python -m repro.scenarios show cold_storage_aisles --format toml
    python -m repro.scenarios validate               # whole library
    python -m repro.scenarios validate my_world.toml # specific files
    python -m repro.scenarios run outdoor_yard --seed 3 --replicates 4
    python -m repro.scenarios run conveyor_flow_through --smoke \
        --set traffic.load=8.0

``validate`` re-parses each spec file and checks the canonical
round-trip (parse -> dump -> parse yields the identical spec), so it
doubles as the pre-commit/CI gate over ``repro/scenarios/library/``.
``run`` compiles the scenario to seeded sweep tasks and replays every
replicate end to end through the serving stack — the same path the
experiments take, so a scenario that passes here will sweep.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, RFlyError
from repro.runtime import RuntimeConfig, run_sweep
from repro.scenarios import compiler, registry, toml_codec
from repro.scenarios.spec import Scenario

#: ``--smoke`` floors: coarse enough that any library scenario replays
#: in seconds while still exercising the full realize/stream/serve path.
SMOKE_MIN_SPACING_M = 0.15
SMOKE_MIN_RESOLUTION_M = 0.20


def parse_set_overrides(items: Sequence[str]) -> Dict[str, Any]:
    """``KEY=VALUE`` tokens -> dotted-path override mapping.

    Values parse as JSON (``8.0`` -> float, ``true`` -> bool) with a
    plain-string fallback so unquoted names keep working.
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


def smoke_variant(scenario: Scenario) -> Scenario:
    """The coarsened spec ``run --smoke`` replays.

    Pose spacing and grid resolution are floored (never refined), so
    smoke runs stay cheap without touching scenarios that are already
    coarse; everything else — world, radio, traffic mix, faults — is
    exercised unchanged.
    """
    return replace(
        scenario,
        trajectory=replace(
            scenario.trajectory,
            spacing_m=max(scenario.trajectory.spacing_m, SMOKE_MIN_SPACING_M),
        ),
        grid=replace(
            scenario.grid,
            resolution_m=max(scenario.grid.resolution_m, SMOKE_MIN_RESOLUTION_M),
        ),
    )


def validate_files(paths: Sequence[Path]) -> List[str]:
    """Validate spec files; returns one error string per bad file.

    A file passes when it parses into a :class:`Scenario`, its stem
    matches the declared name, and the canonical round-trip (dump ->
    parse) reproduces the identical spec in both JSON and TOML.
    """
    problems: List[str] = []
    for path in paths:
        try:
            scenario = registry.load_file(path)
        except (ConfigurationError, OSError) as error:
            problems.append(f"{path}: {error}")
            continue
        if scenario.name != path.stem:
            problems.append(
                f"{path}: declares name {scenario.name!r}; "
                "the file stem must match"
            )
            continue
        if Scenario.from_json(scenario.to_json()) != scenario:
            problems.append(f"{path}: JSON round-trip is lossy")
            continue
        if (
            Scenario.from_dict(toml_codec.loads(toml_codec.dumps(scenario.to_dict())))
            != scenario
        ):
            problems.append(f"{path}: TOML round-trip is lossy")
    return problems


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.scenarios`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Inspect, validate, and run declarative scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered scenario names")

    show = commands.add_parser("show", help="print one resolved spec")
    show.add_argument("name", help="registry name or spec-file path")
    show.add_argument(
        "--format",
        choices=("toml", "json"),
        default="toml",
        help="output format (canonical TOML by default)",
    )

    validate = commands.add_parser(
        "validate", help="validate spec files (default: shipped library)"
    )
    validate.add_argument(
        "files",
        nargs="*",
        help="spec files to check (default: every library .toml)",
    )

    run = commands.add_parser(
        "run", help="compile a scenario and replay it end to end"
    )
    run.add_argument("name", help="registry name or spec-file path")
    run.add_argument("--seed", type=int, default=0, help="base sweep seed")
    run.add_argument(
        "--replicates",
        type=int,
        default=2,
        metavar="N",
        help="independently seeded end-to-end replicates (default: 2)",
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help="coarsen pose spacing / grid resolution for a fast pass",
    )
    run.add_argument(
        "--set",
        action="append",
        default=[],
        dest="scenario_sets",
        metavar="KEY=VALUE",
        help=(
            "dotted-path spec override (repeatable), "
            "e.g. --set traffic.load=8.0"
        ),
    )
    run.add_argument(
        "--parallel",
        action="store_true",
        help="fan replicates over a process pool (bit-identical)",
    )
    return parser


def _cmd_list() -> int:
    for name in registry.names():
        print(f"{name:<28} {registry.get(name).description}")
    return 0


def _cmd_show(name: str, fmt: str) -> int:
    scenario = registry.resolve(name)
    if fmt == "json":
        print(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
    else:
        print(toml_codec.dumps(scenario.to_dict()), end="")
    return 0


def _cmd_validate(files: Sequence[str]) -> int:
    paths = (
        [Path(item) for item in files]
        if files
        else sorted(registry.LIBRARY_DIR.glob("*.toml"))
    )
    if not paths:
        print("no scenario files to validate")
        return 1
    problems = validate_files(paths)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(paths) - len(problems)}/{len(paths)} scenario file(s) valid")
    return 1 if problems else 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = registry.resolve(args.name)
    overrides = parse_set_overrides(args.scenario_sets)
    if overrides:
        scenario = scenario.with_overrides(overrides)
    if args.smoke:
        scenario = smoke_variant(scenario)
    tasks = compiler.compile_scenario(
        scenario, n_replicates=args.replicates, seed=args.seed
    )
    runtime = RuntimeConfig(
        backend="process" if args.parallel else "serial"
    )
    sweep = run_sweep(tasks, runtime, name=f"scenario/{scenario.name}")
    rows = compiler.reduce_smoke(sweep.results, {})
    for row in rows:
        print(
            "r{replicate}: sessions={sessions} offered={offered} "
            "applied={applied} shed={shed_fraction:.3f} "
            "degraded={degraded_fraction:.3f} "
            "p99={p99:.2f}ms err={mean_error_m:.3f}m "
            "localized={localized}".format(
                p99=row["p99_latency_s"] * 1e3, **row
            )
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "show":
            return _cmd_show(args.name, args.format)
        if args.command == "validate":
            return _cmd_validate(args.files)
        return _cmd_run(args)
    except RFlyError as error:
        parser.exit(2, f"{parser.prog}: error: {error}\n")
