"""Smoke-run the traffic generator against the service.

Usage::

    python -m repro.serve --tags 4 --seed 0 --load 4.0
    python -m repro.serve --smoke --obs-dir reports/obs

Generates a seeded Gen2-MAC traffic workload, replays it through a
fresh :class:`~repro.serve.service.LocalizationService`, prints the
throughput/latency table, and — when ``--obs-dir`` is given — writes
``serve.trace.jsonl`` and ``serve.metrics.json`` artifacts (the files
CI uploads).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import RFlyError
from repro.obs import (
    MetricsRegistry,
    Tracer,
    wall_clock_s,
    write_spans_jsonl,
)
from repro.obs import metrics as metrics_mod
from repro.obs import tracing as tracing_mod
from repro.scenarios.compiler import generate_workload
from repro.serve.config import ServeConfig
from repro.serve.shard import ShardConfig, run_sharded_workload
from repro.serve.traffic import ServeRunReport, run_workload


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Replay a generated traffic workload through the online "
            "localization service."
        ),
    )
    parser.add_argument(
        "--tags", type=int, default=4, help="tag population size"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed"
    )
    parser.add_argument(
        "--load",
        type=float,
        default=4.0,
        help="arrival-time compression factor (1.0 = real flight pace)",
    )
    parser.add_argument(
        "--latency-slo-ms",
        type=float,
        default=250.0,
        help="target p99 latency in milliseconds",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "consistent-hash shard the service across this many workers "
            "(>1 switches to partitioned capacity isolation; the "
            "numbers stay bit-identical to the partitioned unsharded "
            "service)"
        ),
    )
    parser.add_argument(
        "--shard-backend",
        choices=("serial", "process"),
        default="serial",
        help="how shard replays execute (only meaningful with --shards > 1)",
    )
    parser.add_argument(
        "--no-gen2",
        action="store_true",
        help="skip the Gen2 MAC (every powered tag reads at every pose)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run (3 tags, coarse grid) for CI",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="write serve.trace.jsonl / serve.metrics.json here",
    )
    return parser


def _render_report(report: ServeRunReport) -> str:
    """The fixed-width summary table of one replayed workload."""
    service = report.service
    lines = [
        "== serve: online localization service ==",
        f"offered updates      {report.offered}",
        f"applied updates      {service.updates_applied}",
        f"shed fraction        {report.shed_fraction:.3f}",
        f"degraded fraction    {report.degraded_fraction:.3f}",
        f"throughput (upd/s)   {report.throughput_per_s:.1f}",
        f"p50 latency (ms)     {service.p50_latency_s * 1e3:.2f}",
        f"p99 latency (ms)     {service.p99_latency_s * 1e3:.2f}",
    ]
    for session_id in sorted(report.estimates):
        estimate = report.estimates[session_id]
        lines.append(
            f"{session_id}: estimate ({estimate[0]:.3f}, {estimate[1]:.3f})"
            f"  error {report.errors_m[session_id]:.3f} m"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: a bad count or any typed error is one stderr
    line and exit 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, count in (("--tags", args.tags), ("--shards", args.shards)):
        if count < 1:
            parser.exit(2, f"{parser.prog}: error: {flag} must be >= 1, got {count}\n")
    try:
        return _run(args)
    except RFlyError as error:
        parser.exit(2, f"{parser.prog}: error: {error}\n")


def _run(args: argparse.Namespace) -> int:
    """Replay the workload the parsed flags describe and print its table."""
    n_tags = 3 if args.smoke else args.tags
    grid_resolution = 0.15 if args.smoke else 0.10
    config = ServeConfig(
        frequency_hz=UHF_CENTER_FREQUENCY,
        latency_slo_s=args.latency_slo_ms / 1e3,
    )
    tracer = Tracer()
    registry = MetricsRegistry()
    start_s = wall_clock_s()
    with tracing_mod.activated(tracer), metrics_mod.activated(registry):
        workload = generate_workload(
            "conveyor_flow_through",
            n_tags=n_tags,
            seed=args.seed,
            load=args.load,
            grid_resolution=grid_resolution,
            use_gen2_mac=not args.no_gen2,
        )
        if args.shards > 1:
            config = ServeConfig(
                frequency_hz=config.frequency_hz,
                latency_slo_s=config.latency_slo_s,
                capacity_mode="partitioned",
            )
            report = run_sharded_workload(
                workload,
                config,
                shards=ShardConfig(
                    n_shards=args.shards, backend=args.shard_backend
                ),
            )
        else:
            report = run_workload(workload, config)
    print(_render_report(report))
    if args.obs_dir is not None:
        obs_dir = Path(args.obs_dir)
        obs_dir.mkdir(parents=True, exist_ok=True)
        write_spans_jsonl(
            obs_dir / "serve.trace.jsonl", tracer.root_dicts()
        )
        registry.save_json(obs_dir / "serve.metrics.json")
        print(f"[obs artifacts written to {obs_dir}]")
    print(f"[serve replay finished in {wall_clock_s() - start_s:.1f} s]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI test
    raise SystemExit(main())
