"""The ledger's metric and layer tables: the one place they are defined.

End-to-end metrics carry a regression bound: the share of the baseline
median by which a change may worsen the metric before ``compare`` calls
it regressed. A bound of ``0.0`` marks a simulated metric, which a pure
speed change must leave bit-identical. ``contract`` marks the metrics
listed in the repository's ``BENCHMARK.json``; ``test_ledger.py`` keeps
that file and these tables in step.

This module imports nothing from ``repro``, so the launcher can print
tables and fail cleanly where the program is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

#: Seconds one run measures unless told otherwise (``run_seconds``).
DEFAULT_SECONDS = 15

#: The workloads, in the order runs and tables list them.
WORKLOAD_NAMES = ("dense_inventory", "fine_stream", "fleet_soak", "fig12_regen")


@dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    contract: bool = True
    #: Priced by the virtual clock, not measured on the host.
    modeled: bool = False

    @property
    def label(self) -> str:
        """The name as printed: virtual-clock numbers say so."""
        return self.name + (" (modeled)" if self.modeled else "")

    @property
    def bound_text(self) -> str:
        if self.bound is None:
            return ""
        return "exact" if self.bound == 0 else f"{self.bound:.0%}"


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("reads_per_s", "1/s", "higher", 0.25),
    # Serve workloads only: the batch path has no per-read call.
    Metric("read_p50_ms", "ms", "lower", 0.25, contract=False),
    Metric("fix_p50_ms", "ms", "lower", 0.25),
    # Its spread between seeds (12-21 %) is too close to the largest
    # bound the contract allows, so only compare gates it.
    Metric("fix_p90_ms", "ms", "lower", 0.25, contract=False),
    Metric("peak_rss_bytes", "bytes", "lower", 0.05),
    # Simulated: differ between seeds, identical between sets of one seed.
    Metric("median_error_m", "m", "lower", 0.0, contract=False),
    Metric("p90_error_m", "m", "lower", 0.0, contract=False),
    Metric("failed_fraction", "ratio", "lower", 0.0, contract=False),
    Metric(
        "virtual_p99_ms", "ms", "lower", 0.0, contract=False, modeled=True
    ),
)


@dataclass(frozen=True)
class Target:
    """One public callable the traced run wraps.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside ``module``;
    ``count`` optionally turns ``(args, result)`` of a call into a work
    count recorded under ``counter``.
    """

    module: str
    attr: str
    counter: Optional[str] = None
    count: Optional[Callable[[Tuple[Any, ...], Any], int]] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass(frozen=True)
class Layer:
    """A named slice of the program and the boundaries that enter it."""

    name: str
    targets: Tuple[Target, ...]
    #: The end-to-end metric this layer's time should move.
    moves: str


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "gen2",
        (
            Target(
                "repro.sim.events",
                "inventory_at_pose",
                counter="gen2.reads",
                count=lambda args, result: len(result),
            ),
        ),
        "reads_per_s",
    ),
    Layer(
        "channel",
        (Target("repro.channel.environment", "Environment.channel"),),
        "reads_per_s",
    ),
    Layer(
        "measure",
        (
            Target(
                "repro.localization.measurement", "MeasurementModel.measure"
            ),
        ),
        "reads_per_s",
    ),
    Layer(
        "scenarios",
        (
            Target("repro.scenarios.compiler", "generate_workload"),
            Target("repro.scenarios.trials", "warehouse_trial"),
        ),
        "reads_per_s",
    ),
    Layer(
        "fleet",
        (Target("repro.fleet.workload", "generate_fleet_workload"),),
        "reads_per_s",
    ),
    Layer(
        "serve.ingest",
        (Target("repro.serve.service", "LocalizationService.submit"),),
        "read_p50_ms",
    ),
    Layer(
        "serve.step",
        (Target("repro.serve.service", "LocalizationService.step"),),
        "read_p50_ms",
    ),
    Layer(
        "serve.fold",
        (
            Target(
                "repro.serve.service",
                "fold_blocks",
                counter="serve.fold.blocks",
                count=lambda args, result: len(args[0]),
            ),
        ),
        "read_p50_ms",
    ),
    Layer(
        "serve.finalize",
        (Target("repro.serve.service", "LocalizationService.finalize"),),
        "fix_p50_ms",
    ),
    Layer(
        "localization.update",
        (Target("repro.localization.incremental", "IncrementalSar.update"),),
        "fix_p90_ms",
    ),
    Layer(
        "localization.finalize",
        (Target("repro.serve.session", "finalize_segments"),),
        "fix_p50_ms",
    ),
    Layer(
        "localization.locate",
        (Target("repro.localization.pipeline", "Localizer.locate"),),
        "fix_p50_ms",
    ),
    Layer(
        "serve.shard",
        (
            Target("repro.serve.shard", "ShardRing.route"),
            Target("repro.serve.shard", "merge_service_reports"),
        ),
        "read_p50_ms",
    ),
)

#: Serve layers whose host time the cost-model calibration sums.
SERVE_ENTRY_LAYERS = ("serve.ingest", "serve.step", "serve.finalize")


def _layer_metrics() -> Tuple[Metric, ...]:
    metrics = []
    for layer in LAYERS:
        metrics += [
            Metric(f"{layer.name}.calls", "count", "lower"),
            Metric(f"{layer.name}.busy_s", "s", "lower", contract=False),
            Metric(f"{layer.name}.cpu_s", "s", "lower", contract=False),
            Metric(f"{layer.name}.share_ratio", "ratio", "lower"),
        ]
    # Host-time percentiles read 0 where a workload never enters the
    # layer, so they stay in the ledger and out of the contract.
    metrics += [
        Metric("gen2.reads", "count", "higher"),
        Metric("serve.fold.blocks", "count", "lower"),
        Metric("serve.ingest.p99_ms", "ms", "lower", contract=False),
        Metric("serve.step.p99_ms", "ms", "lower", contract=False),
        Metric("serve.finalize.p90_ms", "ms", "lower", contract=False),
        Metric("serve.applied", "count", "higher"),
        Metric("serve.shed", "count", "lower"),
        Metric("serve.rejected", "count", "lower"),
        Metric("serve.lost", "count", "lower"),
        Metric("serve.catchup_poses", "count", "lower"),
        Metric("serve.handoffs", "count", "lower"),
        Metric("serve.degraded_fraction", "ratio", "lower", modeled=True),
        # Host time of the serve entry calls over the virtual busy time
        # the cost model charged for them.
        Metric("serve.cost_model_ratio", "ratio", "lower", modeled=True),
        Metric("faults.injected", "count", "lower"),
        Metric("ledger.coverage_ratio", "ratio", "higher"),
        Metric("ledger.unattributed_s", "s", "lower"),
        Metric("ledger.tracing_overhead_ratio", "ratio", "lower"),
    ]
    return tuple(metrics)


PER_LAYER: Tuple[Metric, ...] = _layer_metrics()


def contract_metrics(table: Sequence[Metric]) -> Tuple[Metric, ...]:
    """The metrics of ``table`` that ``BENCHMARK.json`` lists."""
    return tuple(metric for metric in table if metric.contract)
