"""The experiment registry: one spec shape for all nine experiments.

Historically every figure module exposed its own ad-hoc
``run(...)`` signature. The registry replaces that with a single
:class:`ExperimentSpec` per experiment:

``build_tasks(**params)``
    Pure: parameters -> the sweep's :class:`~repro.runtime.SweepTask`
    list, preserving each figure's exact seed scheme.
``reduce(payloads, params)``
    Pure: payloads (in task order) + the same parameters -> the
    figure's structured result. Grouping is rebuilt deterministically
    from ``params`` (never from shared state), so a cached, parallel,
    or observed run reduces identically.
``render(result)``
    The result -> its :class:`~repro.experiments.runner.ExperimentOutput`
    tables.

:func:`run_experiment` threads any :mod:`repro.obs` observers straight
into :func:`~repro.runtime.run_sweep`, which is how
``python -m repro.experiments run <name> --trace --metrics`` attaches
tracing without the figure modules knowing about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.experiments import (
    ablations,
    fig4_spectrum,
    fig6_heatmap,
    fig9_isolation,
    fig10_phase,
    fig11_range,
    fig12_localization,
    fig13_aperture,
    fig14_distance,
    fleet_coverage,
    resilience,
    serve_bench,
    serve_scale,
    soak,
)
from repro.experiments.runner import ExperimentOutput
from repro.obs.observers import SweepObserver
from repro.runtime import RuntimeConfig, SweepResult, SweepTask, run_sweep


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run, reduce, and render one experiment."""

    name: str
    alias: str
    description: str
    build_tasks: Callable[..., List[SweepTask]]
    reduce: Callable[[Sequence[Any], Mapping[str, Any]], Any]
    render: Callable[[Any], List[ExperimentOutput]]
    defaults: "Dict[str, Any]" = field(default_factory=dict)
    smoke_overrides: "Dict[str, Any]" = field(default_factory=dict)
    #: Named :mod:`repro.scenarios` spec the experiment's geometry and
    #: traffic resolve from; ``run_experiment`` threads it into the
    #: params as ``scenario`` (overridable via ``--scenario``).
    scenario: str = ""
    #: CLI-only side-effect hook, invoked by ``python -m
    #: repro.experiments`` after a successful run with ``(run,
    #: options)`` — never by :func:`run_experiment` itself, so golden
    #: and observer tests stay side-effect free. The soak experiment
    #: uses it to append to the committed trend file. Returns an
    #: optional message for the CLI to print.
    post_run: Optional[
        Callable[["ExperimentRun", Mapping[str, Any]], Optional[str]]
    ] = None

    @property
    def golden_filename(self) -> str:
        """The checked-in golden table file (under tests/experiments/golden)."""
        return f"{self.alias}.txt"


@dataclass
class ExperimentRun:
    """One registry-driven run: parameters, result, rendered outputs."""

    spec: ExperimentSpec
    params: Dict[str, Any]
    result: Any
    outputs: List[ExperimentOutput]
    sweep: SweepResult


REGISTRY: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        name="fig4_spectrum",
        alias="fig4",
        description="query/response guard band from synthesized Gen2 PSDs",
        build_tasks=fig4_spectrum.build_tasks,
        reduce=fig4_spectrum.reduce,
        render=lambda result: [fig4_spectrum.format_result(result)],
        defaults={"n_fft": 1 << 14, "seed": 0},
        scenario="rf_bench",
    ),
    ExperimentSpec(
        name="fig6_heatmap",
        alias="fig6",
        description="P(x, y) likelihood heatmaps, LoS and heavy multipath",
        build_tasks=fig6_heatmap.build_tasks,
        reduce=fig6_heatmap.reduce,
        render=lambda result: [fig6_heatmap.format_result(result)],
        defaults={"multipath_scenario": "cold_storage_aisles", "seed": 0},
        scenario="los_aisle",
    ),
    ExperimentSpec(
        name="fig9_isolation",
        alias="fig9",
        description="self-interference isolation CDFs vs the analog relay",
        build_tasks=fig9_isolation.build_tasks,
        reduce=fig9_isolation.reduce,
        render=lambda result: [fig9_isolation.format_result(result)],
        defaults={"n_trials": 100, "seed": 0},
        smoke_overrides={"n_trials": 10},
        scenario="rf_bench",
    ),
    ExperimentSpec(
        name="fig10_phase",
        alias="fig10",
        description="phase preservation of the mirrored architecture",
        build_tasks=fig10_phase.build_tasks,
        reduce=fig10_phase.reduce,
        render=lambda result: [fig10_phase.format_result(result)],
        defaults={"n_trials": 50, "seed": 0},
        smoke_overrides={"n_trials": 8},
        scenario="rf_bench",
    ),
    ExperimentSpec(
        name="fig11_range",
        alias="fig11",
        description="read rate vs distance: no relay, relay LoS, relay NLoS",
        build_tasks=fig11_range.build_tasks,
        reduce=fig11_range.reduce,
        render=lambda result: [fig11_range.format_result(result)],
        defaults={
            "distances_m": fig11_range.DEFAULT_DISTANCES,
            "trials_per_point": 300,
            "seed": 0,
            "config": None,
        },
        smoke_overrides={"trials_per_point": 40},
        scenario="outdoor_yard",
    ),
    ExperimentSpec(
        name="fig12_localization",
        alias="fig12",
        description="end-to-end localization error CDF across the building",
        build_tasks=fig12_localization.build_tasks,
        reduce=fig12_localization.reduce,
        render=lambda result: [fig12_localization.format_result(result)],
        defaults={"n_trials": 100, "seed": 0},
        smoke_overrides={"n_trials": 6},
        scenario="paper_warehouse_two_floor",
    ),
    ExperimentSpec(
        name="fig13_aperture",
        alias="fig13",
        description="localization accuracy vs flight-path aperture",
        build_tasks=fig13_aperture.build_tasks,
        reduce=fig13_aperture.reduce,
        render=lambda result: [fig13_aperture.format_result(result)],
        defaults={
            "apertures_m": fig13_aperture.DEFAULT_APERTURES,
            "trials_per_point": 20,
            "seed": 0,
        },
        smoke_overrides={"trials_per_point": 3},
        scenario="aisle_microbench",
    ),
    ExperimentSpec(
        name="fig14_distance",
        alias="fig14",
        description="localization accuracy vs projected reader distance",
        build_tasks=fig14_distance.build_tasks,
        reduce=fig14_distance.reduce,
        render=lambda result: [fig14_distance.format_result(result)],
        defaults={
            "distances_m": fig14_distance.DEFAULT_DISTANCES,
            "trials_per_point": 10,
            "seed": 0,
        },
        smoke_overrides={"trials_per_point": 2},
        scenario="aisle_microbench",
    ),
    ExperimentSpec(
        name="serve_bench",
        alias="serve",
        description="online serving throughput/latency vs offered load",
        build_tasks=serve_bench.build_tasks,
        reduce=serve_bench.reduce,
        render=lambda result: [serve_bench.format_result(result)],
        defaults={
            "loads": serve_bench.DEFAULT_LOADS,
            "n_tags": 4,
            "grid_resolution": 0.10,
            "latency_slo_s": 0.25,
            "seed": 0,
        },
        smoke_overrides={
            "loads": (1.0, 64.0),
            "n_tags": 3,
            "grid_resolution": 0.15,
        },
        scenario="conveyor_flow_through",
    ),
    ExperimentSpec(
        name="resilience",
        alias="resilience",
        description="fault injection: error/failure/recovery per fault class",
        build_tasks=resilience.build_tasks,
        reduce=resilience.reduce,
        render=lambda result: [resilience.format_result(result)],
        defaults={
            "classes": resilience.FAULT_CLASSES,
            "rates": resilience.DEFAULT_RATES,
            "n_tags": 4,
            "load": 8.0,
            "grid_resolution": 0.10,
            "latency_slo_s": 0.25,
            "wrong_threshold_m": 0.75,
            "seed": 0,
        },
        smoke_overrides={
            "rates": (0.3,),
            "n_tags": 3,
            "grid_resolution": 0.15,
        },
        scenario="conveyor_flow_through",
    ),
    ExperimentSpec(
        name="serve_scale",
        alias="serve_scale",
        description="shard count: invariant numbers, bounded failover churn",
        build_tasks=serve_scale.build_tasks,
        reduce=serve_scale.reduce,
        render=lambda result: [serve_scale.format_result(result)],
        defaults={
            "shards": serve_scale.DEFAULT_SHARDS,
            "n_tags": 4,
            "load": 64.0,
            "grid_resolution": 0.10,
            "latency_slo_s": 0.25,
            "seed": 0,
        },
        smoke_overrides={
            "shards": (1, 2, 4),
            "n_tags": 3,
            "grid_resolution": 0.15,
        },
        scenario="conveyor_flow_through",
    ),
    ExperimentSpec(
        name="fleet_coverage",
        alias="fleet_coverage",
        description="multi-relay fleets: coverage scaling, policy shootout",
        build_tasks=fleet_coverage.build_tasks,
        reduce=fleet_coverage.reduce,
        render=fleet_coverage.format_result,
        defaults={
            "fleet_sizes": fleet_coverage.DEFAULT_FLEET_SIZES,
            "policies": fleet_coverage.POLICIES,
            "policy_scenarios": fleet_coverage.POLICY_SCENARIOS,
            "n_tags": 4,
            "load": 8.0,
            "grid_resolution": 0.10,
            "pose_spacing_m": None,
            "latency_slo_s": 0.25,
            "handoff_drop_rate": 0.3,
            "wrong_threshold_m": 0.75,
            "seed": 0,
        },
        smoke_overrides={
            "fleet_sizes": (1, 2),
            "policies": ("nearest", "epsilon_greedy"),
            "n_tags": 3,
            "grid_resolution": 0.15,
        },
        scenario="conveyor_flow_through",
    ),
    ExperimentSpec(
        name="soak",
        alias="soak",
        description="long-horizon soak: trend file + regression gate",
        build_tasks=soak.build_tasks,
        reduce=soak.reduce,
        render=lambda result: [soak.format_result(result)],
        defaults={
            "hours": 2.0,
            "snapshot_every_s": 600.0,
            "shards": 2,
            "n_tags": None,
            "load": 8.0,
            "grid_resolution": 0.10,
            "latency_slo_s": 0.25,
            "fault_profile": "calm",
            "seed": 0,
        },
        smoke_overrides={
            "hours": 0.5,
            "grid_resolution": 0.15,
        },
        scenario="warehouse_twin_aisle",
        post_run=soak.post_run,
    ),
    ExperimentSpec(
        name="ablations",
        alias="ablations",
        description="design-choice ablations (DESIGN.md §5), one sweep",
        build_tasks=ablations.build_tasks,
        reduce=ablations.reduce,
        render=list,
        defaults={
            "heatmap_scenario": "cold_storage_aisles",
            "warehouse_scenario": "paper_warehouse_two_floor",
            "microbench_scenario": "aisle_microbench",
            "seed": 0,
        },
    ),
)

_BY_NAME: Dict[str, ExperimentSpec] = {}
for _spec in REGISTRY:
    _BY_NAME[_spec.name] = _spec
    _BY_NAME[_spec.alias] = _spec


def names() -> List[str]:
    """Canonical experiment names, in registry order."""
    return [spec.name for spec in REGISTRY]


def aliases() -> List[str]:
    """Short CLI aliases (the golden-file stems), in registry order."""
    return [spec.alias for spec in REGISTRY]


def get(name: str) -> ExperimentSpec:
    """Resolve a canonical name or alias to its spec."""
    spec = _BY_NAME.get(name)
    if spec is None:
        known = ", ".join(names())
        raise ConfigurationError(
            f"unknown experiment {name!r}; choices: {known}"
        )
    return spec


def run_experiment(
    name: "str | ExperimentSpec",
    runtime: Optional[RuntimeConfig] = None,
    smoke: bool = False,
    observers: Optional[Sequence[SweepObserver]] = None,
    **overrides: Any,
) -> ExperimentRun:
    """Run one experiment through the registry.

    ``params = defaults`` overlaid with the spec's smoke overrides
    (when ``smoke``) and then any explicit keyword overrides; the same
    mapping feeds both ``build_tasks`` and ``reduce``.
    """
    spec = get(name) if isinstance(name, str) else name
    params: Dict[str, Any] = dict(spec.defaults)
    if spec.scenario:
        params.setdefault("scenario", spec.scenario)
    if smoke:
        params.update(spec.smoke_overrides)
    params.update(overrides)
    tasks = spec.build_tasks(**params)
    sweep = run_sweep(tasks, runtime, name=spec.name, observers=observers)
    result = spec.reduce(sweep.results, params)
    return ExperimentRun(
        spec=spec,
        params=params,
        result=result,
        outputs=spec.render(result),
        sweep=sweep,
    )
