"""Declarative scenario specs that compile to runtime sweeps.

A :class:`~repro.scenarios.spec.Scenario` is a frozen, JSON/TOML-
canonical description of one evaluation world: a floorplan (walls,
shelves, clutter), a parametric tag layout, the relay trajectory and
frequency plan, the Gen2 traffic mix, the localization search grid,
and an optional :class:`~repro.faults.FaultPlan`. The compiler
(:mod:`repro.scenarios.compiler`) lowers a spec to concrete channel /
mobility / serving objects and to seeded :mod:`repro.runtime` sweep
tasks; the trial builders (:mod:`repro.scenarios.trials`) lower specs
to the per-trial :class:`~repro.scenarios.trials.LocalizationScenario`
objects the figure experiments consume.

Named scenarios ship as TOML files under ``repro/scenarios/library/``
and resolve through :mod:`repro.scenarios.registry`:

    >>> from repro import scenarios
    >>> spec = scenarios.get("conveyor_flow_through")
    >>> tasks = scenarios.compile_scenario(spec, seed=0)

``python -m repro.scenarios list|show|validate`` is the command-line
surface, and every experiment's ``--scenario`` flag resolves through
the same registry.
"""

from __future__ import annotations

from repro.scenarios.compiler import (
    build_environment,
    build_grid,
    build_measurement_model,
    build_trajectory,
    compile_scenario,
    generate_workload,
    place_tags,
    reduce_smoke,
    run_scenario,
)
from repro.scenarios.registry import get, names, register, resolve
from repro.scenarios.spec import (
    GRID_KINDS,
    MATERIAL_NAMES,
    READER_KINDS,
    SELECTION_KINDS,
    SNR_KINDS,
    TAG_KINDS,
    TRAJECTORY_KINDS,
    ClutterSpec,
    FleetSpec,
    FloorplanSpec,
    GridSpec,
    RadioSpec,
    ReaderSpec,
    RelaySpec,
    Scenario,
    TagLayoutSpec,
    TrafficSpec,
    TrajectorySpec,
    WallSpec,
)

__all__ = [
    "GRID_KINDS",
    "MATERIAL_NAMES",
    "READER_KINDS",
    "SELECTION_KINDS",
    "SNR_KINDS",
    "TAG_KINDS",
    "TRAJECTORY_KINDS",
    "ClutterSpec",
    "FleetSpec",
    "FloorplanSpec",
    "GridSpec",
    "RadioSpec",
    "ReaderSpec",
    "RelaySpec",
    "Scenario",
    "TagLayoutSpec",
    "TrafficSpec",
    "TrajectorySpec",
    "WallSpec",
    "build_environment",
    "build_grid",
    "build_measurement_model",
    "build_trajectory",
    "compile_scenario",
    "generate_workload",
    "get",
    "names",
    "place_tags",
    "reduce_smoke",
    "register",
    "resolve",
    "run_scenario",
]
