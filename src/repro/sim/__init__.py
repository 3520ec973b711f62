"""End-to-end simulation: worlds, scan events, inventory, result stats."""

from __future__ import annotations

from repro.sim.results import (
    empirical_cdf,
    percentile,
    summarize,
    Summary,
    format_table,
)
from repro.sim.readrate import RangeModel, RangeConfig
from repro.sim.world import World, WorldConfig, TagObservation
from repro.sim.inventory_db import (
    Item,
    ItemDatabase,
    LocatedItem,
    ReconciliationReport,
)

__all__ = [
    "empirical_cdf",
    "percentile",
    "summarize",
    "Summary",
    "format_table",
    "RangeModel",
    "RangeConfig",
    "World",
    "WorldConfig",
    "TagObservation",
    "Item",
    "ItemDatabase",
    "LocatedItem",
    "ReconciliationReport",
]
