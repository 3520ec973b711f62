"""Frozen, JSON/TOML-canonical scenario dataclasses.

A :class:`Scenario` states one evaluation world declaratively: the
floorplan (walls / shelves / clutter), where the reader sits, how the
relay flies, how tags are laid out, the frequency plan and SNR law,
the Gen2 traffic mix, the localization search grid, and an optional
:class:`~repro.faults.FaultPlan`. Everything is plain scalars —
picklable, hashable, and losslessly round-trippable through canonical
JSON (:meth:`Scenario.to_json`) and TOML
(:mod:`repro.scenarios.toml_codec`) — so a spec can ride inside a
:class:`~repro.runtime.SweepTask`'s parameters and reach process-pool
workers unchanged. :mod:`repro.codec` maps every section to and from
plain data by its field types; the classes here keep only their
semantic checks.

Parametric sub-specs carry a ``kind`` discriminator (``"fixed"`` vs
``"uniform_box"`` tag layouts, ``"line"`` vs ``"random_segment"``
trajectories, ...); every random kind is lowered by the compiler with
draws taken from the *task* seed, so the same spec + seed always
produces the same world. The module deliberately imports no channel /
mobility / serve code: lowering lives in
:mod:`repro.scenarios.compiler` and :mod:`repro.scenarios.trials`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import codec
from repro.constants import RELAY_FREQUENCY_SHIFT_HZ, UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError
from repro.faults import FaultPlan

#: Wall material names the floorplan understands, in the order they are
#: defined by :mod:`repro.channel.environment`.
MATERIAL_NAMES: Tuple[str, ...] = (
    "drywall",
    "concrete",
    "brick",
    "steel",
    "glass",
)

READER_KINDS: Tuple[str, ...] = ("fixed", "random_ring")
TRAJECTORY_KINDS: Tuple[str, ...] = ("line", "random_segment")
TAG_KINDS: Tuple[str, ...] = ("fixed", "uniform_box", "side_offset")
SNR_KINDS: Tuple[str, ...] = ("fixed", "distance_law")
GRID_KINDS: Tuple[str, ...] = ("fixed", "tag_side")
SELECTION_KINDS: Tuple[str, ...] = (
    "nearest",
    "best_link_budget",
    "epsilon_greedy",
)


def _check_kind(label: str, kind: str, choices: Tuple[str, ...]) -> None:
    if kind not in choices:
        raise ConfigurationError(
            f"unknown {label} kind {kind!r}; choices: {', '.join(choices)}"
        )


@dataclass(frozen=True)
class WallSpec:
    """One wall segment from ``(x0_m, y0_m)`` to ``(x1_m, y1_m)``."""

    x0_m: float
    y0_m: float
    x1_m: float
    y1_m: float
    material: str = "drywall"
    name: str = ""

    def __post_init__(self) -> None:
        codec.coerce(self)
        if self.material not in MATERIAL_NAMES:
            raise ConfigurationError(
                f"unknown wall material {self.material!r}; "
                f"choices: {', '.join(MATERIAL_NAMES)}"
            )
        if (self.x0_m, self.y0_m) == (self.x1_m, self.y1_m):
            raise ConfigurationError(
                f"wall {self.name or '<unnamed>'} has zero length"
            )


@dataclass(frozen=True)
class ClutterSpec:
    """Randomly scattered reflective obstacles near the scanned aisle.

    The compiler draws ``n_obstacles`` short wall segments from the
    task seed: centers Gaussian around the trajectory start with
    ``scatter_std_m``, orientations uniform in ``[0, pi)``, half
    extents uniform in ``[half_extent_min_m, half_extent_max_m]``, and
    materials cycled by draw through ``materials``.
    """

    n_obstacles: int = 0
    scatter_std_m: float = 3.0
    half_extent_min_m: float = 0.8
    half_extent_max_m: float = 2.0
    materials: Tuple[str, ...] = ("steel", "drywall", "steel")

    def __post_init__(self) -> None:
        codec.coerce(self)
        if self.n_obstacles < 0:
            raise ConfigurationError("n_obstacles must be >= 0")
        if not self.materials:
            raise ConfigurationError("clutter needs at least one material")
        for material in self.materials:
            if material not in MATERIAL_NAMES:
                raise ConfigurationError(
                    f"unknown clutter material {material!r}; "
                    f"choices: {', '.join(MATERIAL_NAMES)}"
                )
        if not 0.0 < self.half_extent_min_m <= self.half_extent_max_m:
            raise ConfigurationError(
                "clutter half extents need 0 < min <= max"
            )
        if self.scatter_std_m < 0.0:
            raise ConfigurationError("scatter_std_m must be >= 0")


@dataclass(frozen=True)
class FloorplanSpec:
    """Walls plus ray-tracing depth; empty means free space."""

    walls: Tuple[WallSpec, ...] = ()
    max_reflections: int = 1
    clutter: Optional[ClutterSpec] = None

    def __post_init__(self) -> None:
        codec.coerce(self)
        if self.max_reflections < 0:
            raise ConfigurationError("max_reflections must be >= 0")


@dataclass(frozen=True)
class ReaderSpec:
    """Where the ground reader sits.

    ``fixed``
        At ``(x_m, y_m)``.
    ``random_ring``
        At a seed-drawn angle and distance in
        ``[distance_min_m, distance_max_m]`` around the trajectory
        start, clipped into the ``clip_*`` rectangle (keeps the reader
        inside the building).
    """

    kind: str = "fixed"
    x_m: float = 0.0
    y_m: float = 0.0
    distance_min_m: float = 0.0
    distance_max_m: float = 0.0
    clip_x_min_m: float = 0.0
    clip_x_max_m: float = 0.0
    clip_y_min_m: float = 0.0
    clip_y_max_m: float = 0.0

    def __post_init__(self) -> None:
        codec.coerce(self)
        _check_kind("reader", self.kind, READER_KINDS)
        if self.kind == "random_ring":
            if not 0.0 < self.distance_min_m <= self.distance_max_m:
                raise ConfigurationError(
                    "random_ring reader needs 0 < distance_min_m "
                    "<= distance_max_m"
                )
            if (
                self.clip_x_min_m >= self.clip_x_max_m
                or self.clip_y_min_m >= self.clip_y_max_m
            ):
                raise ConfigurationError(
                    "random_ring reader needs a non-empty clip rectangle"
                )


@dataclass(frozen=True)
class TrajectorySpec:
    """How the relay flies its SAR pass.

    ``line``
        A straight segment ``(x0_m, y0_m) -> (x1_m, y1_m)``.
    ``random_segment``
        Start uniform in ``[x_min_m, x_max_m] x [y_min_m, y_max_m]``,
        heading uniform in ``[0, 2*pi)``, length uniform in
        ``[length_min_m, length_max_m]`` — one random warehouse pass
        per task seed.

    ``jitter_std_m`` (per-pose measurement-position noise),
    ``bias_std_m`` (per-flight marker->antenna offset) and
    ``wander_std_m`` (correlated flight wander) feed the drone error
    model of :mod:`repro.scenarios.trials` when trials are lowered.
    """

    kind: str = "line"
    x0_m: float = 0.0
    y0_m: float = 0.0
    x1_m: float = 1.0
    y1_m: float = 0.0
    x_min_m: float = 0.0
    x_max_m: float = 0.0
    y_min_m: float = 0.0
    y_max_m: float = 0.0
    length_min_m: float = 0.0
    length_max_m: float = 0.0
    spacing_m: float = 0.05
    jitter_std_m: float = 0.0
    bias_std_m: float = 0.0
    wander_std_m: float = 0.0
    speed_mps: float = 0.5

    def __post_init__(self) -> None:
        codec.coerce(self)
        _check_kind("trajectory", self.kind, TRAJECTORY_KINDS)
        if self.spacing_m <= 0.0:
            raise ConfigurationError("spacing_m must be > 0")
        if self.speed_mps <= 0.0:
            raise ConfigurationError("speed_mps must be > 0")
        for label in ("jitter_std_m", "bias_std_m", "wander_std_m"):
            if getattr(self, label) < 0.0:
                raise ConfigurationError(f"{label} must be >= 0")
        if self.kind == "line":
            if (self.x0_m, self.y0_m) == (self.x1_m, self.y1_m):
                raise ConfigurationError("line trajectory has zero length")
        else:
            if self.x_min_m > self.x_max_m or self.y_min_m > self.y_max_m:
                raise ConfigurationError(
                    "random_segment start box needs min <= max"
                )
            if not 0.0 < self.length_min_m <= self.length_max_m:
                raise ConfigurationError(
                    "random_segment needs 0 < length_min_m <= length_max_m"
                )


@dataclass(frozen=True)
class TagLayoutSpec:
    """Parametric tag placement.

    ``fixed``
        Exactly ``positions_m`` (``n_tags`` must match its length).
    ``uniform_box``
        ``n_tags`` draws, each an ``(x, y)`` pair uniform in
        ``[x_min_m, x_max_m] x [y_min_m, y_max_m]`` (x then y, in tag
        order — the draw order is part of the contract, goldens pin it).
    ``side_offset``
        Tags perpendicular to the flight segment: offset uniform in
        ``[offset_min_m, offset_max_m]`` to a seed-drawn side, anchored
        uniformly in ``[along_fraction_min, along_fraction_max]`` of
        the segment (fractions of its length, dimensionless).
    """

    kind: str = "fixed"
    n_tags: int = 1
    positions_m: Tuple[Tuple[float, float], ...] = ((1.0, 1.0),)
    x_min_m: float = 0.0
    x_max_m: float = 0.0
    y_min_m: float = 0.0
    y_max_m: float = 0.0
    offset_min_m: float = 0.0
    offset_max_m: float = 0.0
    along_fraction_min: float = 0.0
    along_fraction_max: float = 1.0

    def __post_init__(self) -> None:
        codec.coerce(self)
        _check_kind("tag layout", self.kind, TAG_KINDS)
        if self.n_tags < 1:
            raise ConfigurationError("n_tags must be >= 1")
        if self.kind == "fixed":
            if len(self.positions_m) != self.n_tags:
                raise ConfigurationError(
                    f"fixed layout has {len(self.positions_m)} position(s) "
                    f"but n_tags={self.n_tags}"
                )
        elif self.kind == "uniform_box":
            if self.x_min_m > self.x_max_m or self.y_min_m > self.y_max_m:
                raise ConfigurationError(
                    "uniform_box layout needs min <= max on both axes"
                )
        else:
            if not 0.0 <= self.offset_min_m <= self.offset_max_m:
                raise ConfigurationError(
                    "side_offset needs 0 <= offset_min_m <= offset_max_m"
                )
            if not (
                0.0
                <= self.along_fraction_min
                <= self.along_fraction_max
                <= 1.0
            ):
                raise ConfigurationError(
                    "side_offset fractions need "
                    "0 <= along_fraction_min <= along_fraction_max <= 1"
                )


@dataclass(frozen=True)
class RadioSpec:
    """The frequency plan and SNR law.

    ``snr_kind="fixed"`` uses ``snr_db`` everywhere;
    ``"distance_law"`` evaluates the projected-distance SNR model of
    :func:`repro.scenarios.compiler.projected_distance_snr_db` anchored at
    ``reference_snr_db``, minus through-wall losses, clipped to
    ``[snr_min_db, snr_max_db]``. ``rssi_mismatch_std_db`` is the
    per-trial RSSI calibration mismatch drawn by the baseline
    comparison trials.
    """

    center_frequency_hz: float = UHF_CENTER_FREQUENCY
    band_low_hz: float = 902.75e6
    band_high_hz: float = 927.25e6
    relay_shift_hz: float = RELAY_FREQUENCY_SHIFT_HZ
    relay_gain_db: float = 45.0
    snr_kind: str = "fixed"
    snr_db: float = 25.0
    reference_snr_db: float = 46.0
    snr_min_db: float = 8.0
    snr_max_db: float = 25.0
    rssi_mismatch_std_db: float = 0.0

    def __post_init__(self) -> None:
        codec.coerce(self)
        _check_kind("snr", self.snr_kind, SNR_KINDS)
        if self.center_frequency_hz <= 0.0:
            raise ConfigurationError("center_frequency_hz must be > 0")
        if not 0.0 < self.band_low_hz <= self.band_high_hz:
            raise ConfigurationError(
                "band edges need 0 < band_low_hz <= band_high_hz"
            )
        if self.snr_min_db > self.snr_max_db:
            raise ConfigurationError("snr_min_db must be <= snr_max_db")
        if self.rssi_mismatch_std_db < 0.0:
            raise ConfigurationError("rssi_mismatch_std_db must be >= 0")


@dataclass(frozen=True)
class TrafficSpec:
    """The Gen2 traffic mix for streaming-serve scenarios."""

    load: float = 1.0
    use_gen2_mac: bool = True
    powering_range_m: float = 3.5
    latency_slo_s: float = 0.25

    def __post_init__(self) -> None:
        codec.coerce(self)
        if self.load <= 0.0:
            raise ConfigurationError("load factor must be positive")
        if self.powering_range_m <= 0.0:
            raise ConfigurationError("powering_range_m must be > 0")
        if self.latency_slo_s <= 0.0:
            raise ConfigurationError("latency_slo_s must be > 0")


@dataclass(frozen=True)
class GridSpec:
    """The localization search grid.

    ``fixed``
        The explicit rectangle ``[x_min_m, x_max_m] x [y_min_m,
        y_max_m]``.
    ``tag_side``
        A square of half-width ``margin_m`` around the tag, restricted
        to the ``side_sign`` side of the flight line (the matched
        filter is side-ambiguous; the paper resolves it with a second
        pass).
    """

    kind: str = "fixed"
    x_min_m: float = -0.5
    x_max_m: float = 4.0
    y_min_m: float = 0.2
    y_max_m: float = 3.0
    margin_m: float = 3.5
    side_sign: float = 1.0
    resolution_m: float = 0.10

    def __post_init__(self) -> None:
        codec.coerce(self)
        _check_kind("grid", self.kind, GRID_KINDS)
        if self.resolution_m <= 0.0:
            raise ConfigurationError("resolution_m must be > 0")
        if self.kind == "fixed":
            if self.x_min_m >= self.x_max_m or self.y_min_m >= self.y_max_m:
                raise ConfigurationError(
                    "fixed grid needs min < max on both axes"
                )
        else:
            if self.margin_m <= 0.0:
                raise ConfigurationError("tag_side grid needs margin_m > 0")
            if self.side_sign not in (-1.0, 1.0):
                raise ConfigurationError("side_sign must be -1 or +1")


@dataclass(frozen=True)
class RelaySpec:
    """One relay drone in a fleet.

    Everything is optional and inherits from the scenario: a ``None``
    ``trajectory`` flies the scenario's :class:`TrajectorySpec` (as the
    implicit relay of a scenario without a fleet does), a ``None``
    ``shift_hz`` /
    ``gain_db`` takes ``radio.relay_shift_hz`` / ``radio.relay_gain_db``.
    ``name`` defaults to ``relay-{index:02d}`` when empty; resolved
    names must be unique — they key per-relay session segments and
    handoff accounting downstream.
    """

    name: str = ""
    trajectory: Optional[TrajectorySpec] = None
    shift_hz: Optional[float] = None
    gain_db: Optional[float] = None

    def __post_init__(self) -> None:
        codec.coerce(self)
        if self.name and not all(
            ch.isalnum() or ch in "_-" for ch in self.name
        ):
            raise ConfigurationError(
                f"relay name {self.name!r} must be alphanumeric/_/- "
                "(it keys session segments and TOML table paths)"
            )
        if self.shift_hz is not None and self.shift_hz <= 0.0:
            raise ConfigurationError(
                "relay shift_hz must be > 0 (the tag-side carrier must "
                "clear the reader's channel)"
            )


@dataclass(frozen=True)
class FleetSpec:
    """A fleet of relay drones plus the per-tag selection policy.

    ``selection`` picks which relay serves each powered tag at each
    pose (see :mod:`repro.fleet.selection`); ``epsilon`` /
    ``learning_rate`` parameterize the ``epsilon_greedy`` learned
    policy (ignored by the others); ``guard_hz`` is the co-channel
    gate — two relays whose tag-side carriers sit within ``guard_hz``
    of each other interfere at the tag and reader (see
    :mod:`repro.channel.interference`).
    """

    relays: Tuple[RelaySpec, ...] = (RelaySpec(),)
    selection: str = "nearest"
    epsilon: float = 0.1
    learning_rate: float = 0.5
    guard_hz: float = 200e3

    def __post_init__(self) -> None:
        codec.coerce(self)
        _check_kind("selection", self.selection, SELECTION_KINDS)
        if not self.relays:
            raise ConfigurationError("fleet needs at least one relay")
        resolved = [
            relay.name or f"relay-{index:02d}"
            for index, relay in enumerate(self.relays)
        ]
        if len(set(resolved)) != len(resolved):
            raise ConfigurationError(
                f"fleet relay names must be unique, got {resolved}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigurationError("learning_rate must be in (0, 1]")
        if self.guard_hz < 0.0:
            raise ConfigurationError("guard_hz must be >= 0")

    def relay_names(self) -> Tuple[str, ...]:
        """Resolved (defaulted, unique) relay names in fleet order."""
        return tuple(
            relay.name or f"relay-{index:02d}"
            for index, relay in enumerate(self.relays)
        )


#: A fixed tag closer than this to a line flight lies on it: the relay
#: would fly through the tag, and a pose on it traces a zero-length ray.
_TAG_CLEARANCE_M = 1e-3


def _check_tags_off_flight(
    trajectory: TrajectorySpec, tags: TagLayoutSpec, flight: str
) -> None:
    """Reject a fixed tag that lies on a fixed line flight."""
    if trajectory.kind != "line" or tags.kind != "fixed":
        return
    x0, y0 = trajectory.x0_m, trajectory.y0_m
    dx, dy = trajectory.x1_m - x0, trajectory.y1_m - y0
    for x, y in tags.positions_m:
        along = ((x - x0) * dx + (y - y0) * dy) / (dx * dx + dy * dy)
        along = min(1.0, max(0.0, along))
        if math.hypot(x - x0 - along * dx, y - y0 - along * dy) < (
            _TAG_CLEARANCE_M
        ):
            raise ConfigurationError(
                f"fixed tag at ({x:g}, {y:g}) m lies on the {flight} "
                "line flight; move the flight or the tag"
            )


@dataclass(frozen=True)
class Scenario:
    """One declarative evaluation world.

    The top-level spec is the unit of the registry, the CLI, and the
    compiler: ``Scenario.from_json(spec.to_json())`` is the identity,
    and the canonical JSON string is what rides inside sweep-task
    parameters (scalar, hashable, cache-stable).
    """

    name: str
    description: str = ""
    floorplan: FloorplanSpec = field(default_factory=FloorplanSpec)
    reader: ReaderSpec = field(default_factory=ReaderSpec)
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    tags: TagLayoutSpec = field(default_factory=TagLayoutSpec)
    radio: RadioSpec = field(default_factory=RadioSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    grid: GridSpec = field(default_factory=GridSpec)
    fleet: Optional[FleetSpec] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if not all(ch.isalnum() or ch == "_" for ch in self.name):
            raise ConfigurationError(
                f"scenario name {self.name!r} must be alphanumeric/_ "
                "(it doubles as a registry key and file stem)"
            )
        _check_tags_off_flight(self.trajectory, self.tags, "scenario's")
        if self.fleet is not None:
            for name, relay in zip(
                self.fleet.relay_names(), self.fleet.relays
            ):
                if relay.trajectory is not None:
                    _check_tags_off_flight(
                        relay.trajectory, self.tags, f"relay {name!r}"
                    )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``None`` fields omitted, so a spec without
        a fleet or fault plan keeps its pre-fleet canonical form)."""
        return codec.to_dict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Scenario":
        """Rebuild from :meth:`to_dict` output (missing sections take
        their defaults, so hand-written specs can stay sparse).

        This is the decode boundary: a malformed spec raises
        :class:`~repro.errors.ConfigurationError` naming the dotted
        path of the bad value (``scenario.traffic.load``), under the one
        policy of :mod:`repro.codec`.
        """
        return codec.from_dict(Scenario, data, "scenario")

    def to_json(self) -> str:
        """Compact, key-sorted JSON — the canonical wire form."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @staticmethod
    def from_json(text: str) -> "Scenario":
        """Inverse of :meth:`to_json` (lossless, property-tested)."""
        try:
            data = json.loads(text)
        except (TypeError, ValueError, RecursionError) as error:
            raise ConfigurationError(f"scenario JSON: {error}") from error
        return Scenario.from_dict(data)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Scenario":
        """A new scenario with dotted-path overrides applied.

        Keys are dotted paths into :meth:`to_dict` output, e.g.
        ``{"traffic.load": 8.0, "grid.resolution_m": 0.2}``. This is
        what the CLI's ``--set`` flag lowers to; unknown paths raise
        :class:`~repro.errors.ConfigurationError` via :meth:`from_dict`.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            parts = path.split(".")
            node: Dict[str, Any] = data
            for part in parts[:-1]:
                nested = node.setdefault(part, {})
                if not isinstance(nested, dict):
                    raise ConfigurationError(
                        f"override path {path!r} descends into "
                        f"non-section {part!r}"
                    )
                node = nested
            node[parts[-1]] = value
        return Scenario.from_dict(data)
