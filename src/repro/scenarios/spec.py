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
workers unchanged.

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
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar

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

_S = TypeVar("_S")


def _require_finite(label: str, value: float) -> float:
    """Reject NaN/inf early — canonical JSON/TOML cannot carry them."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{label} must be finite, got {value!r}")
    return value


def _check_kind(label: str, kind: str, choices: Tuple[str, ...]) -> None:
    if kind not in choices:
        raise ConfigurationError(
            f"unknown {label} kind {kind!r}; choices: {', '.join(choices)}"
        )


def _filtered_kwargs(
    cls: Type[Any], data: Mapping[str, Any]
) -> Dict[str, Any]:
    """Keyword arguments for ``cls`` present in ``data``, erroring on
    unknown keys (typos in hand-written TOML should not pass silently)
    and on missing required ones.
    """
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__} does not understand key(s) "
            f"{', '.join(unknown)}; choices: {', '.join(sorted(known))}"
        )
    missing = sorted(
        f.name
        for f in fields(cls)
        if f.name not in data
        and f.default is MISSING
        and f.default_factory is MISSING
    )
    if missing:
        raise ConfigurationError(
            f"{cls.__name__} is missing required key(s) "
            f"{', '.join(missing)}"
        )
    return {key: data[key] for key in data}


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
        for label in ("x0_m", "y0_m", "x1_m", "y1_m"):
            object.__setattr__(
                self, label, _require_finite(label, getattr(self, label))
            )
        if self.material not in MATERIAL_NAMES:
            raise ConfigurationError(
                f"unknown wall material {self.material!r}; "
                f"choices: {', '.join(MATERIAL_NAMES)}"
            )
        if (self.x0_m, self.y0_m) == (self.x1_m, self.y1_m):
            raise ConfigurationError(
                f"wall {self.name or '<unnamed>'} has zero length"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {
            "x0_m": self.x0_m,
            "y0_m": self.y0_m,
            "x1_m": self.x1_m,
            "y1_m": self.y1_m,
            "material": self.material,
            "name": self.name,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "WallSpec":
        """Rebuild from :meth:`to_dict` output."""
        return WallSpec(**_filtered_kwargs(WallSpec, data))


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
        object.__setattr__(self, "n_obstacles", int(self.n_obstacles))
        object.__setattr__(self, "materials", tuple(self.materials))
        for label in (
            "scatter_std_m",
            "half_extent_min_m",
            "half_extent_max_m",
        ):
            object.__setattr__(
                self, label, _require_finite(label, getattr(self, label))
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {
            "n_obstacles": self.n_obstacles,
            "scatter_std_m": self.scatter_std_m,
            "half_extent_min_m": self.half_extent_min_m,
            "half_extent_max_m": self.half_extent_max_m,
            "materials": list(self.materials),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ClutterSpec":
        """Rebuild from :meth:`to_dict` output."""
        kwargs = _filtered_kwargs(ClutterSpec, data)
        if "materials" in kwargs:
            kwargs["materials"] = tuple(kwargs["materials"])
        return ClutterSpec(**kwargs)


@dataclass(frozen=True)
class FloorplanSpec:
    """Walls plus ray-tracing depth; empty means free space."""

    walls: Tuple[WallSpec, ...] = ()
    max_reflections: int = 1
    clutter: Optional[ClutterSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "walls", tuple(self.walls))
        object.__setattr__(self, "max_reflections", int(self.max_reflections))
        if self.max_reflections < 0:
            raise ConfigurationError("max_reflections must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``clutter`` omitted when absent)."""
        out: Dict[str, Any] = {
            "walls": [wall.to_dict() for wall in self.walls],
            "max_reflections": self.max_reflections,
        }
        if self.clutter is not None:
            out["clutter"] = self.clutter.to_dict()
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FloorplanSpec":
        """Rebuild from :meth:`to_dict` output."""
        kwargs = _filtered_kwargs(FloorplanSpec, data)
        if "walls" in kwargs:
            kwargs["walls"] = tuple(
                WallSpec.from_dict(item) for item in kwargs["walls"]
            )
        if kwargs.get("clutter") is not None:
            kwargs["clutter"] = ClutterSpec.from_dict(kwargs["clutter"])
        return FloorplanSpec(**kwargs)


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
        _check_kind("reader", self.kind, READER_KINDS)
        for spec_field in fields(self):
            if spec_field.name == "kind":
                continue
            object.__setattr__(
                self,
                spec_field.name,
                _require_finite(
                    spec_field.name, getattr(self, spec_field.name)
                ),
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ReaderSpec":
        """Rebuild from :meth:`to_dict` output."""
        return ReaderSpec(**_filtered_kwargs(ReaderSpec, data))


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
        _check_kind("trajectory", self.kind, TRAJECTORY_KINDS)
        for spec_field in fields(self):
            if spec_field.name == "kind":
                continue
            object.__setattr__(
                self,
                spec_field.name,
                _require_finite(
                    spec_field.name, getattr(self, spec_field.name)
                ),
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "TrajectorySpec":
        """Rebuild from :meth:`to_dict` output."""
        return TrajectorySpec(**_filtered_kwargs(TrajectorySpec, data))


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
        _check_kind("tag layout", self.kind, TAG_KINDS)
        object.__setattr__(self, "n_tags", int(self.n_tags))
        object.__setattr__(
            self,
            "positions_m",
            tuple(
                (
                    _require_finite("positions_m.x", pos[0]),
                    _require_finite("positions_m.y", pos[1]),
                )
                for pos in self.positions_m
            ),
        )
        for spec_field in fields(self):
            if spec_field.name in ("kind", "n_tags", "positions_m"):
                continue
            object.__setattr__(
                self,
                spec_field.name,
                _require_finite(
                    spec_field.name, getattr(self, spec_field.name)
                ),
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["positions_m"] = [list(pos) for pos in self.positions_m]
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "TagLayoutSpec":
        """Rebuild from :meth:`to_dict` output."""
        kwargs = _filtered_kwargs(TagLayoutSpec, data)
        if "positions_m" in kwargs:
            kwargs["positions_m"] = tuple(
                (float(pos[0]), float(pos[1]))
                for pos in kwargs["positions_m"]
            )
        return TagLayoutSpec(**kwargs)


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
        _check_kind("snr", self.snr_kind, SNR_KINDS)
        for spec_field in fields(self):
            if spec_field.name == "snr_kind":
                continue
            object.__setattr__(
                self,
                spec_field.name,
                _require_finite(
                    spec_field.name, getattr(self, spec_field.name)
                ),
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RadioSpec":
        """Rebuild from :meth:`to_dict` output."""
        return RadioSpec(**_filtered_kwargs(RadioSpec, data))


@dataclass(frozen=True)
class TrafficSpec:
    """The Gen2 traffic mix for streaming-serve scenarios."""

    load: float = 1.0
    use_gen2_mac: bool = True
    powering_range_m: float = 3.5
    latency_slo_s: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "use_gen2_mac", bool(self.use_gen2_mac))
        for label in ("load", "powering_range_m", "latency_slo_s"):
            object.__setattr__(
                self, label, _require_finite(label, getattr(self, label))
            )
        if self.load <= 0.0:
            raise ConfigurationError("load must be > 0")
        if self.powering_range_m <= 0.0:
            raise ConfigurationError("powering_range_m must be > 0")
        if self.latency_slo_s <= 0.0:
            raise ConfigurationError("latency_slo_s must be > 0")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "TrafficSpec":
        """Rebuild from :meth:`to_dict` output."""
        return TrafficSpec(**_filtered_kwargs(TrafficSpec, data))


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
        _check_kind("grid", self.kind, GRID_KINDS)
        for spec_field in fields(self):
            if spec_field.name == "kind":
                continue
            object.__setattr__(
                self,
                spec_field.name,
                _require_finite(
                    spec_field.name, getattr(self, spec_field.name)
                ),
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "GridSpec":
        """Rebuild from :meth:`to_dict` output."""
        return GridSpec(**_filtered_kwargs(GridSpec, data))


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
        if self.name and not all(
            ch.isalnum() or ch in "_-" for ch in self.name
        ):
            raise ConfigurationError(
                f"relay name {self.name!r} must be alphanumeric/_/- "
                "(it keys session segments and TOML table paths)"
            )
        for label in ("shift_hz", "gain_db"):
            value = getattr(self, label)
            if value is not None:
                object.__setattr__(
                    self, label, _require_finite(label, value)
                )
        if self.shift_hz is not None and self.shift_hz <= 0.0:
            raise ConfigurationError(
                "relay shift_hz must be > 0 (the tag-side carrier must "
                "clear the reader's channel)"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``None`` fields omitted — TOML-safe)."""
        out: Dict[str, Any] = {"name": self.name}
        if self.trajectory is not None:
            out["trajectory"] = self.trajectory.to_dict()
        if self.shift_hz is not None:
            out["shift_hz"] = self.shift_hz
        if self.gain_db is not None:
            out["gain_db"] = self.gain_db
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RelaySpec":
        """Rebuild from :meth:`to_dict` output."""
        kwargs = _filtered_kwargs(RelaySpec, data)
        if kwargs.get("trajectory") is not None:
            kwargs["trajectory"] = TrajectorySpec.from_dict(
                kwargs["trajectory"]
            )
        return RelaySpec(**kwargs)


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
        object.__setattr__(self, "relays", tuple(self.relays))
        _check_kind("selection", self.selection, SELECTION_KINDS)
        for label in ("epsilon", "learning_rate", "guard_hz"):
            object.__setattr__(
                self, label, _require_finite(label, getattr(self, label))
            )
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping."""
        return {
            "relays": [relay.to_dict() for relay in self.relays],
            "selection": self.selection,
            "epsilon": self.epsilon,
            "learning_rate": self.learning_rate,
            "guard_hz": self.guard_hz,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "FleetSpec":
        """Rebuild from :meth:`to_dict` output."""
        kwargs = _filtered_kwargs(FleetSpec, data)
        if "relays" in kwargs:
            kwargs["relays"] = tuple(
                RelaySpec.from_dict(item) for item in kwargs["relays"]
            )
        return FleetSpec(**kwargs)


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

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (``fleet``/``fault_plan`` omitted when
        absent — pre-fleet specs keep their canonical form)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "floorplan": self.floorplan.to_dict(),
            "reader": self.reader.to_dict(),
            "trajectory": self.trajectory.to_dict(),
            "tags": self.tags.to_dict(),
            "radio": self.radio.to_dict(),
            "traffic": self.traffic.to_dict(),
            "grid": self.grid.to_dict(),
        }
        if self.fleet is not None:
            out["fleet"] = self.fleet.to_dict()
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Scenario":
        """Rebuild from :meth:`to_dict` output (missing sections take
        their defaults, so hand-written specs can stay sparse)."""
        kwargs = _filtered_kwargs(Scenario, data)
        converters: Dict[str, Any] = {
            "floorplan": FloorplanSpec.from_dict,
            "reader": ReaderSpec.from_dict,
            "trajectory": TrajectorySpec.from_dict,
            "tags": TagLayoutSpec.from_dict,
            "radio": RadioSpec.from_dict,
            "traffic": TrafficSpec.from_dict,
            "grid": GridSpec.from_dict,
            "fleet": FleetSpec.from_dict,
            "fault_plan": FaultPlan.from_dict,
        }
        for key, converter in converters.items():
            section = kwargs.get(key)
            if isinstance(section, Mapping):
                kwargs[key] = converter(section)
            elif section is not None:
                raise ConfigurationError(
                    f"scenario section {key!r} must be a table, "
                    f"got {type(section).__name__}"
                )
        return Scenario(**kwargs)

    def to_json(self) -> str:
        """Compact, key-sorted JSON — the canonical wire form."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @staticmethod
    def from_json(text: str) -> "Scenario":
        """Inverse of :meth:`to_json` (lossless, property-tested)."""
        return Scenario.from_dict(json.loads(text))

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
