"""RF propagation substrate.

Phasor-level channel models for the localization experiments: free-space
and log-distance path loss, wall attenuation, and geometric (image-
method) multipath ray tracing that produces exactly the superposition of
paths in the paper's Eq. 8-9, including the "ghost peak" behaviour of
Fig. 6(b).
"""

from __future__ import annotations

from repro.channel.geometry import (
    Point,
    Wall,
    distance_m,
    mirror_point,
    segment_intersection,
    segments_cross,
)
from repro.channel.pathloss import (
    free_space_path_loss_db,
    free_space_range_for_loss,
    log_distance_path_loss_db,
)
from repro.channel.multipath import (
    Ray,
    one_way_channel,
    trace_rays,
)
from repro.channel.environment import Environment, Material
from repro.channel.interference import (
    co_channel,
    co_channel_groups,
    co_channel_penalty_db,
)

__all__ = [
    "Point",
    "Wall",
    "distance_m",
    "mirror_point",
    "segment_intersection",
    "segments_cross",
    "free_space_path_loss_db",
    "free_space_range_for_loss",
    "log_distance_path_loss_db",
    "Ray",
    "trace_rays",
    "one_way_channel",
    "Environment",
    "Material",
    "co_channel",
    "co_channel_groups",
    "co_channel_penalty_db",
]
