"""The scalar image-method tracer: the reference the kernel is tested against.

:func:`trace_rays` here walks the walls one at a time with the scalar
primitives of :mod:`repro.channel.geometry`. It is the tracer the package
shipped before :func:`repro.channel.multipath.trace_rays` became a NumPy
kernel over walls x rays, kept unchanged so that the kernel's rays can be
required to equal its rays bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.channel.geometry import (
    Wall,
    as_point,
    distance_m,
    mirror_point,
    reflection_point,
    segments_cross,
)
from repro.channel.multipath import MAX_SUPPORTED_REFLECTIONS, Ray
from repro.errors import GeometryError
from repro.obs import metrics


def _transmission_gain(
    a, b, walls: Sequence[Wall], skip: Sequence[Wall] = ()
) -> float:
    """Amplitude factor for walls the segment a-b punches through."""
    gain = 1.0
    for wall in walls:
        if wall in skip:
            continue
        if segments_cross(a, b, wall.p1, wall.p2):
            gain *= 10.0 ** (-wall.transmission_loss_db / 20.0)
    return gain


def trace_rays(
    a,
    b,
    walls: Sequence[Wall] = (),
    max_reflections: int = 1,
    min_gain: float = 1e-6,
) -> List[Ray]:
    """Enumerate propagation paths from ``a`` to ``b``.

    Parameters
    ----------
    a, b:
        Endpoint coordinates (2-D).
    walls:
        Environment walls; each may obstruct and/or reflect.
    max_reflections:
        Reflection order: 0 = direct only, 1 adds single bounces,
        2 adds double bounces.
    min_gain:
        Paths whose interaction gain falls below this are dropped.

    Returns
    -------
    list of Ray
        Always contains the direct path first (even when heavily
        obstructed its gain may round to zero but the entry remains,
        so "the direct path may not be the strongest" scenarios of
        paper §5.2 are representable).
    """
    if not 0 <= max_reflections <= MAX_SUPPORTED_REFLECTIONS:
        raise GeometryError(
            f"max_reflections must be 0-{MAX_SUPPORTED_REFLECTIONS}, "
            f"got {max_reflections}"
        )
    a, b = as_point(a), as_point(b)
    if np.allclose(a, b):
        raise GeometryError("ray tracing requires distinct endpoints")
    rays: List[Ray] = [
        Ray(
            length=distance_m(a, b),
            gain=_transmission_gain(a, b, walls),
            bounces=0,
            description="direct",
        )
    ]
    if max_reflections >= 1:
        for wall in walls:
            if wall.reflectivity <= 0.0:
                continue
            point = reflection_point(a, b, wall)
            if point is None:
                continue
            length = distance_m(a, point) + distance_m(point, b)
            gain = (
                wall.reflectivity
                * _transmission_gain(a, point, walls, skip=(wall,))
                * _transmission_gain(point, b, walls, skip=(wall,))
            )
            if gain >= min_gain:
                rays.append(
                    Ray(length, gain, 1, description=f"bounce:{wall.name or id(wall)}")
                )
    if max_reflections >= 2:
        for first in walls:
            if first.reflectivity <= 0.0:
                continue
            for second in walls:
                if second is first or second.reflectivity <= 0.0:
                    continue
                # Double image: mirror b across second, then find the
                # first-wall specular point toward that image.
                image_b = mirror_point(b, second)
                p1 = reflection_point(a, image_b, first)
                if p1 is None:
                    continue
                p2 = reflection_point(p1, b, second)
                if p2 is None:
                    continue
                length = distance_m(a, p1) + distance_m(p1, p2) + distance_m(p2, b)
                gain = (
                    first.reflectivity
                    * second.reflectivity
                    * _transmission_gain(a, p1, walls, skip=(first,))
                    * _transmission_gain(p1, p2, walls, skip=(first, second))
                    * _transmission_gain(p2, b, walls, skip=(second,))
                )
                if gain >= min_gain:
                    rays.append(
                        Ray(
                            length,
                            gain,
                            2,
                            description=(
                                f"bounce2:{first.name or id(first)}"
                                f"+{second.name or id(second)}"
                            ),
                        )
                    )
    metrics.count("channel.rays_traced", len(rays))
    return rays
