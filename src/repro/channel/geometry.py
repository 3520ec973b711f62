"""2-D geometric primitives for image-method ray tracing.

Points are ``numpy`` arrays of shape (2,). A :class:`Wall` is a line
segment with a material; walls both obstruct (transmission loss) and
reflect (multipath) signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import GeometryError

Point = np.ndarray

_EPS = 1e-9


def as_point(p) -> Point:
    """Coerce a 2-sequence into a float point array."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise GeometryError(f"expected a 2-D point, got shape {arr.shape}")
    return arr


def distance_m(a, b) -> float:
    """Euclidean distance between two points."""
    return float(np.linalg.norm(as_point(a) - as_point(b)))


@dataclass(frozen=True)
class Wall:
    """A wall segment with radio properties.

    Parameters
    ----------
    start, end:
        Segment endpoints.
    transmission_loss_db:
        Power lost by a signal passing through the wall (one crossing).
    reflectivity:
        Amplitude reflection coefficient in [0, 1]; 0 means the wall
        never produces multipath (e.g. a thin curtain), ~0.7+ models the
        steel shelving of the paper's Fig. 6(b) experiment.
    name:
        Optional label for debugging.
    """

    start: Tuple[float, float]
    end: Tuple[float, float]
    transmission_loss_db: float = 10.0
    reflectivity: float = 0.3
    name: str = ""

    def __post_init__(self) -> None:
        p1, p2 = as_point(self.start), as_point(self.end)
        if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
            raise GeometryError(
                f"wall {self.name!r} endpoints must be finite: {p1}, {p2}"
            )
        if np.allclose(p1, p2):
            raise GeometryError(f"wall {self.name!r} is degenerate: {p1} == {p2}")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise GeometryError(
                f"reflectivity must lie in [0, 1], got {self.reflectivity}"
            )
        if not 0.0 <= self.transmission_loss_db < np.inf:
            raise GeometryError(
                "transmission loss must be finite and >= 0 dB, "
                f"got {self.transmission_loss_db}"
            )
        object.__setattr__(self, "start", tuple(map(float, self.start)))
        object.__setattr__(self, "end", tuple(map(float, self.end)))

    @property
    def p1(self) -> Point:
        """First endpoint as an array."""
        return np.asarray(self.start)

    @property
    def p2(self) -> Point:
        """Second endpoint as an array."""
        return np.asarray(self.end)

    @property
    def length(self) -> float:
        """Segment length in meters."""
        return distance_m(self.p1, self.p2)

    @property
    def direction(self) -> Point:
        """Unit vector along the segment."""
        d = self.p2 - self.p1
        return d / np.linalg.norm(d)

    @property
    def normal(self) -> Point:
        """Unit normal of the segment."""
        dx, dy = self.direction
        return np.array([-dy, dx])


def mirror_point(point, wall: Wall) -> Point:
    """Reflect a point across the infinite line through a wall segment."""
    p = as_point(point)
    to_point = p - wall.p1
    n = wall.normal
    return p - 2.0 * float(np.dot(to_point, n)) * n


def _cross2(u: Point, v: Point) -> float:
    """Scalar 2-D cross product (z-component of the 3-D cross)."""
    return float(u[0] * v[1] - u[1] * v[0])


def segment_intersection(a, b, c, d) -> Optional[Point]:
    """Intersection point of segments ``a-b`` and ``c-d``, if any.

    Touching at endpoints counts as an intersection. Collinear overlaps
    return ``None`` (grazing propagation along a wall is not a crossing).
    """
    a, b, c, d = map(as_point, (a, b, c, d))
    r = b - a
    s = d - c
    denom = _cross2(r, s)
    if abs(denom) < _EPS:
        return None
    t = _cross2(c - a, s) / denom
    u = _cross2(c - a, r) / denom
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        return a + t * r
    return None


def segments_cross(a, b, c, d) -> bool:
    """True when segment ``a-b`` properly crosses ``c-d`` (not mere touch)."""
    a, b, c, d = map(as_point, (a, b, c, d))
    r = b - a
    s = d - c
    denom = _cross2(r, s)
    if abs(denom) < _EPS:
        return False
    t = _cross2(c - a, s) / denom
    u = _cross2(c - a, r) / denom
    return _EPS < t < 1.0 - _EPS and _EPS < u < 1.0 - _EPS


def reflection_point(a, b, wall: Wall) -> Optional[Point]:
    """Specular reflection point on ``wall`` for a path from ``a`` to ``b``.

    Returns the point where a ray leaving ``a`` bounces off the wall and
    reaches ``b``, or ``None`` when the specular point falls outside the
    segment (or either endpoint sits on the wall's line).
    """
    a, b = as_point(a), as_point(b)
    if np.allclose(mirror_point(a, wall), a, atol=_EPS):
        return None  # a lies on the wall plane: no reflection geometry
    image = mirror_point(b, wall)
    if np.allclose(image, b, atol=_EPS):
        return None  # b lies on the wall plane: no reflection geometry
    return segment_intersection(a, image, wall.p1, wall.p2)
