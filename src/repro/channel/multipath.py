"""Image-method ray tracing and multipath channel synthesis.

Given an environment of walls, :func:`trace_rays` enumerates the
propagation paths between two nodes: the direct path (attenuated by any
wall it punches through) and specular reflections up to a configurable
order. :func:`one_way_channel` then superposes them into the complex
channel of the paper's Eq. 8:

    h = sum_i  a_i * exp(-j 2 pi f d_i / c)

with amplitudes a_i combining free-space spreading, reflection
coefficients, and wall transmission losses. Backscatter links are
round trip; by channel reciprocity the round-trip channel is the square
of the one-way channel, which contains the pairwise path products of
Eq. 8's double sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.channel.geometry import _EPS, Wall, as_point, distance_m
from repro.channel.pathloss import free_space_amplitude
from repro.constants import SPEED_OF_LIGHT
from repro.errors import GeometryError
from repro.obs import metrics

MAX_SUPPORTED_REFLECTIONS = 2


@dataclass(frozen=True)
class Ray:
    """One propagation path between two nodes.

    ``gain`` is the linear amplitude factor from interactions only
    (reflections and wall transmissions); free-space spreading is applied
    by the channel synthesis using ``length``.
    """

    length: float
    gain: float
    bounces: int
    description: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.length < math.inf:
            raise GeometryError(
                f"ray length must be positive and finite, got {self.length}"
            )
        if not 0 <= self.gain < math.inf:
            raise GeometryError(f"ray gain must be finite and >= 0, got {self.gain}")


class WallSet:
    """A fixed sequence of walls plus the per-wall constants the tracer reads.

    Building the constants costs about as much as tracing one link, so
    an owner that traces many links over one wall set builds this once
    and calls :meth:`trace` (:class:`~repro.channel.environment.Environment`
    does); :func:`trace_rays` builds one per call.
    """

    def __init__(self, walls: Iterable[Wall] = ()) -> None:
        self.walls: Tuple[Wall, ...] = tuple(walls)
        n = len(self.walls)
        self.start = np.array([w.start for w in self.walls], dtype=float).reshape(n, 2)
        self.span = (
            np.array([w.end for w in self.walls], dtype=float).reshape(n, 2) - self.start
        )
        self.normal = np.array([w.normal for w in self.walls], dtype=float).reshape(n, 2)
        # Each factor is the scalar expression; their product depends on
        # the order of its factors, so the tracer takes it in wall order.
        self.factor = np.array(
            [10.0 ** (-w.transmission_loss_db / 20.0) for w in self.walls], dtype=float
        )
        self.reflectivity = np.array([w.reflectivity for w in self.walls], dtype=float)
        self.labels = [str(w.name or id(w)) for w in self.walls]
        # skip[k, w]: a leg that bounces off wall k ignores wall w when it
        # prices transmissions. Walls equal by value are skipped together.
        self.skip = np.array(
            [[w in (k,) for w in self.walls] for k in self.walls], dtype=bool
        ).reshape(n, n)
        # pairs[i, j]: a double bounce may go off wall i, then wall j. A
        # wall object never pairs with itself; an equal copy of it does.
        reflects = self.reflectivity > 0.0
        self.pairs = (
            np.array([[j is not i for j in self.walls] for i in self.walls], dtype=bool)
            .reshape(n, n)
            & reflects[:, None]
            & reflects[None, :]
        )

    def holds(self, walls: Sequence[Wall]) -> bool:
        """True when ``walls`` are these very wall objects, in this order."""
        return len(walls) == len(self.walls) and all(map(operator.is_, walls, self.walls))

    def trace(
        self, a, b, max_reflections: int = 1, min_gain: float = 1e-6
    ) -> List[Ray]:
        """:func:`trace_rays` over these walls."""
        if not 0 <= max_reflections <= MAX_SUPPORTED_REFLECTIONS:
            raise GeometryError(
                f"max_reflections must be 0-{MAX_SUPPORTED_REFLECTIONS}, "
                f"got {max_reflections}"
            )
        a, b = as_point(a), as_point(b)
        if not np.isfinite((a, b)).all():
            raise GeometryError(f"ray endpoints must be finite, got {a} and {b}")
        if (np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)).all():  # np.allclose(a, b)
            raise GeometryError("ray tracing requires distinct endpoints")
        if self.walls:
            rays = self._rays(a, b, max_reflections, min_gain)
        else:
            rays = [Ray(distance_m(a, b), 1.0, 0, description="direct")]
        metrics.count("channel.rays_traced", len(rays))
        return rays

    def _rays(
        self, a: np.ndarray, b: np.ndarray, max_reflections: int, min_gain: float
    ) -> List[Ray]:
        """The walls x rays kernel.

        Finds every wall's specular point at once, then prices every leg
        of every path (the direct path, two legs per single bounce, three
        per double bounce) against every wall in one crossing matrix.
        """
        start, span, normal, skip = self.start, self.span, self.normal, self.skip
        starts, ends = [a[None]], [b[None]]
        skips = [np.zeros((1, len(self.walls)), dtype=bool)]
        single = first = second = np.zeros(0, dtype=np.intp)
        if max_reflections >= 1:
            # Mirror a and b across every wall; an endpoint on a wall's
            # line has no reflection geometry off that wall.
            endpoints = np.array((a, b))[:, None, :]
            images = _mirror(endpoints, start, normal)
            a_on, b_on = _on_line(endpoints, images)
            image_b = images[1]
            r = image_b - a
            t, u, ok = _solve(a, r, start, span)
            points = a + t[:, None] * r
            single = np.flatnonzero(
                (self.reflectivity > 0.0) & ~a_on & ~b_on & _on_segments(t, u, ok)
            )
            hits = points[single]
            starts += [np.full(hits.shape, a), hits]
            ends += [hits, np.full(hits.shape, b)]
            skips += [skip[single], skip[single]]
        if max_reflections >= 2:
            # Off wall i (axis 0), then wall j (axis 1): aim from a at the
            # image of b across j, mirrored again across i.
            image_ib = _mirror(image_b[None], start[:, None], normal[:, None])
            r = image_ib - a
            t, u, ok = _solve(a, r, start[:, None], span[:, None])
            first_ok = (
                ~a_on[:, None]
                & ~_on_line(image_b[None], image_ib)
                & _on_segments(t, u, ok)
            )
            p1 = a + t[..., None] * r
            r = image_b[None] - p1
            t, u, ok = _solve(p1, r, start[None], span[None])
            second_ok = (
                ~_on_line(p1, _mirror(p1, start[None], normal[None]))
                & ~b_on[None, :]
                & _on_segments(t, u, ok)
            )
            p2 = p1 + t[..., None] * r
            first, second = np.nonzero(self.pairs & first_ok & second_ok)
            hits1, hits2 = p1[first, second], p2[first, second]
            starts += [np.full(hits1.shape, a), hits1, hits2]
            ends += [hits1, hits2, np.full(hits2.shape, b)]
            skips += [skip[first], skip[first] | skip[second], skip[second]]

        leg_start = np.concatenate(starts)
        r = np.concatenate(ends) - leg_start
        length = np.sqrt(_dots(r, r))
        # crossing[w, leg]: the leg punches through wall w. A leg's gain
        # multiplies its crossed walls' factors in wall order (axis 0).
        t, u, ok = _solve(leg_start[None], r[None], start[:, None], span[:, None])
        crossing = _crosses(t, u, ok) & ~np.concatenate(skips).T
        gain = np.multiply.reduce(np.where(crossing, self.factor[:, None], 1.0), axis=0)

        # Legs are laid out direct, then each path order's legs in blocks:
        # leg n of path p sits at offset + n * count + p. Path lengths and
        # gains sum and multiply left to right, as the scalar tracer did.
        rays = [Ray(float(length[0]), float(gain[0]), 0, description="direct")]
        labels, reflectivity = self.labels, self.reflectivity
        k, m = len(single), len(first)
        if k:
            leg0, leg1 = slice(1, 1 + k), slice(1 + k, 1 + 2 * k)
            for wall, path_length, path_gain in zip(
                single.tolist(),
                (length[leg0] + length[leg1]).tolist(),
                (reflectivity[single] * gain[leg0] * gain[leg1]).tolist(),
            ):
                if path_gain >= min_gain:
                    rays.append(
                        Ray(path_length, path_gain, 1, description=f"bounce:{labels[wall]}")
                    )
        if m:
            leg0, leg1, leg2 = (
                slice(1 + 2 * k + n * m, 1 + 2 * k + (n + 1) * m) for n in range(3)
            )
            for i, j, path_length, path_gain in zip(
                first.tolist(),
                second.tolist(),
                (length[leg0] + length[leg1] + length[leg2]).tolist(),
                (
                    reflectivity[first]
                    * reflectivity[second]
                    * gain[leg0]
                    * gain[leg1]
                    * gain[leg2]
                ).tolist(),
            ):
                if path_gain >= min_gain:
                    description = f"bounce2:{labels[i]}+{labels[j]}"
                    rays.append(Ray(path_length, path_gain, 2, description=description))
        return rays


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, rounded exactly as ``np.dot`` rounds.

    ``np.dot`` and ``np.linalg.norm`` reach BLAS ``ddot``, which may fuse
    the multiply-add, so ``u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]``
    differs from them in the last bit for about a quarter of inputs.
    ``matmul`` of 1x2 by 2x1 blocks calls the same ``ddot``, provided the
    last axis of each operand has a nonzero stride.
    """
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _mirror(points: np.ndarray, start: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """:func:`~repro.channel.geometry.mirror_point`, broadcast over walls."""
    return points - (2.0 * _dots(points - start, normal))[..., None] * normal


def _on_line(points: np.ndarray, images: np.ndarray) -> np.ndarray:
    """``np.allclose(image, point, atol=1e-9)`` per point, for finite input."""
    close = np.abs(images - points) <= _EPS + 1e-5 * np.abs(points)
    return close[..., 0] & close[..., 1]


def _solve(
    origin: np.ndarray, r: np.ndarray, start: np.ndarray, span: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where segment ``origin + t r`` meets wall ``start + u span``.

    Returns ``(t, u, ok)`` with the arithmetic of
    :func:`~repro.channel.geometry.segment_intersection`; ``ok`` is False
    where the two are parallel, and there ``t`` and ``u`` are meaningless.
    """
    q = start - origin
    denom = r[..., 0] * span[..., 1] - r[..., 1] * span[..., 0]
    ok = ~(np.abs(denom) < _EPS)
    safe = np.where(ok, denom, 1.0)
    t = (q[..., 0] * span[..., 1] - q[..., 1] * span[..., 0]) / safe
    u = (q[..., 0] * r[..., 1] - q[..., 1] * r[..., 0]) / safe
    return t, u, ok


def _on_segments(t: np.ndarray, u: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Both parameters in [0, 1], ends included: a specular point."""
    lo, hi = -_EPS, 1.0 + _EPS
    return ok & (lo <= t) & (t <= hi) & (lo <= u) & (u <= hi)


def _crosses(t: np.ndarray, u: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Both parameters inside (0, 1): a proper crossing, not a touch."""
    lo, hi = _EPS, 1.0 - _EPS
    return ok & (lo < t) & (t < hi) & (lo < u) & (u < hi)


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
        Endpoint coordinates (2-D), finite and distinct.
    walls:
        Environment walls; each may obstruct and/or reflect. Their
        constants are built on every call: to trace many links over one
        wall set, build a :class:`WallSet` once and call its ``trace``.
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
        paper §5.2 are representable), then single bounces in wall
        order, then double bounces ordered by first wall, then second.
    """
    return WallSet(walls).trace(a, b, max_reflections, min_gain)


def one_way_channel(rays: Sequence[Ray], frequency_hz: float) -> complex:
    """Superpose rays into a one-way complex channel (paper Eq. 8 terms).

    Each ray contributes ``gain * (lambda / 4 pi d) * exp(-j 2 pi f d / c)``.
    """
    if not 0 < frequency_hz < math.inf:
        raise GeometryError(f"frequency must be positive and finite, got {frequency_hz}")
    metrics.count("channel.channels_synthesized")
    h = 0.0 + 0.0j
    for ray in rays:
        amplitude = ray.gain * free_space_amplitude(ray.length, frequency_hz)
        phase = -2.0 * np.pi * frequency_hz * ray.length / SPEED_OF_LIGHT
        h += amplitude * np.exp(1j * phase)
    return complex(h)
