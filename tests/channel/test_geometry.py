"""Tests for geometric primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.channel.geometry import (
    Wall,
    distance_m,
    mirror_point,
    reflection_point,
    segment_intersection,
    segments_cross,
)
from repro.errors import GeometryError

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestWall:
    def test_degenerate_rejected(self):
        for start, end in (
            ((1.0, 1.0), (1.0, 1.0)),
            ((np.nan, 0.0), (1.0, 0.0)),
            ((0.0, 0.0), (np.inf, 0.0)),
        ):
            with pytest.raises(GeometryError):
                Wall(start, end)

    def test_reflectivity_bounds(self):
        with pytest.raises(GeometryError):
            Wall((0, 0), (1, 0), reflectivity=1.5)

    def test_negative_loss_rejected(self):
        for loss in (-1.0, np.nan, np.inf):
            with pytest.raises(GeometryError):
                Wall((0, 0), (1, 0), transmission_loss_db=loss)

    def test_normal_is_perpendicular(self):
        wall = Wall((0, 0), (2, 2))
        assert np.dot(wall.normal, wall.direction) == pytest.approx(0.0)
        assert np.linalg.norm(wall.normal) == pytest.approx(1.0)

    def test_length(self):
        assert Wall((0, 0), (3, 4)).length == pytest.approx(5.0)


class TestDistance:
    def test_known(self):
        assert distance_m((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(GeometryError):
            distance_m((0, 0, 0), (1, 1, 1))

    @given(coords, coords, coords, coords)
    def test_symmetry(self, x1, y1, x2, y2):
        assert distance_m((x1, y1), (x2, y2)) == pytest.approx(
            distance_m((x2, y2), (x1, y1))
        )


class TestMirror:
    def test_mirror_across_x_axis(self):
        wall = Wall((0, 0), (10, 0))
        np.testing.assert_allclose(mirror_point((3.0, 2.0), wall), [3.0, -2.0])

    def test_mirror_is_involution(self):
        wall = Wall((1, 1), (4, 3))
        p = np.array([2.5, -1.0])
        np.testing.assert_allclose(
            mirror_point(mirror_point(p, wall), wall), p, atol=1e-12
        )

    def test_point_on_wall_is_fixed(self):
        wall = Wall((0, 0), (10, 0))
        np.testing.assert_allclose(
            mirror_point((5.0, 0.0), wall), [5.0, 0.0], atol=1e-12
        )


class TestIntersection:
    def test_crossing_segments(self):
        p = segment_intersection((0, 0), (2, 2), (0, 2), (2, 0))
        np.testing.assert_allclose(p, [1.0, 1.0])

    def test_disjoint_segments(self):
        assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None

    def test_parallel_segments(self):
        assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None

    def test_touching_endpoint_counts(self):
        p = segment_intersection((0, 0), (1, 1), (1, 1), (2, 0))
        np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-6)

    def test_proper_crossing_predicate(self):
        assert segments_cross((0, 0), (2, 2), (0, 2), (2, 0))
        assert not segments_cross((0, 0), (1, 1), (1, 1), (2, 0))  # touch only
        assert not segments_cross((0, 0), (1, 0), (2, -1), (2, 1))  # disjoint


class TestReflectionPoint:
    def test_symmetric_reflection(self):
        wall = Wall((0, 0), (10, 0))
        p = reflection_point((2.0, 1.0), (4.0, 1.0), wall)
        np.testing.assert_allclose(p, [3.0, 0.0], atol=1e-9)

    def test_specular_point_outside_segment(self):
        wall = Wall((0, 0), (1, 0))
        assert reflection_point((5.0, 1.0), (7.0, 1.0), wall) is None

    def test_point_on_wall_plane_gives_none(self):
        wall = Wall((0, 0), (10, 0))
        assert reflection_point((2.0, 1.0), (4.0, 0.0), wall) is None
        assert reflection_point((4.0, 0.0), (2.0, 1.0), wall) is None

    def test_equal_angles(self):
        """Specular law: incidence angle equals reflection angle."""
        wall = Wall((0, 0), (10, 0))
        a, b = np.array([1.0, 2.0]), np.array([6.0, 3.0])
        p = reflection_point(a, b, wall)
        va, vb = a - p, b - p
        cos_a = abs(np.dot(va, wall.normal)) / np.linalg.norm(va)
        cos_b = abs(np.dot(vb, wall.normal)) / np.linalg.norm(vb)
        assert cos_a == pytest.approx(cos_b)

    @given(coords, st.floats(0.5, 50.0), coords, st.floats(0.5, 50.0))
    def test_reflected_length_exceeds_direct(self, x1, y1, x2, y2):
        """A bounce path is never shorter than the direct path (§5.2)."""
        wall = Wall((-200, 0), (200, 0))
        a, b = np.array([x1, y1]), np.array([x2, y2])
        if distance_m(a, b) < 1e-6:
            return
        p = reflection_point(a, b, wall)
        if p is None:
            return
        bounce_length = distance_m(a, p) + distance_m(p, b)
        assert bounce_length >= distance_m(a, b) - 1e-9
