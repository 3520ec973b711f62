"""The walls x rays tracer against the scalar reference tracer.

Both tracers must return the same rays, bit for bit: same order,
lengths, gains, bounce counts and descriptions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channel import Environment, Wall, trace_rays
from repro.channel.environment import BRICK, CONCRETE, DRYWALL, GLASS, STEEL

from tests.channel import reference_tracer

LOSSES_DB = (0.0, 2.0, 3.0, 8.0, 12.0, 35.0, 20)
REFLECTIVITIES = (0.0, 0.15, 0.2, 0.35, 0.4, 0.85, 1.0)
coords = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)
grid = st.integers(min_value=-10, max_value=10).map(float)


def _key(rays):
    return [(ray.length, ray.gain, ray.bounces, ray.description) for ray in rays]


def assert_same_rays(a, b, walls, max_reflections):
    got = trace_rays(a, b, walls, max_reflections=max_reflections)
    want = reference_tracer.trace_rays(a, b, walls, max_reflections=max_reflections)
    assert _key(got) == _key(want)


@st.composite
def walls(draw, index):
    """An oblique or axis-aligned wall of a library-like material."""
    if draw(st.booleans()):
        x0, y0 = draw(grid), draw(grid)
        extent = float(draw(st.integers(min_value=1, max_value=10)))
        end = (x0 + extent, y0) if draw(st.booleans()) else (x0, y0 + extent)
        start = (x0, y0)
    else:
        start = (draw(coords), draw(coords))
        end = (draw(coords), draw(coords))
        if np.allclose(start, end):
            end = (start[0] + 1.0, start[1] - 1.0)
    return Wall(
        start,
        end,
        transmission_loss_db=draw(st.sampled_from(LOSSES_DB)),
        reflectivity=draw(st.sampled_from(REFLECTIVITIES)),
        name=draw(st.sampled_from(("", f"w{index}", "clutter"))),
    )


@st.composite
def scenes(draw):
    """Walls (one object repeated, one equal-by-value copy) and endpoints."""
    n = draw(st.integers(min_value=0, max_value=12))
    wall_set = [draw(walls(i)) for i in range(n)]
    if wall_set and draw(st.booleans()):
        wall_set.append(wall_set[draw(st.integers(0, n - 1))])
    if wall_set and draw(st.booleans()):
        w = wall_set[draw(st.integers(0, n - 1))]
        wall_set.append(
            Wall(w.start, w.end, w.transmission_loss_db, w.reflectivity, w.name)
        )
    wall_set = draw(st.permutations(wall_set))
    if wall_set and draw(st.booleans()):
        # An endpoint on (the line through) a wall.
        w = wall_set[draw(st.integers(0, len(wall_set) - 1))]
        s = draw(st.sampled_from((-0.5, 0.0, 0.25, 0.5, 1.0, 1.5)))
        a = np.asarray(w.start) + s * (np.asarray(w.end) - np.asarray(w.start))
    else:
        a = np.array([draw(coords), draw(coords)])
    b = np.array([draw(coords), draw(coords)])
    if np.allclose(a, b):
        b = b + 1.0
    return wall_set, a, b, draw(st.integers(min_value=0, max_value=2))


class TestAgainstReference:
    @settings(max_examples=200)
    @given(scenes())
    def test_random_scenes(self, scene):
        wall_set, a, b, max_reflections = scene
        assert_same_rays(a, b, wall_set, max_reflections)
        assert_same_rays(b, a, wall_set, max_reflections)

    def test_comb_pins_product_order(self):
        """One leg crosses five walls of distinct materials, in every order."""
        materials = (DRYWALL, CONCRETE, BRICK, STEEL, GLASS)
        comb = [
            Wall((x, -5.0), (x, 5.0), m.transmission_loss_db, m.reflectivity, m.name)
            for x, m in zip((1.0, 2.0, 3.0, 4.0, 5.0), materials)
        ]
        rng = np.random.default_rng(0)
        for _ in range(40):
            order = [comb[i] for i in rng.permutation(len(comb))]
            for max_reflections in (0, 1, 2):
                assert_same_rays((0.0, 0.3), (6.0, -0.2), order, max_reflections)

    def test_leg_parallel_to_wall(self):
        corridor = [Wall((0, 1), (10, 1), 3.0, 0.2), Wall((0, -1), (10, -1), 12.0, 0.4)]
        for a, b in (((1, 1), (9, 1)), ((1, 0), (9, 0)), ((0, 1), (5, 1))):
            for max_reflections in (0, 1, 2):
                assert_same_rays(a, b, corridor, max_reflections)

    def test_repeated_and_copied_wall(self):
        """A second bounce off the wall the first one hit, or its copy."""
        wall = Wall((0, -5), (0, 5), 3.0, 0.85, "x")
        copy = Wall((0, -5), (0, 5), 3.0, 0.85, "x")
        for wall_set in ([wall, wall], [wall, copy], [copy, wall, wall]):
            for a, b in (((-2, 1), (3, 2)), ((2, 1), (3, 2))):
                assert_same_rays(a, b, wall_set, 2)

    def test_endpoint_on_wall_line(self):
        shelf = Wall((0, 0), (10, 0), 35.0, 0.85, "shelf")
        back = Wall((0, 4), (10, 4), 12.0, 0.4, "back")
        for a in ((5, 0), (0, 0), (12, 0), (5, 4)):
            for max_reflections in (1, 2):
                assert_same_rays(a, (3, 2), [shelf, back], max_reflections)
                assert_same_rays((3, 2), a, [shelf, back], max_reflections)


class TestEnvironmentWallConstants:
    def _fresh(self, env):
        return Environment(env.walls, max_reflections=env.max_reflections)

    def test_add_wall_after_a_query(self):
        env = Environment(max_reflections=2)  # steel shelves flanking an aisle
        env.add_wall((0.0, -1.25), (10.0, -1.25), STEEL, "shelf-south")
        env.add_wall((0.0, 1.25), (10.0, 1.25), STEEL, "shelf-north")
        a, b = (0.5, 0.2), (9.0, -0.7)
        env.channel(a, b, 915e6)
        env.add_wall((4.0, -3.0), (4.0, 3.0), CONCRETE, "cross")
        assert _key(env.rays_between(a, b)) == _key(self._fresh(env).rays_between(a, b))

    def test_direct_edits_of_walls(self):
        env = Environment.two_floor_building()
        a, b = (2.0, 3.0), (20.0, 30.0)
        before = _key(env.rays_between(a, b))
        env.walls.pop()
        env.walls[0] = Wall((0, 0), (30, 0), 35.0, 0.85, "steel-south")
        env.walls.append(env.walls[1])
        after = _key(env.rays_between(a, b))
        assert after != before
        assert after == _key(self._fresh(env).rays_between(a, b))
        env.walls = env.walls[:3]
        assert _key(env.rays_between(a, b)) == _key(self._fresh(env).rays_between(a, b))
