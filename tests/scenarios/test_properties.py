"""Property suite: generated scenarios serialize losslessly and run
deterministically.

Two families: (1) any valid generated :class:`Scenario` round-trips
through canonical JSON and TOML byte-identically; (2) any generated
smoke-grid scenario compiles to sweep tasks whose end-to-end results
are a pure function of the seed, identical across the serial and
process backends.
"""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.runtime import RuntimeConfig, run_sweep
from repro.scenarios import compiler, toml_codec
from repro.scenarios.spec import (
    ClutterSpec,
    FloorplanSpec,
    GridSpec,
    RadioSpec,
    ReaderSpec,
    Scenario,
    TagLayoutSpec,
    TrafficSpec,
    TrajectorySpec,
    WallSpec,
)

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=0.05, max_value=10.0, allow_nan=False, allow_infinity=False
)
names = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)


@st.composite
def walls(draw):
    x0, y0 = draw(finite), draw(finite)
    dx, dy = draw(positive), draw(finite)
    return WallSpec(
        x0_m=x0,
        y0_m=y0,
        x1_m=x0 + dx,
        y1_m=y0 + dy,
        material=draw(
            st.sampled_from(("drywall", "concrete", "steel", "glass"))
        ),
        name=draw(names),
    )


@st.composite
def floorplans(draw, max_walls=3):
    clutter = None
    if draw(st.booleans()):
        lo = draw(st.floats(min_value=0.1, max_value=1.0))
        clutter = ClutterSpec(
            n_obstacles=draw(st.integers(min_value=0, max_value=3)),
            scatter_std_m=draw(st.floats(min_value=0.0, max_value=3.0)),
            half_extent_min_m=lo,
            half_extent_max_m=lo + draw(st.floats(min_value=0.0, max_value=1.0)),
            materials=tuple(
                draw(
                    st.lists(
                        st.sampled_from(("drywall", "steel")),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                )
            ),
        )
    return FloorplanSpec(
        walls=tuple(draw(st.lists(walls(), max_size=max_walls))),
        max_reflections=draw(st.integers(min_value=0, max_value=2)),
        clutter=clutter,
    )


@st.composite
def readers(draw):
    if draw(st.booleans()):
        return ReaderSpec(kind="fixed", x_m=draw(finite), y_m=draw(finite))
    dmin = draw(st.floats(min_value=0.5, max_value=5.0))
    return ReaderSpec(
        kind="random_ring",
        distance_min_m=dmin,
        distance_max_m=dmin + draw(st.floats(min_value=0.0, max_value=5.0)),
        clip_x_min_m=-20.0,
        clip_x_max_m=20.0,
        clip_y_min_m=-20.0,
        clip_y_max_m=20.0,
    )


@st.composite
def trajectories(draw):
    spacing = draw(st.floats(min_value=0.3, max_value=1.0))
    if draw(st.booleans()):
        x0, y0 = draw(finite), draw(finite)
        return TrajectorySpec(
            kind="line",
            x0_m=x0,
            y0_m=y0,
            x1_m=x0 + draw(st.floats(min_value=0.5, max_value=4.0)),
            y1_m=y0,
            spacing_m=spacing,
            jitter_std_m=draw(st.floats(min_value=0.0, max_value=0.05)),
        )
    lmin = draw(st.floats(min_value=0.5, max_value=2.0))
    return TrajectorySpec(
        kind="random_segment",
        x_min_m=-5.0,
        x_max_m=5.0,
        y_min_m=-5.0,
        y_max_m=5.0,
        length_min_m=lmin,
        length_max_m=lmin + draw(st.floats(min_value=0.0, max_value=2.0)),
        spacing_m=spacing,
    )


@st.composite
def tag_layouts(draw):
    kind = draw(st.sampled_from(("fixed", "uniform_box", "side_offset")))
    if kind == "fixed":
        positions = tuple(
            (draw(finite), draw(finite))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        return TagLayoutSpec(
            kind="fixed", n_tags=len(positions), positions_m=positions
        )
    if kind == "uniform_box":
        x0, y0 = draw(finite), draw(finite)
        return TagLayoutSpec(
            kind="uniform_box",
            n_tags=draw(st.integers(min_value=1, max_value=3)),
            x_min_m=x0,
            x_max_m=x0 + draw(positive),
            y_min_m=y0,
            y_max_m=y0 + draw(positive),
        )
    omin = draw(st.floats(min_value=0.0, max_value=2.0))
    fmin = draw(st.floats(min_value=0.0, max_value=0.5))
    return TagLayoutSpec(
        kind="side_offset",
        n_tags=draw(st.integers(min_value=1, max_value=3)),
        offset_min_m=omin,
        offset_max_m=omin + draw(st.floats(min_value=0.0, max_value=2.0)),
        along_fraction_min=fmin,
        along_fraction_max=fmin + draw(st.floats(min_value=0.0, max_value=0.5)),
    )


@st.composite
def radios(draw):
    low = draw(st.floats(min_value=800e6, max_value=900e6))
    smin = draw(st.floats(min_value=3.0, max_value=15.0))
    return RadioSpec(
        center_frequency_hz=draw(st.floats(min_value=850e6, max_value=950e6)),
        band_low_hz=low,
        band_high_hz=low + draw(st.floats(min_value=0.0, max_value=50e6)),
        relay_gain_db=draw(st.floats(min_value=20.0, max_value=60.0)),
        snr_kind=draw(st.sampled_from(("fixed", "distance_law"))),
        snr_db=draw(st.floats(min_value=5.0, max_value=40.0)),
        snr_min_db=smin,
        snr_max_db=smin + draw(st.floats(min_value=0.0, max_value=20.0)),
        rssi_mismatch_std_db=draw(st.floats(min_value=0.0, max_value=5.0)),
    )


@st.composite
def grids(draw):
    resolution = draw(st.floats(min_value=0.3, max_value=1.0))
    if draw(st.booleans()):
        x0, y0 = draw(finite), draw(finite)
        return GridSpec(
            kind="fixed",
            x_min_m=x0,
            x_max_m=x0 + draw(st.floats(min_value=1.0, max_value=5.0)),
            y_min_m=y0,
            y_max_m=y0 + draw(st.floats(min_value=1.0, max_value=5.0)),
            resolution_m=resolution,
        )
    return GridSpec(
        kind="tag_side",
        margin_m=draw(st.floats(min_value=1.0, max_value=4.0)),
        side_sign=draw(st.sampled_from((-1.0, 1.0))),
        resolution_m=resolution,
    )


def _off_the_flight(trajectory, tags):
    """Scenario validation rejects a fixed tag on a line flight (the
    strategy's lines run along +x at ``y0_m``), so never draw one."""
    if trajectory.kind != "line" or tags.kind != "fixed":
        return True
    return all(
        abs(y - trajectory.y0_m) > 0.01
        or not trajectory.x0_m - 0.01 <= x <= trajectory.x1_m + 0.01
        for x, y in tags.positions_m
    )


@st.composite
def scenarios(draw):
    name = draw(names)
    description = draw(st.text(max_size=20))
    floorplan = draw(floorplans())
    reader = draw(readers())
    trajectory = draw(trajectories())
    tags = draw(tag_layouts())
    assume(_off_the_flight(trajectory, tags))
    return Scenario(
        name=name,
        description=description,
        floorplan=floorplan,
        reader=reader,
        trajectory=trajectory,
        tags=tags,
        radio=draw(radios()),
        traffic=TrafficSpec(
            load=draw(st.floats(min_value=0.5, max_value=8.0)),
            use_gen2_mac=draw(st.booleans()),
            powering_range_m=draw(st.floats(min_value=1.0, max_value=30.0)),
        ),
        grid=draw(grids()),
    )


class TestRoundTripProperties:
    @given(spec=scenarios())
    def test_json_round_trip_is_byte_lossless(self, spec):
        wire = spec.to_json()
        clone = Scenario.from_json(wire)
        assert clone == spec
        assert clone.to_json() == wire

    @given(spec=scenarios())
    def test_toml_round_trip_is_byte_lossless(self, spec):
        text = toml_codec.dumps(spec.to_dict())
        clone = Scenario.from_dict(toml_codec.loads(text))
        assert clone == spec
        assert toml_codec.dumps(clone.to_dict()) == text

    @given(spec=scenarios())
    def test_json_and_toml_agree(self, spec):
        via_toml = Scenario.from_dict(
            toml_codec.loads(toml_codec.dumps(spec.to_dict()))
        )
        assert via_toml.to_json() == spec.to_json()


class TestCompileRunProperties:
    @given(spec=scenarios(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10)
    def test_workload_is_a_pure_function_of_spec_and_seed(self, spec, seed):
        first = compiler.generate_workload(spec, seed=seed)
        second = compiler.generate_workload(spec, seed=seed)
        assert len(first.events) == len(second.events)
        for a, b in zip(first.events, second.events):
            assert a.time_s == b.time_s
            assert a.session_id == b.session_id
            assert a.measurement.h_target == b.measurement.h_target

    @given(spec=scenarios(), seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=3)
    def test_compiled_sweep_serial_equals_process(self, spec, seed):
        tasks = compiler.compile_scenario(spec, n_replicates=2, seed=seed)
        serial = run_sweep(
            tasks, RuntimeConfig(backend="serial"), name="prop-serial"
        )
        process = run_sweep(
            tasks,
            RuntimeConfig(backend="process", max_workers=2),
            name="prop-process",
        )
        # NaN-tolerant equality (unlocalized sessions yield NaN errors).
        assert json.dumps(serial.results) == json.dumps(process.results)
