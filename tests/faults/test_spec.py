"""FaultPlan / FaultSpec / Trigger: validation and lossless JSON."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import (
    SITE_ACTIONS,
    TRIGGER_KINDS,
    FaultPlan,
    FaultSpec,
    Trigger,
)


class TestTriggerValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Trigger(kind="sometimes")

    def test_nth_call_needs_nonnegative_n(self):
        with pytest.raises(ConfigurationError):
            Trigger(kind="nth_call")
        with pytest.raises(ConfigurationError):
            Trigger(kind="nth_call", n=-1)

    @pytest.mark.parametrize(
        "kind", ["call_window", "pose_index", "clock_window"]
    )
    def test_window_kinds_need_nonempty_window(self, kind):
        with pytest.raises(ConfigurationError):
            Trigger(kind=kind, start=1.0)
        with pytest.raises(ConfigurationError):
            Trigger(kind=kind, start=2.0, stop=2.0)

    def test_matching_semantics(self):
        assert Trigger().matches(7)
        nth = Trigger(kind="nth_call", n=3)
        assert nth.matches(3) and not nth.matches(2)
        window = Trigger(kind="call_window", start=2, stop=4)
        assert [window.matches(i) for i in range(5)] == [
            False,
            False,
            True,
            True,
            False,
        ]
        pose = Trigger(kind="pose_index", start=1, stop=2)
        assert pose.matches(0, index=1)
        assert not pose.matches(0, index=2)
        assert not pose.matches(0)  # no pose index carried -> no match
        clock = Trigger(kind="clock_window", start=0.5, stop=1.0)
        assert clock.matches(0, now_s=0.5)
        assert not clock.matches(0, now_s=1.0)
        assert not clock.matches(0)


class TestFaultSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="flux.capacitor", action="drop")

    def test_incompatible_action_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="channel.link", action="corrupt_bits")

    def test_rate_must_be_probability(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="channel.link", action="drop", rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(site="channel.link", action="drop", rate=-0.1)

    def test_max_injections_nonnegative(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="channel.link", action="drop", max_injections=-1)

    def test_every_registered_site_action_constructs(self):
        for site, actions in SITE_ACTIONS.items():
            for action in actions:
                spec = FaultSpec(site=site, action=action)
                assert spec.site == site and spec.action == action


class TestFaultPlan:
    def test_single_builds_one_spec_plan(self):
        plan = FaultPlan.single("channel.link", "drop", rate=0.5)
        assert len(plan) == 1 and bool(plan)
        assert plan.sites == ("channel.link",)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0

    def test_sites_dedupe_in_order(self):
        plan = FaultPlan(
            (
                FaultSpec("serve.ingest", "stall"),
                FaultSpec("channel.link", "drop"),
                FaultSpec("serve.ingest", "drop"),
            )
        )
        assert plan.sites == ("serve.ingest", "channel.link")

    def test_plan_is_picklable_and_hashable(self):
        plan = FaultPlan.single(
            "gen2.frame", "corrupt_bits", magnitude=2.0, max_injections=5
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))

    @pytest.mark.parametrize(
        ("text", "named"),
        [
            ("", "not valid JSON"),
            ("[]", "fault_plan: expected a table"),
            ("[" * 100_000, "not valid JSON"),
        ],
    )
    def test_from_json_rejects_non_plans_typed(self, text, named):
        with pytest.raises(ConfigurationError, match=named):
            FaultPlan.from_json(text)


# -- hypothesis: JSON round-trip is lossless -----------------------------------

_site_actions = [
    (site, action)
    for site, actions in SITE_ACTIONS.items()
    for action in actions
]


@st.composite
def triggers(draw):
    kind = draw(st.sampled_from(TRIGGER_KINDS))
    if kind == "always":
        return Trigger()
    if kind == "nth_call":
        return Trigger(kind=kind, n=draw(st.integers(0, 1000)))
    start = draw(
        st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    span = draw(
        st.floats(
            min_value=1e-6,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    return Trigger(kind=kind, start=start, stop=start + span)


@st.composite
def fault_specs(draw):
    site, action = draw(st.sampled_from(_site_actions))
    return FaultSpec(
        site=site,
        action=action,
        trigger=draw(triggers()),
        rate=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        magnitude=draw(
            st.floats(
                min_value=0.0,
                max_value=1e3,
                allow_nan=False,
                allow_infinity=False,
            )
        ),
        max_injections=draw(st.none() | st.integers(0, 100)),
    )


fault_plans = st.lists(fault_specs(), min_size=0, max_size=6).map(
    lambda specs: FaultPlan(tuple(specs))
)


@given(fault_plans)
def test_plan_json_round_trip_lossless(plan):
    assert FaultPlan.from_json(plan.to_json()) == plan


@given(fault_plans)
def test_plan_json_is_canonical(plan):
    # Round-tripping twice reproduces the exact same JSON text, so the
    # string is safe to use as a cache-keyed task parameter.
    text = plan.to_json()
    assert FaultPlan.from_json(text).to_json() == text
