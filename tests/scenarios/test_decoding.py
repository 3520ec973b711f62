"""Decoder properties: malformed scenario and fault-plan input raises
only typed errors, and whatever decodes was not coerced.

Every library world's dict gets random value swaps and deletions, and
random text goes through ``Scenario.from_json``, ``FaultPlan.from_json``
and ``registry.load_file`` (``.toml`` and ``.json``). Whatever the
input, the decoders either return a spec or raise an ``RFlyError``
subclass — never a bare ``TypeError``/``ValueError``/``IndexError`` —
and a spec that decodes re-encodes to the values it was given. The
policy cases pin the one decode policy of :mod:`repro.codec` value by
value: each names its dotted field in a ``ConfigurationError``.
"""

from __future__ import annotations

import copy
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RFlyError
from repro.faults import FaultPlan
from repro.scenarios import registry, toml_codec
from repro.scenarios.cli import main as scenarios_main
from repro.scenarios.spec import Scenario

LIBRARY = {name: registry.get(name).to_dict() for name in registry.names()}

#: Replacement values: wrong types, non-finite and huge numbers, nesting.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
)


def _paths(node, prefix=()):
    """Every (container path, key) leaf or branch position in ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_worlds(draw):
    """A library world's dict with 1–3 random swaps or deletions."""
    data = copy.deepcopy(LIBRARY[draw(st.sampled_from(sorted(LIBRARY)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_paths(data), key=repr)))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(junk)
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    return data


def _decodes_or_raises_typed(decode, payload) -> None:
    try:
        decode(payload)
    except RFlyError:
        pass


@settings(max_examples=300)
@given(mutated_worlds())
def test_mutated_library_worlds_raise_only_typed_errors(data):
    _decodes_or_raises_typed(Scenario.from_dict, data)


def _given_values_survive(given, encoded) -> None:
    """Every value of ``given`` reappears in ``encoded``: an integer may
    come back as the equal float, and a null as an omitted key."""
    if isinstance(given, dict):
        assert isinstance(encoded, dict)
        for key, value in given.items():
            if value is None:
                assert key not in encoded, key
            else:
                _given_values_survive(value, encoded[key])
    elif isinstance(given, list):
        assert isinstance(encoded, list) and len(encoded) == len(given)
        for item, clone in zip(given, encoded):
            _given_values_survive(item, clone)
    else:
        same_type = type(encoded) is type(given) or (
            type(given) is int and type(encoded) is float
        )
        assert same_type and encoded == given, (given, encoded)


@settings(max_examples=300)
@given(mutated_worlds())
def test_decoded_worlds_keep_the_values_they_were_given(data):
    try:
        spec = Scenario.from_dict(data)
    except RFlyError:
        return
    _given_values_survive(data, spec.to_dict())


_DROP = {"site": "channel.link", "action": "drop"}

#: One value per rule of the decode policy, each of which the decoder
#: used to coerce or pass: (scenario keys, dotted field, TOML holds it).
POLICY_CASES = {
    "bool_from_string": (
        {"traffic": {"use_gen2_mac": "False"}},
        "scenario.traffic.use_gen2_mac",
        True,
    ),
    "int_from_fraction": (
        {"floorplan": {"max_reflections": 2.6}},
        "scenario.floorplan.max_reflections",
        True,
    ),
    "float_from_bool": (
        {"traffic": {"load": True}},
        "scenario.traffic.load",
        True,
    ),
    "string_from_int": ({"description": 5}, "scenario.description", True),
    "section_from_null": ({"traffic": None}, "scenario.traffic", False),
    "fault_spec_key_typo": (
        {"fault_plan": {"specs": [{**_DROP, "max_injection": 3}]}},
        "scenario.fault_plan.specs[0].max_injection",
        True,
    ),
    "trigger_key_typo": (
        {"fault_plan": {"specs": [{**_DROP, "trigger": {"strat": 3}}]}},
        "scenario.fault_plan.specs[0].trigger.strat",
        True,
    ),
    "nan_magnitude": (
        {
            "fault_plan": {
                "specs": [
                    {
                        "site": "gen2.frame",
                        "action": "corrupt_bits",
                        "magnitude": math.nan,
                    }
                ]
            }
        },
        "scenario.fault_plan.specs[0].magnitude",
        False,
    ),
    "nan_window_start": (
        {
            "fault_plan": {
                "specs": [
                    {
                        **_DROP,
                        "trigger": {
                            "kind": "call_window",
                            "start": math.nan,
                            "stop": 10.0,
                        },
                    }
                ]
            }
        },
        "scenario.fault_plan.specs[0].trigger.start",
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_decode_policy_names_the_dotted_field(case, tmp_path):
    keys, dotted, toml_holds = POLICY_CASES[case]
    data = {"name": "world", **keys}
    named = re.escape(f"{dotted}:")
    with pytest.raises(ConfigurationError, match=named):
        Scenario.from_dict(data)
    if toml_holds:
        path = tmp_path / "world.toml"
        path.write_text(toml_codec.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=named):
            registry.load_file(path)


@settings(max_examples=100)
@given(st.text(max_size=60))
def test_random_text_raises_only_typed_errors(text):
    _decodes_or_raises_typed(Scenario.from_json, text)
    _decodes_or_raises_typed(FaultPlan.from_json, text)


@settings(max_examples=60)
@given(
    st.sampled_from([".toml", ".json"]),
    st.one_of(
        st.text(max_size=60),
        st.sampled_from(["a = []\n[a.b]\n", "[[a]]\n[a.b.c]\nx = [[[1]]]\n"]),
    ),
)
def test_random_spec_files_raise_only_typed_errors(tmp_path_factory, suffix, text):
    path = tmp_path_factory.mktemp("spec") / f"world{suffix}"
    path.write_text(text, encoding="utf-8")
    _decodes_or_raises_typed(registry.load_file, path)


@pytest.mark.parametrize(
    "text, section",
    [
        ('{"name": 1}', "scenario"),
        ('{"name": "w", "grid": {"resolution_m": "a"}}', "'grid'"),
        ('{"name": "w", "floorplan": {"walls": [5]}}', "'floorplan'"),
        ('{"name": "w", "tags": {"n_tags": 1e999}}', "'tags'"),
    ],
)
def test_decode_errors_name_their_section_and_chain(text, section):
    with pytest.raises(ConfigurationError, match=section) as caught:
        Scenario.from_json(text)
    assert caught.value.__cause__ is not None


def test_invalid_json_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="scenario JSON"):
        Scenario.from_json("{")


@pytest.mark.parametrize(
    "body", ['name = 1\n', 'name = "world"\n[grid]\nresolution_m = "a"\n']
)
def test_validate_reports_malformed_values_instead_of_crashing(tmp_path, capsys, body):
    spec = tmp_path / "world.toml"
    spec.write_text(body, encoding="utf-8")
    assert scenarios_main(["validate", str(spec)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {spec}:" in out
    assert "0/1 scenario file(s) valid" in out


def test_validate_names_every_field_it_would_have_coerced(tmp_path, capsys):
    spec = tmp_path / "world.toml"
    spec.write_text(
        'name = "world"\n\n[floorplan]\nmax_reflections = 2.6\n\n'
        '[traffic]\nuse_gen2_mac = "false"\n',
        encoding="utf-8",
    )
    assert scenarios_main(["validate", str(spec)]) == 1
    out = capsys.readouterr().out
    assert "scenario.floorplan.max_reflections:" in out
    assert "scenario.traffic.use_gen2_mac:" in out
    assert "0/1 scenario file(s) valid" in out
