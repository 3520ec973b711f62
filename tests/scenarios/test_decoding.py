"""Decoder property: malformed scenario and fault-plan input raises only
typed errors.

Every library world's dict gets random value swaps and deletions, and
random text goes through ``Scenario.from_json``, ``FaultPlan.from_json``
and ``registry.load_file`` (``.toml`` and ``.json``). Whatever the
input, the decoders either return a spec or raise an ``RFlyError``
subclass — never a bare ``TypeError``/``ValueError``/``IndexError``.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RFlyError
from repro.faults import FaultPlan
from repro.scenarios import registry
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
