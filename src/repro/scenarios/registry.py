"""The named-scenario registry.

Scenario specs ship as canonical TOML files under
``repro/scenarios/library/`` — one file per scenario, file stem equal
to the scenario's ``name``. The registry loads them lazily on first
lookup; :func:`register` adds in-process scenarios (tests, generated
worlds) on top. :func:`resolve` is the one entry point the experiment
layer uses: it accepts a :class:`~repro.scenarios.spec.Scenario`, a
registry name, or a path to a ``.toml``/``.json`` spec file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.errors import ConfigurationError
from repro.scenarios import toml_codec
from repro.scenarios.spec import Scenario

#: Directory of shipped scenario spec files.
LIBRARY_DIR = Path(__file__).resolve().parent / "library"

_SCENARIOS: Dict[str, Scenario] = {}
_library_loaded = False


def _load_library() -> None:
    global _library_loaded
    if _library_loaded:
        return
    for path in sorted(LIBRARY_DIR.glob("*.toml")):
        scenario = load_file(path)
        if scenario.name != path.stem:
            raise ConfigurationError(
                f"scenario file {path.name} declares name "
                f"{scenario.name!r}; the stem must match"
            )
        _SCENARIOS.setdefault(scenario.name, scenario)
    _library_loaded = True


def load_file(path: Union[str, Path]) -> Scenario:
    """Parse one ``.toml`` or ``.json`` spec file into a Scenario."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return Scenario.from_json(text)
    if path.suffix == ".toml":
        return Scenario.from_dict(toml_codec.loads(text))
    raise ConfigurationError(
        f"scenario files must be .toml or .json, got {path.name!r}"
    )


def names() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    _load_library()
    return tuple(sorted(_SCENARIOS))


def get(name: str) -> Scenario:
    """Look up a named scenario."""
    _load_library()
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choices: {', '.join(names())}"
        ) from None


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the in-process registry (tests, generators)."""
    _load_library()
    if not replace and scenario.name in _SCENARIOS:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered"
        )
    _SCENARIOS[scenario.name] = scenario
    return scenario


def resolve(value: Union[str, Scenario]) -> Scenario:
    """Scenario passthrough, registry name, or spec-file path."""
    if isinstance(value, Scenario):
        return value
    if not isinstance(value, str):
        raise ConfigurationError(
            f"cannot resolve a {type(value).__name__} to a scenario"
        )
    looks_like_path = (
        value.endswith(".toml")
        or value.endswith(".json")
        or os.sep in value
    )
    if looks_like_path:
        return load_file(value)
    return get(value)
