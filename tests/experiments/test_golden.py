"""Golden-file regression tests for every experiment table.

Each experiment runs at its reduced (smoke) trial counts on the sweep
engine and its rendered ``ExperimentOutput.report()`` must match the
checked-in golden file byte for byte. Because every sweep is seeded and
the engine fixes task seeds before dispatch, these tables are exact
artifacts — any diff is a real behavior change, not noise.

To accept an intentional change::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py --update-golden
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import registry
from repro.runtime import RuntimeConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _render(name: str) -> str:
    outputs = registry.run_experiment(name, RuntimeConfig(), smoke=True).outputs
    return "\n\n".join(output.report() for output in outputs) + "\n"


@pytest.mark.parametrize("name", registry.aliases())
def test_golden_table(name, pytestconfig):
    text = _render(name)
    path = GOLDEN_DIR / f"{name}.txt"
    if pytestconfig.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), (
        f"golden file {path} missing; regenerate with "
        "pytest tests/experiments/test_golden.py --update-golden"
    )
    expected = path.read_text(encoding="utf-8")
    assert text == expected, (
        f"{name} table drifted from its golden file; if intentional, "
        "rerun with --update-golden and review the diff"
    )


def test_golden_dir_has_all_tables():
    missing = [
        name
        for name in registry.aliases()
        if not (GOLDEN_DIR / f"{name}.txt").exists()
    ]
    assert not missing, f"golden files missing for: {missing}"
