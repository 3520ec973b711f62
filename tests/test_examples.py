"""The examples must run end-to-end (they carry their own assertions)."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "relay_bringup.py",
        "multireader_warehouse.py",
        "swarm_and_selfloc.py",
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 50  # each example narrates its results


@pytest.mark.slow
def test_warehouse_inventory_runs(capsys):
    runpy.run_path(str(EXAMPLES / "warehouse_inventory.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "cataloged items" in out
