"""Zero overhead when disabled: an empty plan changes no experiment.

The golden tables were generated with no fault engine at all. Engaging
an *empty* plan arms every hook's guard path, so byte-identical tables
prove the disabled path is exactly a no-op — no stray RNG draw, no
``-0.0 + 0.0`` arithmetic drift, nothing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import faults
from repro.experiments import registry
from repro.faults import SITE_ACTIONS, FaultPlan
from repro.runtime import RuntimeConfig

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "experiments" / "golden"


def test_empty_plan_watches_no_site():
    with faults.engaged(FaultPlan()):
        for site in SITE_ACTIONS:
            assert not faults.watching(site)


@pytest.mark.parametrize("name", registry.aliases())
def test_empty_plan_reproduces_golden_table(name):
    with faults.engaged(FaultPlan(), seed=0):
        outputs = registry.run_experiment(
            name, RuntimeConfig(), smoke=True
        ).outputs
        text = "\n\n".join(output.report() for output in outputs) + "\n"
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert text == expected
