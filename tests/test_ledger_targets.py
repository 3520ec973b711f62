"""Every callable the wall-clock ledger traces must keep resolving.

``benchmarks/ledger`` wraps public callables by module and attribute
name, and a target that no longer resolves silently drops its time
from a traced run (it is only listed under ``absent_targets``). The
slow ``pytest benchmarks -m bench`` job notices; this fast check makes
a rename or move fail the tier-1 suite too.
"""

from __future__ import annotations

import pytest

from benchmarks.ledger.spec import LAYERS
from benchmarks.ledger.tracer import resolve

TARGETS = [target for layer in LAYERS for target in layer.targets]


@pytest.mark.parametrize("target", TARGETS, ids=[t.name for t in TARGETS])
def test_ledger_target_resolves(target):
    _, _, original = resolve(target)
    assert callable(original)
