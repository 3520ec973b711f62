"""Baseline files: adopt the linter on a tree with accepted legacy findings.

A baseline is a JSON document of finding keys (code + path + message,
deliberately line-free). Findings whose key appears in the baseline are
suppressed; everything new still fails the run. ``--write-baseline``
snapshots the current findings so a future PR can ratchet them down.

Paths inside baseline keys are stored repo-relative with POSIX
separators, so a baseline written on one machine (or OS) matches the
same findings checked out anywhere else. Only this portable format
(version 2) loads; any other version is rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Set

from repro.analysis.findings import Finding

_FORMAT_VERSION = 2


def portable_path(raw: str) -> str:
    """``raw`` relative to the working directory, POSIX-separated.

    Absolute paths outside the working directory are kept absolute
    (still POSIX-normalized): better an unportable key than a wrong
    one.
    """
    path = Path(raw.replace("\\", "/"))
    if path.is_absolute():
        try:
            path = path.relative_to(Path.cwd())
        except ValueError:
            pass
    return path.as_posix()


def portable_key(finding: Finding) -> str:
    """The baseline key with its path made repo-relative and POSIX."""
    return f"{finding.code}::{portable_path(finding.path)}::{finding.message}"


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    """Snapshot ``findings`` as an accepted-violations baseline file."""
    payload = {
        "version": _FORMAT_VERSION,
        "keys": sorted({portable_key(f) for f in findings}),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_baseline(path: str) -> Set[str]:
    """The set of suppressed finding keys stored in ``path``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "keys" not in payload:
        raise ValueError(f"{path} is not a reprolint baseline file")
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path} is a version {payload.get('version')!r} baseline; "
            f"only version {_FORMAT_VERSION} is supported "
            "(regenerate it with --write-baseline)"
        )
    return set(payload["keys"])


def apply_baseline(findings: Sequence[Finding], keys: Set[str]) -> List[Finding]:
    """Drop findings whose portable baseline key is in ``keys``."""
    return [f for f in findings if portable_key(f) not in keys]
