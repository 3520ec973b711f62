"""Runtime configuration: backend choice, cache location, manifests."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.errors import ConfigurationError

BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class RuntimeConfig:
    """Immutable knobs for one sweep run.

    ``backend``
        ``"serial"`` runs tasks in-process in task order; ``"process"``
        fans them out over a ``ProcessPoolExecutor``. Results are
        bit-identical either way (seeds are fixed before dispatch).
    ``max_workers``
        Pool width for the process backend; ``None`` uses the CPU count.
    ``cache_dir`` / ``use_cache``
        Directory of the content-addressed result cache; ``use_cache=
        False`` is the ``--no-cache`` escape hatch (the directory is
        then neither read nor written).
    ``manifest_dir``
        When set, every sweep writes ``<manifest_dir>/<sweep name>.json``.
    """

    backend: str = "serial"
    max_workers: Optional[int] = None
    cache_dir: Optional[Path] = None
    use_cache: bool = True
    manifest_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choices: {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if self.manifest_dir is not None:
            object.__setattr__(self, "manifest_dir", Path(self.manifest_dir))

    @property
    def resolved_workers(self) -> int:
        """Worker count the process backend will actually use."""
        if self.backend == "serial":
            return 1
        if self.max_workers is not None:
            return self.max_workers
        return max(1, os.cpu_count() or 1)
