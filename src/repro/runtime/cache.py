"""Content-addressed on-disk result cache for sweep tasks.

The cache key is the SHA-256 of the task's identity — function
``module:qualname``, canonical parameters, seed — plus the package
version, so results invalidate wholesale on every release (the repro
band's tables are version artifacts, not forever-truths). Payloads are
pickled; loading a hit returns a bit-identical payload, which the
property suite asserts via pickle-roundtrip equality.

Writes are atomic (temp file + ``os.replace``) so a process-pool sweep
and a concurrent sweep over the same cache directory never interleave
partial payloads.

Corrupt-entry self-healing is *observable*: every evicted entry logs a
warning with its key and increments the
``runtime.cache.corrupt_evicted`` counter on the active metrics
registry (see :mod:`repro.obs.metrics`) — a silently shrinking cache
was indistinguishable from a cold one.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

import repro
from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.runtime.task import SweepTask

logger = logging.getLogger(__name__)

#: Bump to invalidate every cached payload without a version release
#: (e.g. when the pickle layout of a result type changes).
CACHE_SCHEMA = 1


def cache_key(task: SweepTask, version: Optional[str] = None) -> str:
    """Hex digest addressing one task's payload.

    The key binds the function identity, the canonicalized parameters,
    the seed, the cache schema, and the package version. It does NOT
    hash the function's source: edits within a release must bump
    ``CACHE_SCHEMA`` (or run with the cache disabled) — hashing
    bytecode would spuriously invalidate on cosmetic changes and still
    miss edits in callees.
    """
    version = repro.__version__ if version is None else version
    material = repr(
        (CACHE_SCHEMA, version, task.fn_id, task.params, task.seed)
    ).encode("utf-8")
    return hashlib.sha256(material).hexdigest()


class ResultCache:
    """A directory of content-addressed pickled task payloads."""

    def __init__(self, cache_dir: "str | os.PathLike[str]") -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where a key's payload lives (two-level fan-out, git-style)."""
        if len(key) < 3:
            raise ConfigurationError(f"malformed cache key {key!r}")
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Tuple[bool, Any]:
        """``(hit, payload)``; corrupt entries read as misses.

        A half-written or unreadable entry is deleted and reported as a
        miss rather than poisoning the sweep — the task simply re-runs.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                return True, pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            TypeError,
            ValueError,
        ):
            # pickle.load raises a zoo of exception types on truncated
            # or garbage bytes; any of them means the entry is corrupt.
            logger.warning(
                "evicting corrupt cache entry %s (%s); task will re-run",
                key,
                path,
            )
            metrics.count("runtime.cache.corrupt_evicted")
            try:
                path.unlink()
            except OSError:
                pass
            return False, None

    def store(self, key: str, payload: Any) -> None:
        """Atomically persist one payload under its key."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*/*.pkl"))
