"""reprolint: project-specific static analysis for the RFly reproduction.

The package parses ``src/repro`` with :mod:`ast`, one file at a time,
and enforces the correctness contracts that the rest of the codebase
relies on but that nothing else checks mechanically:

* **Unit-suffix discipline** (``U1xx``) — public parameters, function
  names, and dataclass fields holding physical quantities carry a unit
  suffix (``_db``, ``_dbm``, ``_hz``, ``_m``, ``_s``, ``_rad``,
  ``_watts``, ...), and identifiers with *conflicting* suffixes are
  never assigned, added, compared, or (for decibel quantities)
  multiplied together.
* **dB/linear hygiene** (``U106``) — raw ``10 ** (x / 10)`` and
  ``10 * log10(x)`` conversions outside :mod:`repro.dsp.units` must go
  through the shared converters.
* **Determinism** (``R3xx``) — no unseeded ``default_rng()``/
  ``SeedSequence()``, no legacy ``np.random.*`` global state, no
  stdlib :mod:`random`, :mod:`secrets`, ``os.urandom`` or
  ``uuid1/4``, no worker pools outside :mod:`repro.runtime`, and no
  hash-ordered walk of a set; randomness is injected as seeded
  ``Generator``s.
* **API contracts** (``A4xx``) — public functions are
  return-annotated, modules have docstrings and
  ``from __future__ import annotations``, and bare ``except:`` /
  mutable default arguments are errors.
* **Observability, faults and process state** (``O5xx``, ``F601``,
  ``P701``) — clocks, queues, routing hashes, fault injection and
  module-level state go through their owning layers.

Each rule bans a defect where it enters a module, so no rule needs to
see another file. Run it as ``python -m repro.analysis src/repro``;
the zero-findings state of the tree is enforced as a tier-1 test in
``tests/test_static_analysis.py``.
"""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import analyze_paths, analyze_source
from repro.analysis.findings import Finding

__all__ = [
    "AnalysisConfig",
    "Finding",
    "analyze_paths",
    "analyze_source",
]
