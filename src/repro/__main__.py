"""Regenerate the paper's full evaluation from the command line.

Usage::

    python -m repro                 # every figure + the ablations
    python -m repro fig12 fig13     # a subset
    python -m repro --list          # available experiment names
    python -m repro --parallel --cache-dir .repro-cache

This is the same CLI as ``python -m repro.experiments`` (see
:mod:`repro.experiments.cli` for the full flag reference): experiments
run on the sweep engine, optionally parallel and cached, and every
sweep can emit a JSON run manifest.
"""

from __future__ import annotations

import sys

from repro.experiments.cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
