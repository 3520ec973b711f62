"""Experiment runners that regenerate every figure of the paper.

Each module supplies the pure ``build_tasks``/``reduce`` pair that a
:mod:`repro.experiments.registry` spec runs and renders as
paper-comparable tables. The ``benchmarks/`` tree drives them under
pytest-benchmark through
:func:`~repro.experiments.registry.run_experiment`; from the command
line, ``python -m repro.experiments run fig12_localization``.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput

__all__ = ["ExperimentOutput"]
