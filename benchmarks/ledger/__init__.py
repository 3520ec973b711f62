"""The wall-clock ledger: end-to-end and per-layer host time of four workloads.

See ``README.md`` in this directory for the workloads, the metrics and
how to run and compare them.
"""
