"""Evaluation harness: input batches, reporting, and per-figure experiments.

Every table and figure of the paper's evaluation section has a
dedicated module under :mod:`repro.eval.experiments`; see DESIGN.md's
experiment index for the mapping and ``benchmarks/`` for the bench
targets that regenerate them.
"""

from repro.eval.batches import BatchSpec, InputBatch, make_anomaly_batches, make_normal_batch
from repro.eval.reporting import format_series, format_table

__all__ = [
    "BatchSpec",
    "InputBatch",
    "format_series",
    "format_table",
    "make_anomaly_batches",
    "make_normal_batch",
]
