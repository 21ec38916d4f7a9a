"""Benchmark support: the figure registry (every evaluation table
``python -m repro.bench`` regenerates over the series of
:data:`repro.workloads.SERIES`; the scenarios are in
:mod:`repro.bench.figures` and :mod:`repro.bench.applications`), and
its table rendering."""

from .calibration import PAPER_1MB_PUT_US, default_model
from .harness import format_table
from .registry import FIGURES, Figure

__all__ = [
    "format_table",
    "default_model",
    "PAPER_1MB_PUT_US",
    "FIGURES",
    "Figure",
]
