"""Benchmark support: the paper's test series, the figure registry
(every evaluation table ``python -m repro.bench`` regenerates; the
scenarios are in :mod:`repro.bench.figures` and
:mod:`repro.bench.applications`), and its table rendering."""

from .calibration import PAPER_1MB_PUT_US, default_model
from .harness import SERIES, Series, format_table, series_label
from .registry import FIGURES, Figure

__all__ = [
    "SERIES",
    "Series",
    "series_label",
    "format_table",
    "default_model",
    "PAPER_1MB_PUT_US",
    "FIGURES",
    "Figure",
]
