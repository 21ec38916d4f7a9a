"""Inefficiency-pattern instrumentation (§III of the paper).

:mod:`~repro.patterns.detect` classifies the blocking time of a run into
the seven patterns (the six of Kühnal et al. plus the paper's Late
Unlock), reading the span graph of the causal recorder
(``MPIRuntime(causal=True)``, :mod:`repro.obs.causal`);
:func:`~repro.obs.chrometrace.export_chrome_trace` overlays the
instances on the run's timeline.
"""

from .detect import (
    PATTERNS,
    PatternInstance,
    detect_patterns,
)
from .report import format_report

__all__ = [
    "PATTERNS",
    "PatternInstance",
    "detect_patterns",
    "format_report",
]
