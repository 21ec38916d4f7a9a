"""Instrumented runs of the test-matrix workloads
(``repro.obs.workloads``).

The :mod:`repro.workloads` registry defines the workloads and engine
series of the paper's test matrix; this module runs the same matrix
cells with the observability stack switched on — metrics plus the
:mod:`repro.obs.causal` span recorder — and hands back the finished
runtime for :func:`repro.obs.critpath.critpath_report`, trace export or
the report CLI.

The sizes are deliberately small (one run per cell of the
``protocol_cost`` bench figure) and everything is virtual time, so
results are deterministic: the same (workload, series) pair always
yields byte-identical reports in a fresh process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..workloads import SERIES as _SERIES_TABLE
from ..workloads import WORKLOADS as _REGISTRY
from ..workloads import get_series, get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime

__all__ = ["SERIES", "WORKLOADS", "run_instrumented"]

#: Series name -> (engine, nonblocking): the paper's three test series
#: plus the counter-signal engine (same columns as the differential
#: oracle), from the canonical registry table.
SERIES: dict[str, tuple[str, bool]] = {
    s.name: (s.engine, s.nonblocking) for s in _SERIES_TABLE
}

#: Workload name -> instrumented runner (the registry's matrix rows:
#: ``(engine, nonblocking, metrics, trace) -> MPIRuntime``).
WORKLOADS = {name: w.instrumented for name, w in _REGISTRY.items()}


def run_instrumented(
    workload: str, series: str = "new", metrics: bool = True, trace: bool = False
) -> "MPIRuntime":
    """Run one matrix cell with the causal recorder on; returns the
    finished runtime (``runtime.causal`` holds the span graph)."""
    runner = get_workload(workload).instrumented
    s = get_series(series)
    return runner(s.engine, s.nonblocking, metrics, trace)
