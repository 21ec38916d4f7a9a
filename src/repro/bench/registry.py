"""The figure registry: every table ``python -m repro.bench`` regenerates.

One :class:`Figure` entry per table — its name on the command line, its
title, columns and unit, the tolerance the baseline check holds it to,
and the function that runs its scenarios (:mod:`repro.bench.figures`,
:mod:`~repro.bench.coll_overlap`, :mod:`~repro.bench.scaling`,
:mod:`repro.obs.critpath`) and returns ``rows[series][column]``.
Rendering (:func:`render`), the JSON document (:func:`collect_json`),
the regression guard's per-figure tolerances and the tier-1 claim tests
(``tests/bench/test_figures.py``) all read this one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..obs.causal import CATEGORIES
from ..obs.critpath import critpath_report
from ..obs.workloads import run_instrumented
from ..workloads import CLASSIC_WORKLOADS
from ..workloads import SERIES as _SERIES_TABLE
from . import figures
from .coll_overlap import SHAPES, coll_overlap_rows
from .harness import SERIES, format_table
from .scaling import RANKS_FULL, collapse_rows, run_scaling

__all__ = ["Figure", "FIGURES", "render", "figure_doc", "collect_json"]

Rows = dict[str, dict[str, float]]


@dataclass(frozen=True)
class Figure:
    """One regenerable table of the paper's evaluation."""

    name: str
    title: str
    columns: tuple[str, ...]
    unit: str
    #: Relative tolerance ``--check`` holds this figure to; ``None``
    #: means the global ``--tolerance``.  Pure virtual-time figures are
    #: 0.0: drift there means a schedule changed and is never acceptable
    #: without re-baselining.
    tolerance: float | None
    #: Runs the scenarios; returns ``rows[series][column]``.
    build: Callable[[], Rows]


def _series_rows(fn) -> Callable[[], Rows]:
    return lambda: {s.name: fn(s) for s in SERIES}


def _size_rows(fn, metric: str, sizes: dict[str, int]) -> Callable[[], Rows]:
    return lambda: {
        s.name: {label: fn(s, n)[metric] for label, n in sizes.items()} for s in SERIES
    }


def _flag_rows(fn) -> Callable[[], Rows]:
    return lambda: {"off": fn(False), "on": fn(True)}


def _protocol_cost_rows() -> Rows:
    """Per-category blocked time of the four engine series across the
    six test-matrix workloads (the paper's protocol-cost story told by
    the causal recorder; see ``docs/OBSERVABILITY.md``): integer
    nanoseconds of epoch-active time attributed by
    :func:`repro.obs.critpath.attribute_epochs`.

    Pinned to the classic six-workload matrix: the committed baseline
    is exact-equality, so registry growth must not change this figure.
    """
    rows: Rows = {}
    for series in _SERIES_TABLE:
        for workload in CLASSIC_WORKLOADS:
            runtime = run_instrumented(workload, series.name, metrics=False)
            blocked = critpath_report(runtime, include_epochs=False)["blocked_ns"]
            rows[f"{series.label}/{workload}"] = {c: blocked[c] for c in CATEGORIES}
    return rows


_SIZES = {"4B": 4, "64KB": 65536, "1MB": figures.MB}
_FENCE_SIZES = {"256KB": 256 * 1024, "1MB": figures.MB}

#: Figure name -> entry (``python -m repro.bench`` runs them by name order).
FIGURES: dict[str, Figure] = {
    fig.name: fig
    for fig in (
        Figure("coll_overlap",
               "Coll overlap: blocking vs persistent-nonblocking alltoallv",
               SHAPES, "µs", 0.0, coll_overlap_rows),
        Figure("fig02", "Fig. 2: Late Post",
               ("access_epoch", "two_sided", "cumulative"), "µs", None,
               _series_rows(figures.fig02_late_post)),
        Figure("fig03", "Fig. 3: Late Complete (target epoch)",
               tuple(_SIZES), "µs", None,
               _size_rows(figures.fig03_late_complete, "target_epoch", _SIZES)),
        Figure("fig04", "Fig. 4: Early Fence (cumulative)",
               tuple(_FENCE_SIZES), "µs", None,
               _size_rows(figures.fig04_early_fence, "cumulative", _FENCE_SIZES)),
        Figure("fig05", "Fig. 5: Wait at Fence (target epoch)",
               tuple(_SIZES), "µs", None,
               _size_rows(figures.fig05_wait_at_fence, "target_epoch", _SIZES)),
        Figure("fig06", "Fig. 6: Late Unlock",
               ("first_lock", "second_lock"), "µs", None,
               _series_rows(figures.fig06_late_unlock)),
        Figure("fig07", "Fig. 7: A_A_A_R (GATS)",
               ("target_T1", "origin_cumulative"), "µs", None,
               _flag_rows(figures.fig07_aaar_gats)),
        Figure("fig08", "Fig. 8: A_A_A_R (lock)",
               ("o1_cumulative",), "µs", None,
               _flag_rows(figures.fig08_aaar_lock)),
        Figure("fig09", "Fig. 9: A_A_E_R",
               ("target_P1", "p2_cumulative"), "µs", None,
               _flag_rows(figures.fig09_aaer)),
        Figure("fig10", "Fig. 10: E_A_E_R",
               ("origin_O1", "target_cumulative"), "µs", None,
               _flag_rows(figures.fig10_eaer)),
        Figure("fig11", "Fig. 11: E_A_A_R",
               ("origin_P1", "p2_cumulative"), "µs", None,
               _flag_rows(figures.fig11_eaar)),
        Figure("fig12_collapse",
               "Fig. 12: contended scaling (aggregate puts / virtual µs)",
               tuple(str(n) for n in RANKS_FULL), "puts/µs", 0.0,
               lambda: collapse_rows(run_scaling(RANKS_FULL))),
        Figure("protocol_cost", "Protocol cost: per-category blocked time",
               CATEGORIES, "ns", 0.0, _protocol_cost_rows),
    )
}


def render(fig: Figure) -> str:
    """Run ``fig`` and format its rows as a fixed-width table."""
    return format_table(fig.title, fig.columns, fig.build(), unit=fig.unit,
                        precision=0 if fig.unit == "ns" else 1)


def figure_doc(fig: Figure, rows: Rows) -> dict:
    """The JSON figure object for ``rows`` (exactly ``fig.columns`` per row)."""
    return {
        "figure": fig.name,
        "title": fig.title,
        "unit": fig.unit,
        "columns": list(fig.columns),
        "rows": [
            {"series": series, "values": {c: cells[c] for c in fig.columns}}
            for series, cells in rows.items()
        ],
    }


def collect_json(names: list[str]) -> list[dict]:
    """Machine-readable per-series rows for the named figures."""
    return [figure_doc(FIGURES[n], FIGURES[n].build()) for n in names]
