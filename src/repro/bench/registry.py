"""The figure registry: every table ``python -m repro.bench`` regenerates.

One :class:`Figure` entry per table of the evaluation — Figs. 2–13, the
§VIII-A latency / overlap tables, the ablations, the extensions,
``coll_overlap`` and ``protocol_cost`` — with its name on the command
line, its title, columns, unit and print precision, and the function
that runs its scenarios (:mod:`repro.bench.figures`,
:mod:`~repro.bench.applications`, :mod:`~repro.bench.coll_overlap`,
:mod:`~repro.bench.scaling`, :mod:`repro.obs.critpath`) and returns
``rows[series][column]``.  Rendering (:func:`render`), the JSON document
(:func:`collect_json`), the exact baseline check and the tier-1 claim
tests (``tests/bench/test_figures.py``) all read this one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..network.model import NetworkModel
from ..obs.causal import CATEGORIES
from ..obs.critpath import critpath_report
from ..workloads import CLASSIC_WORKLOADS, SERIES, run_instrumented
from . import applications as apps
from . import figures
from .calibration import BANDWIDTHS, DELAY_US, default_model
from .coll_overlap import SHAPES, coll_overlap_rows
from .harness import format_table
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
    #: Runs the scenarios; returns ``rows[series][column]``.
    build: Callable[[], Rows]
    #: Decimals :func:`render` prints (the JSON rows are unrounded).
    precision: int = 1


def _series_rows(fn) -> Callable[[], Rows]:
    return lambda: {s.label: fn(s) for s in SERIES}


def _size_rows(fn, metric: str, sizes: dict[str, int]) -> Callable[[], Rows]:
    return lambda: {
        s.label: {label: fn(s, n)[metric] for label, n in sizes.items()} for s in SERIES
    }


def _flag_rows(fn) -> Callable[[], Rows]:
    return lambda: {"off": fn(False), "on": fn(True)}


def _engine_rows(fn, mvapich: str, new: str) -> Callable[[], Rows]:
    return lambda: {mvapich: {"epoch": fn("mvapich")}, new: {"epoch": fn("nonblocking")}}


def _strs(numbers) -> tuple[str, ...]:
    return tuple(str(n) for n in numbers)


def _span(marks: list[float]) -> float:
    return marks[-1] - marks[0]


def _overlap_row(s) -> dict[str, float]:
    """One lock epoch with 1000 µs of work: full overlap => ~1000 µs,
    none => ~1340 µs."""
    return {
        column: _span(figures.lock_epochs(s.engine, s.nonblocking, DELAY_US,
                                          accumulate=accumulate))
        for column, accumulate in _OVERLAP_OPS.items()
    }


def _regcache_rows() -> Rows:
    """Eight same-region 1 MB puts: the first pin misses, the rest hit —
    unless the cache holds nothing."""
    models = {"regcache on": default_model(),
              "regcache off": default_model().with_overrides(regcache_capacity=0)}
    return {
        label: {"avg epoch": _span(figures.lock_epochs(
            "nonblocking", False, 0.0, repeats=8, model=model)) / 8}
        for label, model in models.items()
    }


def _netspeed_late_complete_rows() -> Rows:
    """Fig. 3's 1 MB scenario under "New" and "New nonblocking" at each
    fabric speed: the removable blocking is the transfer time the
    1000 µs of origin work can hide."""
    rows: Rows = {}
    for label, bw in BANDWIDTHS.items():
        blocking, nonblocking = (
            figures.fig03_late_complete(
                s, figures.MB, model=NetworkModel(internode_bw=bw))["target_epoch"]
            for s in SERIES[1:3]
        )
        rows[label] = {"blocking": blocking, "nonblocking": nonblocking,
                       "saved": blocking - nonblocking}
    return rows


def _adaptive_rows() -> Rows:
    """Four back-to-back lock epochs with 500 µs of work each: MVAPICH
    (lazy) never overlaps, the eager engines always do, the adaptive
    engine of reference [12] is lazy once and then learns."""
    rows: Rows = {}
    for label, engine, nonblocking in (
        ("MVAPICH (lazy)", "mvapich", False),
        ("adaptive [12]", "adaptive", False),
        ("New (eager)", "nonblocking", False),
        ("New nonblocking", "nonblocking", True),
    ):
        marks = figures.lock_epochs(engine, nonblocking, 500.0, repeats=len(_EPOCHS))
        rows[label] = {c: end - start for c, start, end in zip(_EPOCHS, marks, marks[1:])}
    return rows


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
    for series in SERIES:
        for workload in CLASSIC_WORKLOADS:
            runtime = run_instrumented(workload, series.name, metrics=False)
            blocked = critpath_report(runtime, include_epochs=False)["blocked_ns"]
            rows[f"{series.label}/{workload}"] = {c: blocked[c] for c in CATEGORIES}
    return rows


_SIZES = {"4B": 4, "64KB": 65536, "1MB": figures.MB}
_FENCE_SIZES = {"256KB": 256 * 1024, "1MB": figures.MB}
_EPOCH_KINDS = ("lock", "gats", "fence")
_OVERLAP_OPS = {"put 1MB + work": False, "acc 1MB + work": True}  # accumulate?
_EPOCHS = ("epoch 1", "epoch 2", "epoch 3", "epoch 4")
_TXN_COLUMNS = ("ktxn/s", "stalls")
_NETSPEED = ("blocking", "nonblocking")

#: Figure name -> entry (``python -m repro.bench`` runs them by name order).
FIGURES: dict[str, Figure] = {
    fig.name: fig
    for fig in (
        Figure("abl_eager_issue",
               "Ablation: per-target eager issue vs all-targets-ready",
               ("epoch",), "µs",
               _engine_rows(figures.eager_issue, "MVAPICH (all-ready gating)",
                            "New (eager per-target)")),
        Figure("abl_flow_control",
               "Ablation: credit flow control under pipelined epochs",
               _TXN_COLUMNS, "mixed", apps.flow_control_rows, precision=0),
        Figure("abl_issue_in_epoch",
               "Ablation: transfers issued during vs at close of the epoch",
               ("epoch",), "µs",
               _engine_rows(figures.issue_during_epoch, "MVAPICH (issue at close)",
                            "New (issue during epoch)")),
        Figure("abl_netspeed_lc",
               "Ablation: Late Complete fix vs network speed (1 MB, 1000 µs work)",
               _NETSPEED + ("saved",), "µs", _netspeed_late_complete_rows),
        Figure("abl_netspeed_lu",
               "Ablation: LU nonblocking speedup vs network speed",
               _NETSPEED + ("speedup",), "ms / x", apps.netspeed_lu_rows, precision=2),
        Figure("abl_regcache", "Ablation: registration cache, repeated 1 MB puts",
               ("avg epoch",), "µs", _regcache_rows),
        Figure("coll_overlap",
               "Coll overlap: blocking vs persistent-nonblocking alltoallv",
               SHAPES, "µs", coll_overlap_rows),
        Figure("ext_adaptive",
               "Extension [12]: adaptive lazy/eager locks — per-epoch duration",
               _EPOCHS, "µs", _adaptive_rows),
        Figure("ext_factdb", "Extension (§X): distributed fact-database rule engine",
               _strs(apps.FACTDB_RANKS), "k firings/s", apps.factdb_rows),
        Figure("fig02", "Fig. 2: Late Post",
               ("access_epoch", "two_sided", "cumulative"), "µs",
               _series_rows(figures.fig02_late_post)),
        Figure("fig03", "Fig. 3: Late Complete (target epoch)",
               tuple(_SIZES), "µs",
               _size_rows(figures.fig03_late_complete, "target_epoch", _SIZES)),
        Figure("fig04", "Fig. 4: Early Fence (cumulative)",
               tuple(_FENCE_SIZES), "µs",
               _size_rows(figures.fig04_early_fence, "cumulative", _FENCE_SIZES)),
        Figure("fig05", "Fig. 5: Wait at Fence (target epoch)",
               tuple(_SIZES), "µs",
               _size_rows(figures.fig05_wait_at_fence, "target_epoch", _SIZES)),
        Figure("fig06", "Fig. 6: Late Unlock",
               ("first_lock", "second_lock"), "µs",
               _series_rows(figures.fig06_late_unlock)),
        Figure("fig07", "Fig. 7: A_A_A_R (GATS)",
               ("target_T1", "origin_cumulative"), "µs",
               _flag_rows(figures.fig07_aaar_gats)),
        Figure("fig08", "Fig. 8: A_A_A_R (lock)",
               ("o1_cumulative",), "µs",
               _flag_rows(figures.fig08_aaar_lock)),
        Figure("fig09", "Fig. 9: A_A_E_R",
               ("target_P1", "p2_cumulative"), "µs",
               _flag_rows(figures.fig09_aaer)),
        Figure("fig10", "Fig. 10: E_A_E_R",
               ("origin_O1", "target_cumulative"), "µs",
               _flag_rows(figures.fig10_eaer)),
        Figure("fig11", "Fig. 11: E_A_A_R",
               ("origin_P1", "p2_cumulative"), "µs",
               _flag_rows(figures.fig11_eaar)),
        Figure("fig12_collapse",
               "Fig. 12: contended scaling (aggregate puts / virtual µs)",
               _strs(RANKS_FULL), "puts/µs",
               lambda: collapse_rows(run_scaling(RANKS_FULL))),
        Figure("fig12_credits",
               "Fig. 12 (mechanism): flow-control pressure under pending epochs",
               _TXN_COLUMNS, "mixed", apps.credit_rows, precision=0),
        Figure("fig12_txn", "Fig. 12: massive unstructured atomic transactions",
               _strs(apps.TXN_RANKS), "k txn/s", apps.fig12_txn_rows),
        Figure("fig13a", "Fig. 13(a): LU overall time; matrix 128x128",
               _strs(apps.LU_RANKS), "ms", lambda: apps.lu_panel(128)[0]),
        Figure("fig13b", "Fig. 13(b): LU communication share; matrix 128x128",
               _strs(apps.LU_RANKS), "%", lambda: apps.lu_panel(128)[1]),
        Figure("fig13c", "Fig. 13(c): LU overall time; matrix 256x256",
               _strs(apps.LU_RANKS), "ms", lambda: apps.lu_panel(256)[0]),
        Figure("fig13d", "Fig. 13(d): LU communication share; matrix 256x256",
               _strs(apps.LU_RANKS), "%", lambda: apps.lu_panel(256)[1]),
        Figure("latency_epoch", "§VIII-A: pure epoch latency, 1 MB put",
               _EPOCH_KINDS, "µs",
               _series_rows(lambda s: {k: figures.epoch_latency(s, k) for k in _EPOCH_KINDS})),
        Figure("latency_overlap",
               "§VIII-A: lock-epoch overlap (1000 µs work; full overlap = ~1000)",
               tuple(_OVERLAP_OPS), "µs", _series_rows(_overlap_row)),
        Figure("protocol_cost", "Protocol cost: per-category blocked time",
               CATEGORIES, "ns", _protocol_cost_rows, precision=0),
    )
}


def render(fig: Figure) -> str:
    """Run ``fig`` and format its rows as a fixed-width table."""
    return format_table(fig.title, fig.columns, fig.build(), unit=fig.unit,
                        precision=fig.precision)


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
