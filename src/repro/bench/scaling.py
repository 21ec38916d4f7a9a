"""Rank-count scaling: Fig. 12's throughput collapse under contention.

The paper's Fig. 12 runs a contended transaction workload over an
increasing number of ranks and shows the MVAPICH baseline's aggregate
throughput *collapsing* past ~512 ranks while the redesigned engine —
blocking or nonblocking — keeps scaling.  This module reproduces that
experiment in the simulator and doubles as the scale regression guard
for the sparse-state work: per-event host cost must stay flat as the
simulated rank count grows (see :func:`fit_loglog_slope`).

Workload: contended fan-in
--------------------------
Rank 0 is a pure lock server.  Every other rank runs ``ROUNDS`` shared
lock/put/unlock transactions against rotating peer targets — pairwise
uniform traffic that scales embarrassingly — except that every
``HOT_DIV``-th worker redirects one round (staggered across the run) at
rank 0.  The fan-in visits contend for rank 0's host attention, which
serializes lock-request handling:

- the redesigned engines service each grant in constant time (§VII-B's
  ω-counter matching), so aggregate throughput rises linearly and then
  plateaus where rank 0's constant-time grant service saturates;
- the baseline services grants from a progress engine that walks its
  pending state per grant (``NetworkModel.baseline_scan_cost_us``; see
  :meth:`repro.rma.engine.mvapich.MvapichEngine._grant_lock`).  Past a
  critical arrival rate the scan backlog feeds itself and grant latency
  diverges — aggregate throughput peaks (at ~512 ranks with the
  calibrated constants) and then collapses ∝ 1/N.

The nonblocking variants issue all their epochs up front with
``MPI_WIN_ILOCK``/``MPI_WIN_IUNLOCK`` and wait once, so their uniform
rounds pipeline and they climb to the saturation plateau much earlier —
Fig. 12's "sustaining throughput past the collapse".

Determinism
-----------
The figure metric — aggregate completed puts per virtual microsecond —
is pure virtual-time data, so ``fig12_collapse`` is committed to
``BENCH_seed.json`` and held to *exact* equality by ``--check`` (like
``protocol_cost``).  Wall-clock per-event cost is machine noise and is
gated separately, as a fitted log-log slope across the rank sweep.
"""

from __future__ import annotations

import math
import time
from typing import Any

import numpy as np

from ..mpi.runtime import MPIRuntime
from ..rma.flags import A_A_A_R
from ..rma.window import LOCK_SHARED
from ..workloads import SERIES, Series
from .calibration import default_model

__all__ = [
    "RANKS_FULL",
    "RANKS_SMOKE",
    "SCAN_COST_US",
    "contended_fan_in",
    "run_cell",
    "run_scaling",
    "collapse_rows",
    "fit_loglog_slope",
    "format_scaling_report",
]

#: Rank counts of the committed figure (the full Fig. 12 sweep).
RANKS_FULL = (64, 128, 256, 512, 1024, 2048, 4096)

#: Rank counts of the CI ``scaling-smoke`` job.
RANKS_SMOKE = (64, 256, 1024)

#: Calibrated legacy pending-state scan cost (µs per pending item).
#: 0.12 puts the baseline's throughput peak at 512 ranks — the knee the
#: paper reports — with the default fabric constants.
SCAN_COST_US = 0.12

#: Every HOT_DIV-th worker makes one fan-in visit to rank 0.
HOT_DIV = 4

#: Transactions per worker.
ROUNDS = 12

#: Payload per put (latency-dominated on purpose: the experiment
#: stresses synchronization, not bandwidth).
NBYTES = 8

#: Per-run fields that must be bit-identical across repeat runs (and
#: against the committed baseline): everything virtual-time derived.
DETERMINISTIC_FIELDS = ("puts", "events", "virtual_us", "throughput")


def contended_fan_in(nonblocking: bool, rounds: int = ROUNDS,
                     hot_div: int = HOT_DIV, nbytes: int = NBYTES):
    """Build the per-rank app generator for one series variant."""
    info = {A_A_A_R: "true"}

    def app(proc):
        win = yield from proc.win_allocate(max(nbytes, 64) * 4, info=info)
        me, n = proc.rank, proc.size
        data = np.zeros(nbytes, dtype=np.uint8)
        if me == 0:
            # Pure lock server: host the window, then wait everyone out.
            yield from proc.barrier()
            return 0
        # Every hot_div-th worker makes one fan-in visit to rank 0, on a
        # round spread across the run so arrivals are staggered.
        hot_round = ((me - 1) // hot_div) % rounds if (me - 1) % hot_div == 0 else -1
        reqs = []
        puts = 0
        for k in range(rounds):
            if k == hot_round:
                target = 0
            else:
                # Rotating uniform peer, self-collisions displaced.
                target = 1 + (me - 1 + k * 7 + 1) % (n - 1)
                if target == me:
                    target = 1 + (target % (n - 1))
                    if target == me:
                        target = 1 + (target % (n - 1)) if n > 2 else 0
            if nonblocking:
                win.ilock(target, LOCK_SHARED)
                win.put(data, target, 0)
                reqs.append(win.iunlock(target))
            else:
                yield from win.lock(target, LOCK_SHARED)
                win.put(data, target, 0)
                yield from win.unlock(target)
            puts += 1
        if reqs:
            yield from proc.waitall(reqs)
        yield from proc.barrier()
        return puts

    return app


def run_cell(series: Series, nranks: int, rounds: int = ROUNDS,
             scan_cost_us: float = SCAN_COST_US) -> dict[str, Any]:
    """Run one (series, rank count) cell; returns metrics for the cell.

    ``throughput`` (aggregate puts per virtual µs) and the other
    :data:`DETERMINISTIC_FIELDS` are virtual-time data; ``wall_s`` and
    ``wall_per_event_us`` are host measurements.
    """
    model = default_model().with_overrides(baseline_scan_cost_us=scan_cost_us)
    rt = MPIRuntime(nranks, cores_per_node=1, engine=series.engine, model=model)
    t0 = time.perf_counter()
    results = rt.run(contended_fan_in(series.nonblocking, rounds=rounds))
    wall_s = time.perf_counter() - t0
    puts = sum(r or 0 for r in results)
    events = rt.sim.events_scheduled
    return {
        "series": series.label,
        "nranks": nranks,
        "puts": puts,
        "events": events,
        "virtual_us": rt.now,
        "throughput": puts / rt.now,
        "wall_s": wall_s,
        "wall_per_event_us": (wall_s * 1e6 / events) if events else 0.0,
    }


def fit_loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``log(y)`` against ``log(x)``.

    Applied to (rank count, wall seconds per event): a slope near 0
    means per-event host cost is independent of scale; dense per-rank
    state shows up as a clearly positive slope.
    """
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    denom = sum((p[0] - mx) ** 2 for p in pts)
    if denom == 0.0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / denom


def run_scaling(ranks: tuple[int, ...] = RANKS_FULL, samples: int = 1) -> dict[str, Any]:
    """Run the full sweep: every series at every rank count.

    With ``samples > 1`` each cell is re-run and the deterministic
    fields must be identical across samples (a mismatch raises — the
    simulation went nondeterministic); the minimum wall time is kept.
    """
    cells: dict[str, dict[int, dict[str, Any]]] = {s.label: {} for s in SERIES}
    for nranks in ranks:
        for series in SERIES:
            runs = [run_cell(series, nranks) for _ in range(max(1, samples))]
            first = runs[0]
            for later in runs[1:]:
                for field in DETERMINISTIC_FIELDS:
                    if later[field] != first[field]:
                        raise RuntimeError(
                            f"nondeterministic scaling cell {series.label}@"
                            f"{nranks}: {field} {first[field]} != {later[field]}"
                        )
            first["wall_s"] = min(r["wall_s"] for r in runs)
            first["wall_per_event_us"] = min(r["wall_per_event_us"] for r in runs)
            cells[series.label][nranks] = first
    slopes = {
        name: fit_loglog_slope(
            [float(n) for n in ranks],
            [by_rank[n]["wall_per_event_us"] for n in ranks],
        )
        for name, by_rank in cells.items()
    }
    return {
        "ranks": list(ranks),
        "samples": samples,
        "cells": cells,
        "per_event_slope": slopes,
        "max_per_event_slope": max(slopes.values()) if slopes else 0.0,
    }


def collapse_rows(doc: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Rows of the ``fig12_collapse`` figure from a :func:`run_scaling`
    document: series -> rank count -> aggregate throughput (puts per
    virtual µs) — the committed, exactly-checked form of Fig. 12."""
    return {
        name: {str(n): by_rank[n]["throughput"] for n in doc["ranks"]}
        for name, by_rank in doc["cells"].items()
    }


def format_scaling_report(doc: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`run_scaling` document."""
    ranks = doc["ranks"]
    lines = ["== scaling: contended fan-in, 4 series =="]
    if doc.get("samples", 1) > 1:
        lines.append(f"best of {doc['samples']} wall samples per cell")

    def table(field: str, fmt: str, suffix: str = "") -> None:
        lines.append(f"{'N':>6}" + "".join(f"{name:>18}" for name in doc["cells"]))
        for nranks in ranks:
            row = "".join(f"{by_rank[nranks][field]:>18{fmt}}"
                          for by_rank in doc["cells"].values())
            lines.append(f"{nranks:>6}{row}{suffix}")

    table("throughput", ".4f", "  puts/µs")
    lines.append("")
    lines.append("wall µs per event (host cost; must stay ~flat in N):")
    table("wall_per_event_us", ".3f")
    for name, slope in doc["per_event_slope"].items():
        lines.append(f"per-event cost slope {name}: {slope:+.3f}")
    lines.append(f"max per-event cost slope: {doc['max_per_event_slope']:+.3f}")
    return "\n".join(lines)
