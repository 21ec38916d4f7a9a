"""Single source of truth for workload and series names.

Mirrors :mod:`repro.rma.engine.registry`: every surface that names a
workload or an engine series — the differential oracle
(:mod:`repro.explore.runner`), ``python -m repro.obs`` and its
``critpath`` subcommand (:mod:`repro.obs.__main__`), the benchmark
figures (:mod:`repro.bench`) — resolves through this module, so the
test matrix grows in exactly one place.  Unknown names raise
:class:`ValueError` listing the valid choices.

A :class:`Workload` row is one runner at two sizes:

- ``run(engine, nonblocking, **fields) -> (app result, runtime)`` runs
  the scenario with ``fields`` as its config;
- :meth:`Workload.oracle` runs the ``small`` size for the differential
  oracle and reduces the result with ``answer`` to schedule- and
  engine-independent fields (never ``elapsed_us`` / stall counters /
  latencies);
- :meth:`Workload.instrumented` runs the ``traced`` size with the
  causal recorder on and returns the finished runtime for
  critical-path, pattern and timeline reports; :func:`run_instrumented`
  runs one by (workload, series) name.

:data:`CLASSIC_WORKLOADS` pins the original six-workload matrix; the
``protocol_cost`` bench figure iterates it (not the full registry) so
its baseline stays byte-identical as new workloads land.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .apps import (
    FactDbConfig,
    HaloConfig,
    KvServiceConfig,
    LUConfig,
    Stencil2DConfig,
    TransactionsConfig,
    run_factdb,
    run_halo,
    run_kvservice,
    run_lu,
    run_stencil2d,
    run_transactions,
)
from .coll import plan_allgather, plan_allreduce, plan_alltoallv
from .mpi.runtime import MPIRuntime
from .rma.flags import A_A_A_R

__all__ = [
    "Series",
    "SERIES",
    "CLASSIC_WORKLOADS",
    "Workload",
    "WORKLOADS",
    "workload_names",
    "get_workload",
    "get_series",
    "run_instrumented",
]


@dataclass(frozen=True)
class Series:
    """One column of the paper's test matrix: an engine, driven how."""

    name: str
    #: Display label (bench tables / paper figure legends).
    label: str
    engine: str
    nonblocking: bool


#: The paper's three test series (§VIII) plus the counter-signal engine,
#: in presentation order.
SERIES: tuple[Series, ...] = (
    Series("mvapich", "MVAPICH", "mvapich", False),
    Series("new", "New", "nonblocking", False),
    Series("new-nonblocking", "New nonblocking", "nonblocking", True),
    Series("signal", "Signal", "signal", True),
)

_SERIES_BY_NAME = {s.name: s for s in SERIES}


def get_series(name: str) -> Series:
    """Resolve a series name; unknown names list the valid choices."""
    try:
        return _SERIES_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown series {name!r}; choose from "
            f"{', '.join(s.name for s in SERIES)}"
        ) from None


@dataclass(frozen=True)
class Workload:
    """One row of the test matrix: a runner and the two sizes it runs at."""

    name: str
    #: ``run(engine, nonblocking, **fields) -> (app result, runtime)``.
    run: Callable[..., tuple[Any, MPIRuntime | None]]
    #: App result -> the schedule-free answer the oracle compares.
    answer: Callable[[Any], dict]
    #: Config fields of the oracle run (sized for sweep speed).
    small: dict[str, Any]
    #: Config fields of the instrumented run.  Load-bearing: the
    #: ``protocol_cost`` baseline depends on them byte for byte.
    traced: dict[str, Any]

    def oracle(self, engine: str, nonblocking: bool, exploration) -> dict:
        result, _ = self.run(engine, nonblocking, exploration=exploration, **self.small)
        return self.answer(result)

    def instrumented(self, engine: str, nonblocking: bool, metrics: bool) -> MPIRuntime:
        _, runtime = self.run(engine, nonblocking, metrics=metrics, causal=True, **self.traced)
        return runtime


def _arr_sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _app(run_fn: Callable, config_cls: type) -> Callable:
    """The runner of an app-backed row: build its config, run the app."""

    def run(engine: str, nonblocking: bool, **fields):
        res = run_fn(config_cls(engine=engine, nonblocking=nonblocking, **fields))
        return res, res.runtime

    return run


# ---------------------------------------------------------------------------
# Inline workloads (no repro.apps module of their own)
# ---------------------------------------------------------------------------

def _ordering_run(engine: str, nonblocking: bool, *, exploration=None,
                  metrics: bool = False, causal: bool = False):
    """Deferred-epoch ordering pipeline (2 ranks, mixed epoch kinds).

    Rank 0 issues three epochs back to back without waiting: an
    exclusive-lock update (A0), an exposure epoch (E1) during which rank
    1 puts into rank 0's window, and a second lock epoch (A2) that
    *reads* a cell rank 1 only writes after its own GATS access epoch
    completed.  The window carries ``A_A_A_R``, so A2 may legally
    activate past the still-active A0 — but never past the *deferred*
    E1: the §VII-A scan must stop at E1 (exposure-after-access is not
    licensed).  Program order therefore guarantees A2's read happens
    after E1 completed, i.e. after rank 1's local write (separated by at
    least two internode hops, far beyond any legal schedule
    perturbation).  An engine that skips blocked epochs in the scan
    activates A2 early and reads the cell before rank 1 ever ran —
    final window memory and the app answer both diverge.  This is the
    workload the mutation self-test drives.
    """
    _i8 = np.int64

    def origin(proc):
        win = yield from proc.win_allocate(4 * 8, info={A_A_A_R: 1})
        yield from proc.barrier()
        buf = np.zeros(1, dtype=_i8)
        one = np.ones(1, dtype=_i8)
        if nonblocking:
            win.ilock(1)
            win.accumulate(one, 1, 0)                      # A0
            r0 = win.iunlock(1)
            win.ipost((1,))                                # E1
            rexp = win.iwait()
            win.ilock(1)
            win.get(buf, 1, 2 * 8)                         # A2
            r2 = win.iunlock(1)
            yield from proc.waitall([r0, rexp, r2])
        else:
            yield from win.lock(1)
            win.accumulate(one, 1, 0)
            yield from win.unlock(1)
            yield from win.post((1,))
            yield from win.wait_epoch()
            yield from win.lock(1)
            win.get(buf, 1, 2 * 8)
            yield from win.unlock(1)
        win.view(_i8)[3] = buf[0]
        yield from proc.barrier()
        return int(buf[0])

    def target(proc):
        win = yield from proc.win_allocate(4 * 8, info={A_A_A_R: 1})
        yield from proc.barrier()
        payload = np.full(1, 42, dtype=_i8)
        yield from win.start((0,))
        win.put(payload, 0, 1 * 8)
        yield from win.complete()
        win.view(_i8)[2] = 7                               # after my epoch
        yield from proc.barrier()
        return 0

    runtime = MPIRuntime(
        2, cores_per_node=1,  # internode: hop latency >> perturbation bound
        engine=engine, exploration=exploration,
        metrics=metrics, causal=causal,
    )
    results = runtime.run_mixed({0: origin, 1: target})
    return results, runtime


#: Ragged counts matrix for the coll workload (self traffic included).
_COLL_COUNTS = ((1, 2, 0), (3, 0, 2), (0, 4, 2))
_COLL_INVOCATIONS = 3


def _coll_run(engine: str, nonblocking: bool, *, exploration=None,
              metrics: bool = False, causal: bool = False,
              interior_work_us: float = 0.0):
    """Persistent-collective exerciser: one alltoallv plan re-executed
    ``_COLL_INVOCATIONS`` times over ragged counts (zero-length blocks
    included), plus one allgather and one allreduce plan.  With the
    nonblocking drive, ``interior_work_us`` of compute sits between
    ``start()`` and ``wait()`` — the overlap the ``coll_overlap`` bench
    figure measures."""
    n = len(_COLL_COUNTS)

    def app(proc):
        a2a = yield from plan_alltoallv(proc, _COLL_COUNTS,
                                        nonblocking=nonblocking)
        received = []
        for k in range(_COLL_INVOCATIONS):
            send = [np.arange(_COLL_COUNTS[proc.rank][j], dtype=np.int64)
                    + 100 * proc.rank + 10 * j + k for j in range(n)]
            a2a.start(send)
            if interior_work_us:
                yield from proc.compute(interior_work_us)
            blocks = yield from a2a.wait()
            received.extend(int(v) for b in blocks for v in b)
        yield from a2a.finish()

        ag = yield from plan_allgather(proc, 2, nonblocking=nonblocking)
        ag.start(np.asarray([proc.rank, proc.rank + 10], dtype=np.int64))
        gathered = yield from ag.wait()
        yield from ag.finish()

        ar = yield from plan_allreduce(proc, 3, op="sum",
                                       nonblocking=nonblocking)
        ar.start(np.full(3, proc.rank + 1, dtype=np.int64))
        reduced = yield from ar.wait()
        yield from ar.finish()
        yield from proc.barrier()
        return received, [int(v) for v in gathered], [int(v) for v in reduced]

    runtime = MPIRuntime(
        n, cores_per_node=2, engine=engine, exploration=exploration,
        metrics=metrics, causal=causal,
    )
    results = runtime.run(app)
    return results, runtime


# ---------------------------------------------------------------------------
# The registry (small sizes are chosen for sweep speed)
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "halo", _app(run_halo, HaloConfig),
            lambda res: {"field_sha": _arr_sha(res.field)},
            small=dict(nranks=3, cells_per_rank=8, iterations=3),
            traced=dict(nranks=4, cells_per_rank=16, iterations=4, cores_per_node=2,
                        interior_work_us=8.0),  # overlap fodder: differentiates i* series
        ),
        Workload(
            "stencil2d", _app(run_stencil2d, Stencil2DConfig),
            lambda res: {"grid_sha": _arr_sha(res.grid)},
            small=dict(pr=2, pc=2, tile=4, iterations=2),
            traced=dict(pr=2, pc=2, tile=4, iterations=3, cores_per_node=2,
                        interior_work_us=8.0),
        ),
        Workload(
            "lu", _app(run_lu, LUConfig),
            lambda res: {"u_sha": _arr_sha(res.u_matrix)},
            small=dict(nranks=3, m=6),  # real mode: the U factor is the checkable answer
            traced=dict(nranks=3, m=8, cores_per_node=2),
        ),
        Workload(
            "transactions", _app(run_transactions, TransactionsConfig),
            # fc_stalls / retransmissions / elapsed_us are timing-dependent by
            # design — the integer counter sums are the schedule-free answer.
            lambda res: {"applied": res.applied,
                         "rank_sums": [int(s) for s in res.rank_sums]},
            small=dict(nranks=3, txns_per_rank=6, slots_per_rank=16),
            traced=dict(nranks=3, txns_per_rank=8, slots_per_rank=16, cores_per_node=2,
                        work_in_epoch_us=4.0),  # lazy-lock baselines cannot hide this
        ),
        Workload(
            "factdb", _app(run_factdb, FactDbConfig),
            lambda res: {"table_sha": _arr_sha(res.table), "total": res.derived_total()},
            small=dict(nranks=3, universe=32, firings_per_rank=5),
            traced=dict(nranks=3, universe=32, firings_per_rank=6, cores_per_node=2),
        ),
        Workload(
            "ordering", _ordering_run,
            lambda results: {"read": results[0]},
            small={}, traced={},
        ),
        Workload(
            "coll", _coll_run,
            lambda results: {"alltoallv": [r[0] for r in results],
                             "allgather": results[0][1],
                             "allreduce": results[0][2]},
            small={}, traced=dict(interior_work_us=8.0),
        ),
        Workload(
            "kvservice", _app(run_kvservice, KvServiceConfig),
            # Latencies/elapsed are timing-dependent; the tables and counter
            # stats are the schedule-free answer.
            lambda res: {"tables": [list(t) for t in res.tables], "stats": list(res.stats)},
            small=dict(nranks=3, keys_per_shard=8, requests_per_rank=36, rebalance_every=12),
            traced=dict(nranks=3, keys_per_shard=8, requests_per_rank=24, rebalance_every=8,
                        cores_per_node=2),
        ),
    )
}

#: The original six-workload matrix (sorted), pinned: the
#: ``protocol_cost`` figure and its committed baseline iterate exactly
#: these, regardless of registry growth.
CLASSIC_WORKLOADS: tuple[str, ...] = (
    "factdb", "halo", "lu", "ordering", "stencil2d", "transactions",
)


def workload_names() -> tuple[str, ...]:
    """All registered workload names, sorted."""
    return tuple(sorted(WORKLOADS))


def get_workload(name: str) -> Workload:
    """Resolve a workload name; unknown names list the valid choices."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(workload_names())}"
        ) from None


def run_instrumented(workload: str, series: str = "new", metrics: bool = True) -> MPIRuntime:
    """Run one matrix cell with the causal recorder on; returns the
    finished runtime (``runtime.causal`` holds the span graph)."""
    s = get_series(series)
    return get_workload(workload).instrumented(s.engine, s.nonblocking, metrics)
