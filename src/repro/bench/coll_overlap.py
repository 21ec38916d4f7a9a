"""The ``coll_overlap`` bench figure: blocking vs persistent-nonblocking
collectives.

The point of compiling a collective once (:mod:`repro.coll`) is that the
per-invocation path is nothing but ``start()`` / ``wait()`` — which under
a nonblocking-epoch engine means the communication progresses *under*
whatever compute sits between the two calls.  This figure quantifies
that: one persistent alltoallv plan, re-executed ``INVOCATIONS`` times
with ``WORK_US`` of interior compute per invocation, over three counts
shapes:

- ``uniform`` — every pair exchanges the same block;
- ``ring``    — each rank sends one large block to its successor;
- ``fanin``   — every rank sends its block to rank 0 (the contended
  shape: rank 0's inbound serialization is exactly what the overlap
  must hide).

Blocking series ("MVAPICH", "New") stage in ``start()`` and run the
whole epoch inside ``wait()`` — compute and communication serialize.
Nonblocking series issue in ``start()``, so the interior compute
overlaps the epoch.  All values are deterministic virtual-time µs; the
committed baseline holds this figure to exact equality.
"""

from __future__ import annotations

import numpy as np

from ..workloads import SERIES

__all__ = ["NRANKS", "INVOCATIONS", "WORK_US", "SHAPES", "coll_overlap_rows"]

NRANKS = 4
INVOCATIONS = 4
#: Interior compute per invocation (virtual µs) — the overlap fodder.
WORK_US = 40.0

BLOCK = 24  # elements per nonzero block


def _shape_counts() -> dict[str, list[list[int]]]:
    n = NRANKS
    return {
        "uniform": [[BLOCK // n] * n for _ in range(n)],
        "ring": [[BLOCK if j == (i + 1) % n else 0 for j in range(n)]
                 for i in range(n)],
        "fanin": [[BLOCK if j == 0 else 0 for j in range(n)]
                  for i in range(n)],
    }


SHAPES: tuple[str, ...] = tuple(_shape_counts())


def _run_cell(engine: str, nonblocking: bool, counts) -> float:
    """Elapsed virtual µs for ``INVOCATIONS`` persistent-alltoallv
    invocations with interior compute, max over ranks."""
    from ..coll import plan_alltoallv
    from ..mpi.runtime import MPIRuntime

    finish: dict[int, float] = {}

    def app(proc):
        a2a = yield from plan_alltoallv(proc, counts, nonblocking=nonblocking)
        yield from proc.barrier()
        t0 = proc.wtime()
        for k in range(INVOCATIONS):
            send = [np.full(counts[proc.rank][j], 1 + proc.rank + j + k,
                            dtype=np.int64) for j in range(len(counts))]
            a2a.start(send)
            yield from proc.compute(WORK_US)
            yield from a2a.wait()
        yield from proc.barrier()
        finish[proc.rank] = proc.wtime() - t0
        yield from a2a.finish()
        return 0

    runtime = MPIRuntime(NRANKS, cores_per_node=2, engine=engine)
    runtime.run(app)
    return max(finish.values())


def coll_overlap_rows() -> dict[str, dict[str, float]]:
    """Rows of the ``coll_overlap`` figure: series -> shape -> µs."""
    shapes = _shape_counts()
    return {
        s.label: {name: _run_cell(s.engine, s.nonblocking, counts)
                  for name, counts in shapes.items()}
        for s in SERIES
    }
