"""``repro.coll`` — persistent RMA collectives over nonblocking epochs.

Plan once, execute many times::

    coll = yield from plan_alltoallv(proc, counts)
    for _ in range(iters):
        coll.start(blocks)          # issues the prebuilt epoch chain
        ...                         # overlapped compute (nonblocking drive)
        received = yield from coll.wait()
    yield from coll.finish()

The engine picks the epoch style (fence on the blocking baselines, PSCW
on ``nonblocking``, notified access on ``signal``); see
:mod:`repro.coll.persistent` for the styles and :mod:`repro.coll.schedule`
for the compiled layout.
"""

from .persistent import (
    PersistentAllgather,
    PersistentAllreduce,
    PersistentColl,
    plan_allgather,
    plan_allreduce,
    plan_alltoallv,
)
from .schedule import CollSchedule, build_schedule, uniform_counts, validate_counts

__all__ = [
    "CollSchedule",
    "PersistentAllgather",
    "PersistentAllreduce",
    "PersistentColl",
    "build_schedule",
    "plan_allgather",
    "plan_allreduce",
    "plan_alltoallv",
    "uniform_counts",
    "validate_counts",
]
