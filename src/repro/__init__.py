"""repro — Nonblocking Epochs in MPI One-Sided Communication (SC'14).

A complete, simulation-backed reproduction of Zounmevo et al.'s
entirely nonblocking MPI RMA synchronization proposal: a deterministic
discrete-event MPI runtime (:mod:`repro.mpi` over :mod:`repro.network`
and :mod:`repro.simtime`), the paper's redesigned RMA engine with
deferred epochs, ω-triple O(1) matching and the ``MPI_WIN_I*`` API
(:mod:`repro.rma`), the MVAPICH-style baseline it is evaluated against,
the inefficiency-pattern detector (:mod:`repro.patterns`), seeded
fault injection with a reliability layer (:mod:`repro.faults`), and the
paper's application workloads (:mod:`repro.apps`).

Quickstart::

    import numpy as np
    from repro import MPIRuntime

    def app(proc):
        win = yield from proc.win_allocate(1 << 20)
        yield from proc.barrier()
        if proc.rank == 0:
            req = win.ilock(1)                 # §V nonblocking API
            win.put(np.arange(8, dtype=np.float64), target_rank=1)
            done = win.iunlock(1)
            yield from proc.wait(done)
        yield from proc.barrier()
        return win.view(np.float64, 0, 8).copy()

    results = MPIRuntime(nranks=2, engine="nonblocking").run(app)
"""

from .faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RankFault,
    ReliabilityConfig,
    RmaDeliveryError,
)
from .mpi import (
    ANY_SOURCE,
    ANY_TAG,
    BYTE,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    MAX,
    MIN,
    NO_OP,
    PROD,
    REPLACE,
    SUM,
    UINT64,
    CompletedRequest,
    Info,
    MPIProcess,
    MPIRuntime,
    MpiError,
    Request,
    RmaUsageError,
    UnsupportedOperation,
    testall,
    testany,
    waitall,
    waitany,
)
from .network import ClusterTopology, NetworkModel
from .obs import format_obs_report
from .patterns import detect_patterns, format_report
from .rma import (
    A_A_A_R,
    A_A_E_R,
    E_A_A_R,
    E_A_E_R,
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    MODE_NOCHECK,
    MODE_NOPRECEDE,
    MODE_NOSUCCEED,
    EpochKind,
    ReorderFlags,
    Window,
)
from .simtime import Simulator

__version__ = "2.0.0"

__all__ = [
    "MPIRuntime",
    "MPIProcess",
    "Window",
    "Simulator",
    "NetworkModel",
    "ClusterTopology",
    "Info",
    "Request",
    "CompletedRequest",
    "waitall",
    "waitany",
    "testall",
    "testany",
    "detect_patterns",
    "format_report",
    "format_obs_report",
    "EpochKind",
    "ReorderFlags",
    "A_A_A_R",
    "A_A_E_R",
    "E_A_E_R",
    "E_A_A_R",
    "LOCK_EXCLUSIVE",
    "LOCK_SHARED",
    "MODE_NOCHECK",
    "MODE_NOPRECEDE",
    "MODE_NOSUCCEED",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "REPLACE",
    "NO_OP",
    "BYTE",
    "INT32",
    "INT64",
    "UINT64",
    "FLOAT32",
    "FLOAT64",
    "ANY_SOURCE",
    "ANY_TAG",
    "MpiError",
    "RmaUsageError",
    "UnsupportedOperation",
    "FaultPlan",
    "FaultRule",
    "FaultKind",
    "RankFault",
    "ReliabilityConfig",
    "RmaDeliveryError",
    "__version__",
]
