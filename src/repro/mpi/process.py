"""The per-rank application facade: what user code programs against.

An application is a generator function ``app(proc, ...)`` receiving an
:class:`MPIProcess`.  Potentially blocking operations are generators
driven with ``yield from``; nonblocking operations are plain calls
returning :class:`~repro.mpi.requests.Request` handles::

    def app(proc):
        win = yield from proc.win_allocate(1 << 20)
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.lock(1)
            win.put(data, target_rank=1, target_disp=0)
            yield from win.unlock(1)
        ...

Compute phases are modeled with ``yield from proc.compute(microseconds)``
— during compute the rank's host-attention gate is off, so control
traffic needing the host CPU queues up exactly as it would behind a real
application kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from . import collectives
from .p2p import ANY_SOURCE, ANY_TAG, RecvRequest, SendRequest
from .requests import Request, waitall, waitany

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rma.window import Window
    from .info import Info
    from .runtime import MPIRuntime

__all__ = ["MPIProcess"]


class MPIProcess:
    """Handle to one simulated MPI rank, passed to application code."""

    __slots__ = ("runtime", "rank", "size", "middleware")

    def __init__(self, runtime: "MPIRuntime", rank: int):
        self.runtime = runtime
        self.rank = rank
        #: Number of ranks in the job (``MPI_Comm_size``).
        self.size: int = runtime.nranks
        #: This rank's middleware (advanced/diagnostic use).
        self.middleware = runtime.middlewares[rank]

    # -- identity ------------------------------------------------------------
    def wtime(self) -> float:
        """Current virtual time in microseconds (``MPI_Wtime``)."""
        return self.runtime.sim.now

    # -- compute modeling ----------------------------------------------------
    def compute(self, duration: float) -> Generator[Any, Any, None]:
        """Occupy this rank's CPU for ``duration`` µs of application work.

        The host-attention gate goes inattentive for the duration, so
        middleware control processing queues behind the work — the
        mechanism behind Late Complete / Late Unlock style delays.
        """
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration}")
        if duration == 0:
            return
        gate = self.middleware.attention
        gate.set_attentive(False)
        try:
            yield self.runtime.sim.timeout(duration)
        finally:
            gate.set_attentive(True)

    # -- point-to-point --------------------------------------------------------
    def isend(
        self, dst: int, nbytes: int, tag: int = 0, data: np.ndarray | None = None
    ) -> SendRequest:
        """Nonblocking send (completes at local completion)."""
        self._check_rank(dst)
        if tag < 0:
            raise ValueError(f"tag {tag} is in the reserved range (< 0); application tags are >= 0")
        return self.middleware.p2p.isend(dst, nbytes, tag, data)

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        buffer: np.ndarray | None = None,
    ) -> RecvRequest:
        """Nonblocking receive; the request's value is the payload."""
        if source != ANY_SOURCE:
            self._check_rank(source)
        if tag < 0 and tag != ANY_TAG:
            raise ValueError(f"tag {tag} is in the reserved range (< 0); application tags are >= 0")
        return self.middleware.p2p.irecv(source, tag, buffer)

    def send(
        self, dst: int, nbytes: int, tag: int = 0, data: np.ndarray | None = None
    ) -> Generator[Any, Any, None]:
        """Blocking send."""
        req = self.isend(dst, nbytes, tag, data)
        yield from req.wait()

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        buffer: np.ndarray | None = None,
    ) -> Generator[Any, Any, np.ndarray | None]:
        """Blocking receive; returns the payload."""
        req = self.irecv(source, tag, buffer)
        data = yield from req.wait()
        return data

    # -- request and collective sugar: the functions themselves -------------
    #: Blocking wait on one request (:meth:`Request.wait`).
    wait = staticmethod(Request.wait)
    #: Blocking wait on all requests; their values in order.
    waitall = staticmethod(waitall)
    #: Blocking wait for the first completed request: ``(index, value)``.
    waitany = staticmethod(waitany)
    #: Dissemination barrier over all ranks.
    barrier = collectives.barrier
    #: Binomial broadcast from ``root``.
    bcast = collectives.bcast
    #: Sum-allreduce of a numpy value.
    allreduce_sum = collectives.allreduce_sum
    #: Gather one array per rank to ``root``.
    gather = collectives.gather

    # -- RMA windows ---------------------------------------------------------
    def win_allocate(
        self, nbytes: int, info: "Info | dict | None" = None, name: str = ""
    ) -> Generator[Any, Any, "Window"]:
        """Collectively create an RMA window of ``nbytes`` on every rank.

        Every rank must call this the same number of times in the same
        order (windows match by creation sequence, like communicators).
        """
        win = self.runtime.create_window(self.rank, nbytes, info, name)
        yield from self.barrier()
        return win

    def win_free(self, win) -> Generator[Any, Any, None]:
        """Collectively free a window (MPI_WIN_FREE): validates that no
        epoch is open or still progressing on this rank, then
        synchronizes.  The window object must not be used afterwards."""
        win.free_check()
        yield from self.barrier()

    # -- internals -----------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MPIProcess rank={self.rank}/{self.size}>"
