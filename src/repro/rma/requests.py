"""Specialized RMA request objects (§VII-C).

The paper extends the middleware request object so it "could now be
specialized as epoch-opening, epoch-closing, or flush requests":

- **epoch-opening** requests are dummies, completed at creation — every
  epoch-opening routine exits immediately;
- **epoch-closing** requests complete when all the origin-side or
  target-side completion conditions of the epoch are met;
- **flush** requests are stamped with the *age* of the RMA call that
  immediately precedes them; each younger completing RMA op decrements
  the request's completion counter, and the request completes at zero.

Request-based communication (``rput``/``rget``/...) returns a plain
:class:`~repro.mpi.requests.Request` that the engine completes at the
op's local completion (for result-bearing ops: when the result lands).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mpi.requests import CompletedRequest, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Simulator
    from .epoch import Epoch
    from .ops import RmaOp

__all__ = ["OpeningRequest", "ClosingRequest", "FlushRequest"]


class OpeningRequest(CompletedRequest):
    """Dummy request returned by nonblocking epoch-opening routines.

    "Any test or wait call on the MPI_REQUEST handle associated with any
    such request object always detects immediate completion." (§VII-C)
    """

    __slots__ = ("epoch",)

    def __init__(self, sim: "Simulator", epoch: "Epoch"):
        super().__init__(sim, ("open(ep%d)", epoch.uid))
        self.epoch = epoch


class ClosingRequest(Request):
    """Completes when the epoch's internal lifetime ends."""

    __slots__ = ("epoch",)

    def __init__(self, sim: "Simulator", epoch: "Epoch"):
        super().__init__(sim, ("close(ep%d)", epoch.uid))
        self.epoch = epoch


class FlushRequest(Request):
    """Age-stamped flush completion tracker.

    Parameters
    ----------
    stamp_age:
        Age of the RMA call immediately preceding the flush; only ops
        with ``age <= stamp_age`` count toward the flush.
    target:
        Restrict to one target rank (``None`` = all targets: flush_all).
    local:
        Local-completion flavor (``flush_local``): ops count as done once
        their origin buffers are reusable rather than at remote
        completion — for an op that bears a result, when the result has
        landed in its result buffer.
    counter:
        Number of not-yet-complete qualifying ops at creation time; the
        engine decrements it via :meth:`op_completed`.
    """

    __slots__ = ("epoch", "stamp_age", "target", "local", "counter")

    def __init__(
        self,
        sim: "Simulator",
        epoch: "Epoch",
        stamp_age: int,
        target: int | None,
        local: bool,
        counter: int,
    ):
        super().__init__(sim, ("flush-%s(t=%s,age<=%d)", "local" if local else "remote",
                               "all" if target is None else target, stamp_age))
        self.epoch = epoch
        self.stamp_age = stamp_age
        self.target = target
        self.local = local
        self.counter = counter
        if counter == 0:
            self.complete()

    def qualifies(self, op: "RmaOp") -> bool:
        """Whether ``op``'s completion should decrement this flush."""
        if op.age > self.stamp_age:
            return False
        if self.target is not None and op.target != self.target:
            return False
        return op.epoch is self.epoch

    def op_completed(self, op: "RmaOp") -> None:
        """Notify one qualifying op completion.

        The counter reaching exactly zero completes the request; going
        *below* zero means the engine decremented for more ops than were
        pending at creation (double-counted completion) and raises — a
        ``<= 0`` test here would silently mask that accounting bug.
        """
        if self.done:
            return
        if not self.qualifies(op):
            return
        self.counter -= 1
        if self.counter < 0:
            from ..mpi.errors import RmaInternalError

            raise RmaInternalError(
                f"flush request {self.name!r} counter underflow: op {op.uid} "
                f"decremented an already-drained counter (double-counted completion)"
            )
        if self.counter == 0:
            self.complete()
