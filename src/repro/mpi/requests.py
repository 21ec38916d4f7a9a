"""Request objects and the test/wait families.

Every nonblocking operation in the runtime — two-sided, collective, RMA
communication, and the paper's nonblocking epoch synchronizations —
returns a :class:`Request`.  Completion is detected with :meth:`test` or
by yielding from :meth:`wait` (the generator form of a blocking wait),
or collectively with :func:`waitall` / :func:`waitany` / :func:`testall`
/ :func:`testany`.

§VII-C of the paper specializes request objects into *epoch-opening*
(dummy, completed at creation), *epoch-closing* and *flush* requests;
those subclasses live in :mod:`repro.rma.requests` and inherit the full
test/wait behaviour from here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable, Sequence

from ..simtime import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Simulator

__all__ = [
    "Request",
    "CompletedRequest",
    "waitall",
    "waitany",
    "testall",
    "testany",
]


class Request(SimEvent):
    """A completion handle: the kernel event itself, so a process may
    also ``yield`` it or pass it to ``sim.any_of``.  :attr:`done`,
    :attr:`value` (e.g. the received data) and :attr:`completed_at` are
    its own slots, and the middleware completes it with :meth:`complete`."""

    __slots__ = ()

    def test(self) -> bool:
        """Nonblocking completion probe (``MPI_Test``)."""
        return self.done

    def wait(self) -> Generator[SimEvent, Any, Any]:
        """Blocking wait, to be driven with ``yield from``; returns the
        operation's value."""
        if not self.done:
            yield self
        return self.value


class CompletedRequest(Request):
    """A request that is complete from the instant it is created.

    §VII-C: "Nonblocking epoch-opening routines always return a dummy
    request object that is flagged as completed at creation time."
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", name: "str | tuple" = "", value: Any = None):
        super().__init__(sim, name)
        self.complete(value)


def waitall(requests: Sequence[Request]) -> Generator[SimEvent, Any, list[Any]]:
    """Wait for every request; returns their values in order."""
    for req in requests:
        if not req.done:
            yield req
    return [req.value for req in requests]


def waitany(requests: Sequence[Request]) -> Generator[SimEvent, Any, tuple[int, Any]]:
    """Wait until at least one request completes; returns
    ``(index, value)`` of the first completed one (lowest index among
    already-done requests)."""
    if not requests:
        raise ValueError("waitany needs at least one request")
    for i, req in enumerate(requests):
        if req.done:
            return i, req.value
    index, value = yield requests[0].sim.any_of(requests)
    return index, value


def testall(requests: Iterable[Request]) -> bool:
    """True iff every request has completed."""
    return all(r.done for r in requests)


def testany(requests: Sequence[Request]) -> tuple[bool, int | None]:
    """``(True, index)`` of the first completed request, else
    ``(False, None)``."""
    for i, req in enumerate(requests):
        if req.done:
            return True, i
    return False, None
