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

import itertools
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

_req_ids = itertools.count()


class Request:
    """A completion handle backed by a kernel event."""

    __slots__ = ("sim", "uid", "_name", "event")

    def __init__(self, sim: "Simulator", name: "str | tuple" = ""):
        self.sim = sim
        self.uid = next(_req_ids)
        self._name = name
        self.event = SimEvent(sim, name)

    @property
    def name(self) -> str:
        """Label for diagnostics.  Given as ``(format, *args)`` it is
        formatted here, on demand: the hot path never reads a name."""
        name = self._name
        if isinstance(name, tuple):
            return name[0] % name[1:]
        return name or f"request{self.uid}"

    # -- completion interface -------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the operation has completed."""
        return self.event.triggered

    @property
    def value(self) -> Any:
        """Operation result (e.g. received data), ``None`` until done."""
        return self.event.value

    @property
    def completed_at(self) -> float | None:
        """Virtual time of completion (``None`` until done, then fixed).
        Latencies are measured to here — not to whenever the caller got
        around to ``wait()``."""
        return self.event.trigger_time

    def complete(self, value: Any = None) -> None:
        """Mark the request complete (middleware-internal)."""
        self.event.trigger(value)

    def test(self) -> bool:
        """Nonblocking completion probe (``MPI_Test``)."""
        return self.done

    def wait(self) -> Generator["SimEvent", Any, Any]:
        """Blocking wait, to be driven with ``yield from``; returns the
        operation's value."""
        if not self.done:
            yield self.event
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} {'done' if self.done else 'pending'}>"


class CompletedRequest(Request):
    """A request that is complete from the instant it is created.

    §VII-C: "Nonblocking epoch-opening routines always return a dummy
    request object that is flagged as completed at creation time."
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", name: str = "", value: Any = None):
        super().__init__(sim, name)
        self.event.trigger(value)


def waitall(requests: Sequence[Request]) -> Generator["SimEvent", Any, list[Any]]:
    """Wait for every request; returns their values in order."""
    for req in requests:
        if not req.done:
            yield req.event
    return [req.value for req in requests]


def waitany(requests: Sequence[Request]) -> Generator["SimEvent", Any, tuple[int, Any]]:
    """Wait until at least one request completes; returns
    ``(index, value)`` of the first completed one (lowest index among
    already-done requests)."""
    if not requests:
        raise ValueError("waitany needs at least one request")
    for i, req in enumerate(requests):
        if req.done:
            return i, req.value
    sim = requests[0].sim
    index, value = yield sim.any_of([r.event for r in requests])
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
