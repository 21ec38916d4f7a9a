"""Event primitives for the discrete-event kernel.

A :class:`SimEvent` is a one-shot synchronization point.  Processes obtain
events (directly, or via :class:`Timeout`, :class:`AnyOf`)
and ``yield`` them; the kernel resumes the process when the event completes.

Events carry an optional *value* that becomes the result of the ``yield``
expression in the waiting process, mirroring how ``MPI_Wait`` surfaces a
status object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Simulator

__all__ = ["SimEvent", "Timeout", "AnyOf"]


class SimEvent:
    """A one-shot completion.  A request (:mod:`repro.mpi.requests`) and
    a process (:class:`~repro.simtime.process.SimProcess`) are kernel
    events themselves, so all three share one vocabulary.

    Parameters
    ----------
    sim:
        Owning simulator; used to schedule callback execution when the
        event completes.
    name:
        Optional label for diagnostics; see :attr:`name`.
    """

    __slots__ = ("sim", "_name", "_callbacks", "done", "value", "completed_at")

    def __init__(self, sim: "Simulator", name: "str | tuple" = ""):
        self.sim = sim
        self._name = name
        #: ``()`` until the first waiter: many events complete with none.
        self._callbacks: "list[Callable[[SimEvent], None]] | tuple[()]" = ()
        #: Whether :meth:`complete` has been called (read-only for users).
        self.done = False
        #: The value passed to :meth:`complete` (``None`` before that).
        self.value: Any = None
        #: Virtual time of completion (``None`` until then, then fixed).
        #: Latencies are measured to here, not to whenever a waiter resumed.
        self.completed_at: float | None = None

    @property
    def name(self) -> str:
        """Label for diagnostics.  Given as ``(format, *args)`` it is
        formatted here, on demand: the hot path never reads a name."""
        name = self._name
        return name[0] % name[1:] if isinstance(name, tuple) else name

    # -- wiring ----------------------------------------------------------
    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Register ``fn(event)`` to run when the event completes.

        If the event already completed, the callback is scheduled to run
        at the current virtual time (never synchronously), preserving the
        kernel's run-to-completion semantics.
        """
        if self.done:
            self.sim.schedule(0.0, fn, self)
        elif self._callbacks:
            self._callbacks.append(fn)
        else:
            self._callbacks = [fn]

    def complete(self, value: Any = None) -> None:
        """Complete the event, waking all waiters.  Completing twice is a
        programming error and raises."""
        if self.done:
            raise RuntimeError(f"event {self.name!r} completed twice")
        self.done = True
        self.value = value
        sim = self.sim
        self.completed_at = sim._now
        callbacks, self._callbacks = self._callbacks, ()
        for fn in callbacks:
            sim.schedule(0.0, fn, self)

    def complete_now(self, value: Any = None) -> None:
        """:meth:`complete`, but the waiters run inside the calling
        callback instead of in one zero-delay schedule each.  Only for a
        caller that itself holds the position that schedule would take:
        ``seq`` order and ``events_scheduled`` are then unchanged."""
        callbacks, self._callbacks = self._callbacks, ()
        self.complete(value)
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} {'done' if self.done else 'pending'}>"


class Timeout(SimEvent):
    """An event that completes ``delay`` virtual time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name or ("timeout(%s)", delay))
        self.delay = delay
        sim.schedule(delay, self.complete, value)


class AnyOf(SimEvent):
    """Completes as soon as one constituent event completes.

    The value is a ``(index, value)`` tuple for the first event observed
    completing (deterministic under the kernel's FIFO callback ordering).
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: list[SimEvent], name: str = ""):
        if not events:
            raise ValueError("AnyOf needs at least one event")
        super().__init__(sim, name or ("anyof(%d)", len(events)))
        self._events = list(events)
        fired = next((i for i, e in enumerate(self._events) if e.done), None)
        if fired is not None:
            sim.schedule(0.0, self._finish, fired)
        else:
            for i, e in enumerate(self._events):
                e.add_callback(self._make_child_cb(i))

    def _make_child_cb(self, index: int) -> Callable[[SimEvent], None]:
        def cb(_event: SimEvent) -> None:
            self._finish(index)

        return cb

    def _finish(self, index: int) -> None:
        if not self.done:
            self.complete((index, self._events[index].value))
