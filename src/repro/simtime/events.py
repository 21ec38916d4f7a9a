"""Event primitives for the discrete-event kernel.

A :class:`SimEvent` is a one-shot synchronization point.  Processes obtain
events (directly, or via :class:`Timeout`, :class:`AnyOf`)
and ``yield`` them; the kernel resumes the process when the event triggers.

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
    """A one-shot triggerable event.

    Parameters
    ----------
    sim:
        Owning simulator; used to schedule callback execution when the
        event triggers.
    name:
        Optional human-readable label used in tracing and deadlock reports.
    """

    __slots__ = ("sim", "name", "_callbacks", "triggered", "value", "trigger_time")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[[SimEvent], None]] = []
        #: Whether :meth:`trigger` has been called (read-only for users).
        self.triggered = False
        #: The value passed to :meth:`trigger` (``None`` before that).
        self.value: Any = None
        #: Virtual time at which the event triggered (``None`` until then).
        self.trigger_time: float | None = None

    # -- wiring ----------------------------------------------------------
    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Register ``fn(event)`` to run when the event triggers.

        If the event already triggered, the callback is scheduled to run
        at the current virtual time (never synchronously), preserving the
        kernel's run-to-completion semantics.
        """
        if self.triggered:
            self.sim.schedule(0.0, fn, self)
        else:
            self._callbacks.append(fn)

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters.  Idempotent-hostile:
        triggering twice is a programming error and raises."""
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        sim = self.sim
        self.trigger_time = sim._now
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            sim.schedule(0.0, fn, self)

    def trigger_now(self, value: Any = None) -> None:
        """:meth:`trigger`, but the waiters run inside the calling
        callback instead of in one zero-delay schedule each.  Only for a
        caller that itself holds the position that schedule would take:
        ``seq`` order and ``events_scheduled`` are then unchanged."""
        callbacks, self._callbacks = self._callbacks, []
        self.trigger(value)
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Timeout(SimEvent):
    """An event that triggers ``delay`` virtual time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name or f"timeout({delay})")
        self.delay = delay
        sim.schedule(delay, self.trigger, value)


class AnyOf(SimEvent):
    """Triggers as soon as one constituent event triggers.

    The value is a ``(index, value)`` tuple for the first event observed
    triggering (deterministic under the kernel's FIFO callback ordering).
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: list[SimEvent], name: str = ""):
        if not events:
            raise ValueError("AnyOf needs at least one event")
        super().__init__(sim, name or f"anyof({len(events)})")
        self._events = list(events)
        fired = next((i for i, e in enumerate(self._events) if e.triggered), None)
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
        if not self.triggered:
            self.trigger((index, self._events[index].value))
