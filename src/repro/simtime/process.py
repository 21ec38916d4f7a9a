"""Cooperative processes: generators driven by the simulator.

A process body is a Python generator that yields
:class:`~repro.simtime.events.SimEvent` objects.  The kernel resumes the
generator when the yielded event completes, sending the event's value back
as the result of the ``yield`` expression.  Nested "blocking" calls are
expressed with ``yield from`` (the SimPy idiom), which is how the MPI
layer exposes its blocking API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .errors import InvalidYield, ProcessFailed
from .events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Simulator

__all__ = ["SimProcess"]


class SimProcess(SimEvent):
    """A running generator that is its own completion event: other
    processes ``yield`` it, and its :attr:`value` is the generator's
    return value once :attr:`done`.  A process that raised is not
    :attr:`alive` and never done."""

    __slots__ = ("_gen", "_alive", "_failure", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[SimEvent, Any, Any], name: str | tuple):
        super().__init__(sim, name)
        self._gen = gen
        self._alive = True
        self._failure: BaseException | None = None
        self._waiting_on: SimEvent | None = None

    # -- inspection ------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return self._alive

    @property
    def waiting_on(self) -> SimEvent | None:
        """The event this process is currently blocked on, if any."""
        return self._waiting_on

    def reraise_if_failed(self) -> None:
        """Re-raise a stored generator exception wrapped in
        :class:`ProcessFailed` (called by the kernel loop)."""
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise ProcessFailed(self.name, failure) from failure

    # -- kernel interface --------------------------------------------------
    def _step(self, event: SimEvent | None) -> None:
        """Advance the generator by one yield.

        ``event`` is the event whose completion resumed us (``None`` for
        the initial step).  Its value is sent into the generator.
        """
        self._waiting_on = None
        try:
            send_value = event.value if event is not None else None
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self._alive = False
            self.complete(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via kernel
            self._alive = False
            self._failure = exc
            self.sim._failed.append(self)
            return
        add_callback = getattr(target, "add_callback", None)
        if add_callback is None:
            self._alive = False
            self._failure = InvalidYield(
                f"process {self.name!r} yielded {target!r}; processes must yield SimEvent objects"
            )
            self.sim._failed.append(self)
            return
        self._waiting_on = target
        add_callback(self._step)
