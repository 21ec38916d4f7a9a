"""Deterministic discrete-event simulation kernel.

This package provides the virtual clock everything else in :mod:`repro`
runs on: cooperative generator processes, one-shot events, timeouts and
combinators.  Time is conventionally in microseconds.

Quick example::

    from repro.simtime import Simulator

    sim = Simulator()

    def worker():
        yield sim.timeout(5.0)
        return sim.now

    proc = sim.process(worker())
    sim.run()
    assert proc.value == 5.0
"""

from .core import Position, Simulator, TieBreakPolicy
from .errors import InvalidYield, ProcessFailed, SimtimeError, SimulationDeadlock
from .events import AnyOf, SimEvent, Timeout
from .process import SimProcess

__all__ = [
    "Simulator",
    "Position",
    "TieBreakPolicy",
    "SimEvent",
    "Timeout",
    "AnyOf",
    "SimProcess",
    "SimtimeError",
    "SimulationDeadlock",
    "ProcessFailed",
    "InvalidYield",
]
