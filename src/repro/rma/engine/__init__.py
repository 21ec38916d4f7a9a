"""RMA engines: :class:`NonblockingEngine`, the paper's redesign
(:mod:`~repro.rma.engine.nonblocking`), and its three subclasses — the
MVAPICH-style baseline, the adaptive hybrid and the counter-signal
engine."""

from .adaptive import AdaptiveEngine
from .mvapich import MvapichEngine
from .nonblocking import NonblockingEngine
from .registry import DEFAULT_ENGINE, ENGINES, canonical_engine, engine_factory
from .signal import SignalEngine

__all__ = [
    "NonblockingEngine",
    "MvapichEngine",
    "AdaptiveEngine",
    "SignalEngine",
    "ENGINES",
    "DEFAULT_ENGINE",
    "canonical_engine",
    "engine_factory",
]
