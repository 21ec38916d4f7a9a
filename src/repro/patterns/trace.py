"""Timeline tracing of RMA activity.

The tracer is the substrate of the inefficiency-pattern detector
(:mod:`repro.patterns.detect`): engines emit semantic events (epoch
opened / activated / completed, transfers issued / delivered, blocking
intervals) and the detector reconstructs who waited on whom.

Tracing is off by default; :class:`~repro.mpi.runtime.MPIRuntime` enables
it with ``trace=True`` — at construction, for the whole run.  Disabled
emission is a single attribute check: the engines and the fabric bind
the tracer only when it is enabled and guard each site with ``is not
None``; the window's blocking calls test ``Tracer.enabled``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Simulator

__all__ = ["TraceEvent", "Tracer", "EVENT_KINDS"]

#: Semantic event kinds engines may emit.
EVENT_KINDS = frozenset(
    {
        "epoch_open",          # application opened an epoch
        "epoch_close_call",    # application invoked the closing routine
        "epoch_close_return",  # closing routine returned to the application
        "epoch_activate",      # progress engine activated the epoch
        "epoch_complete",      # internal lifetime ended
        "op_issue",            # an RMA transfer hit the wire
        "op_delivered",        # an RMA transfer fully arrived
        "op_call",             # application made an RMA communication call
        "done_sent",           # completion notification sent to a target
        "done_recv",           # completion notification received
        "grant_sent",          # access grant (exposure post / lock grant)
        "grant_recv",
        "signal_sent",         # counter-signal engine: 8-byte signal write sent
        "signal_recv",         # counter-signal engine: signal applied to inbound
        "lock_request",
        "lock_grant",
        "lock_release",
        "block_enter",         # rank blocked in a synchronization call
        "block_exit",
        "fence_open",
        "fence_done",
        "fault_inject",        # injector perturbed a transmission attempt
        "retry",               # reliability layer retransmitted a packet
        "delivery_fail",       # retries exhausted -> RmaDeliveryError
        "degrade",             # adaptive engine fell back to conservative mode
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One timeline record."""

    time: float
    kind: str
    rank: int
    win: int
    epoch: int | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = f" {self.detail}" if self.detail else ""
        ep = f" ep={self.epoch}" if self.epoch is not None else ""
        return f"[{self.time:10.2f}] r{self.rank} w{self.win}{ep} {self.kind}{extra}"


class Tracer:
    """Collects :class:`TraceEvent` records in emission order."""

    def __init__(self, sim: "Simulator", enabled: bool = False):
        self.sim = sim
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def emit(
        self,
        kind: str,
        rank: int,
        win: int,
        epoch: int | None = None,
        **detail: Any,
    ) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self.events.append(TraceEvent(self.sim.now, kind, rank, win, epoch, detail))

    # -- queries -----------------------------------------------------------
    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        """Events of the given kinds, in time order."""
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def for_rank(self, rank: int) -> list[TraceEvent]:
        """Events emitted by ``rank``."""
        return [e for e in self.events if e.rank == rank]

    def for_epoch(self, rank: int, epoch: int) -> list[TraceEvent]:
        """Events of one epoch (identified by owner rank + epoch uid)."""
        return [e for e in self.events if e.rank == rank and e.epoch == epoch]

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    def __iter__(self) -> Iterable[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
