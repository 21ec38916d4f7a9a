"""Deliberate, reversible engine mutations — the explorer's self-test.

A schedule explorer that has never caught a bug is unfalsifiable.  This
module provides known-bad engine mutations behind context managers so
the test suite can prove, on demand, that the differential oracle
actually detects real ordering bugs and that a failing seed replays
deterministically.

The first mutation re-introduces the classic deferred-epoch hazard the
paper's §VII-A scan rule exists to prevent: without the
stop-at-first-blocked-epoch gate, an epoch ``E_{k+1}`` can activate
while ``E_k`` is still blocked, violating program order whenever no
reorder flag licensed it.

The others each drop one row of the ready-set wake-up table
(docs/PERFORMANCE.md); the last two drop rows only the MVAPICH
baseline has, its gate count and its drain-wide done.  An epoch, a
target or an arrival the sweep is never told about cannot produce a
wrong answer, only none: all must die as a
:class:`~repro.simtime.SimulationDeadlock`, and a suite that saw a
silently different digest instead would have found a second bug.

Never import this module from production code.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest.mock import patch

__all__ = [
    "activation_gate_disabled",
    "lock_grant_wakeup_dropped",
    "grant_target_wakeup_dropped",
    "op_delivered_wakeup_dropped",
    "done_arrival_uncounted",
    "gate_grant_uncounted",
    "drain_wakeup_dropped",
]


@contextmanager
def activation_gate_disabled():
    """Disable the §VII-A activation gate of every
    :class:`~repro.rma.engine.nonblocking.NonblockingEngine` built
    inside the ``with`` block (class-level flag; restored on exit even
    if the run raises)."""
    from ..rma.engine.nonblocking import NonblockingEngine

    saved = NonblockingEngine._activation_gate
    NonblockingEngine._activation_gate = False
    try:
        yield
    finally:
        NonblockingEngine._activation_gate = saved


def _grant_wakeup_dropped(*kind_names: str):
    """Make a grant from ``r`` wake nothing of an epoch of these kinds."""
    from ..rma.engine.nonblocking import NonblockingEngine
    from ..rma.epoch import EpochKind

    kinds = [EpochKind[name] for name in kind_names]
    real = NonblockingEngine._wake_target

    def mutated(self, ws, ep, target):
        if ep.kind not in kinds:
            real(self, ws, ep, target)

    return patch.object(NonblockingEngine, "_wake_target", mutated)


def lock_grant_wakeup_dropped():
    """Drop the *lock held at r* wake-up: the grant still enters ``r``
    into ``lock_stage`` but the epoch is not made due, so ops recorded before
    the grant are never posted and the unlock is never sent."""
    return _grant_wakeup_dropped("LOCK", "LOCK_ALL")


def grant_target_wakeup_dropped():
    """Drop the *grant from r* wake-up of GATS access epochs: the
    counter still moves but ``(epoch, r)`` is not made due, so ops
    recorded toward ``r`` before the grant are never posted and a closed
    epoch never sends ``r`` its done."""
    return _grant_wakeup_dropped("GATS_ACCESS")


def op_delivered_wakeup_dropped():
    """Drop the *op remotely complete* wake-up: deliveries are still
    accounted, but a closed epoch waiting on its last transfer is never
    re-examined."""
    from ..rma.epoch import Epoch

    real = Epoch.mark_delivered

    def mutated(self, op):
        real(self, op)
        return False

    return patch.object(Epoch, "mark_delivered", mutated)


def done_arrival_uncounted():
    """Drop the *done from o* wake-up: the inbound DONE counter still
    moves, but the exposure's arrival count does not, so the exposure
    never sees its group complete."""
    from ..rma.engine.nonblocking import NonblockingEngine
    from ..rma.notify import SignalChannel

    real = NonblockingEngine._wake_peer

    def mutated(self, ws, channel, peer):
        if channel != SignalChannel.DONE:
            real(self, ws, channel, peer)

    return patch.object(NonblockingEngine, "_wake_peer", mutated)


def gate_grant_uncounted():
    """Drop the baseline's *grant toward a gated epoch* row: the counter
    still moves, but a grant that lands after the GATS access epoch
    opened never reaches its arrival count, so its phase gate stays shut
    and the epoch never issues."""
    from ..rma.engine.mvapich import MvapichEngine
    from ..rma.notify import SignalChannel

    real = MvapichEngine._wake_peer

    def mutated(self, ws, channel, peer):
        if channel != SignalChannel.GRANT:
            real(self, ws, channel, peer)

    return patch.object(MvapichEngine, "_wake_peer", mutated)


def drain_wakeup_dropped():
    """Drop the baseline's *drain-wide done* row: the delivery that drains
    a closed GATS access epoch no longer wakes it, so its dones are never
    sent."""
    from ..rma.engine.mvapich import MvapichEngine
    from ..rma.epoch import EpochKind

    real = MvapichEngine._wake_advance

    def mutated(self, ws, ep, target=None):
        if target is None or ep.kind is not EpochKind.GATS_ACCESS:
            real(self, ws, ep, target)

    return patch.object(MvapichEngine, "_wake_advance", mutated)
