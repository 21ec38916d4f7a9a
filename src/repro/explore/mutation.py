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

The other two each drop one row of the ready-set wake-up table
(docs/PERFORMANCE.md part 3).  An epoch the sweep is never told to
re-examine cannot produce a wrong answer, only none: both must die as a
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
    "op_delivered_wakeup_dropped",
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


def lock_grant_wakeup_dropped():
    """Drop the *lock held at r* wake-up: the grant still flips
    ``lock_held`` but the epoch is not made due, so ops recorded before
    the grant are never posted and the unlock is never sent."""
    from ..rma.engine.base import RmaEngineBase
    from ..rma.epoch import EpochKind

    real = RmaEngineBase._wake_target

    def mutated(self, ws, ep, target):
        if ep.kind not in (EpochKind.LOCK, EpochKind.LOCK_ALL):
            real(self, ws, ep, target)

    return patch.object(RmaEngineBase, "_wake_target", mutated)


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
