"""Per-rank, per-window middleware state shared by every engine.

Holds the matching store (one :class:`~repro.rma.notify.SignalBoard`),
the epoch list (open order), the lock manager for locks this rank hosts,
flush requests and op routing tables.

The board is the only place epoch matching reads or writes.  §VII-B's
ω-triple ``ω_r = ⟨a_l, e_l, g_r⟩`` and its companions are rows of it:

================  ======================================
ω name            board entry
================  ======================================
``a[r]``          ``board.expected[GRANT, r]``
``e[r]``          ``board.outbound[GRANT, r]``
``g[r]``          ``board.inbound[GRANT, r]``
``done_id[o]``    ``board.inbound[DONE, o]``
fence open seen   ``board.inbound[FENCE_OPEN, r]``
fence done seen   ``board.inbound[FENCE_DONE, r]``
================  ======================================

``inbound`` is updated one-sidedly by the remote peer; ``expected`` and
``outbound`` are updated locally, and only *activated* epochs modify
them.  Epoch matching is O(1): an access epoch with id ``A_i`` may
touch ``r`` iff ``A_i <= g[r]`` — ``board.reached(GRANT, r, A_i)``.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from .locks import LockManager
from .notify import SignalBoard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .epoch import Epoch
    from .ops import RmaOp
    from .requests import FlushRequest
    from .window import Window

__all__ = ["WindowState"]

#: What an idle window's maps and sets hold: shared and read-only, so a
#: window pays for one only while something is in it.
NOTHING = MappingProxyType({})
NO_WAKEUPS = frozenset()


class WindowState:
    """Everything one rank's engine knows about one window.

    Each container below is the shared empty (``()``, ``NOTHING`` or
    ``NO_WAKEUPS``) until its first entry, and the code that empties
    it puts the shared empty back.
    """

    __slots__ = (
        "win", "rank", "gid", "checker", "board", "signal_waits", "epochs", "post_ready",
        "advance_ready", "activation_pending", "lock_epochs", "visits", "lock_mgr",
        "lock_backlog", "fence_round", "age_counter", "ops_by_uid", "flushes",
    )

    def __init__(self, win: "Window", on_lock_grant):
        self.win = win
        self.rank = win.rank
        self.gid = win.group.gid

        #: The window group's semantics checker, or None (fixed at group
        #: construction: every hook site is one attribute read).
        self.checker = win.group.checker

        # -- matching ------------------------------------------------------
        #: Per-(channel, peer) counters every engine matches on.  Sparse:
        #: untouched peers allocate nothing, so window registration is
        #: O(1) in nranks.
        self.board = SignalBoard()
        #: Pending ``notify_wait`` reservations: (source, value, request)
        #: triples resolved when the NOTIFY inbound replica catches up.
        self.signal_waits: list[tuple[int, int, Any]] | tuple[()] = ()

        # -- epochs ---------------------------------------------------------
        #: All epochs not yet retired, in application open order: the
        #: serial-activation scan (§VII-A) walks it in order and
        #: retirement deletes finished epochs from the head.  A list, not
        #: a deque: it is short, and an empty deque is 0.6 KiB per window.
        self.epochs: list["Epoch"] = []
        # Ready sets (docs/PERFORMANCE.md has the wake-up table):
        # an epoch or (epoch, target) pair enters one only when one of
        # its own predicate inputs moved and leaves it when examined, so
        # whatever is outside is at a fixpoint.  ``NonblockingEngine``'s
        # wake-ups fill them and its sweep consumes them.
        #: Pairs whose readiness test may have flipped (sweep steps 2/4).
        self.post_ready: set[tuple["Epoch", int]] | frozenset = NO_WAKEUPS
        #: Epochs whose completion conditions may have moved (steps 3/7);
        #: which of an epoch's targets is in ``Epoch.due_targets``.
        self.advance_ready: set["Epoch"] | frozenset = NO_WAKEUPS
        #: An epoch was opened or completed since the last activation scan.
        self.activation_pending = False
        #: (target, access id) -> the lock epoch enrolled there, from its
        #: lock request to its UnlockAck: grants and acks find their epoch
        #: here instead of scanning ``epochs``.
        self.lock_epochs: dict[tuple[int, int], "Epoch"] | MappingProxyType = NOTHING
        #: Sweeps that visited this window (engine step loop).
        self.visits = 0

        # -- lock hosting ----------------------------------------------------
        self.lock_mgr = LockManager(on_lock_grant, self)
        #: Lock / unlock packets awaiting engine step 6: a deque while any waits.
        self.lock_backlog: "deque[Any] | tuple[()]" = ()

        #: Fence rounds opened locally so far (round numbers start at 1).
        self.fence_round = 0

        # -- ops / flushes -----------------------------------------------------
        #: Monotonic RMA-call age (§VII-C flush stamping).
        self.age_counter = 0
        #: In-flight response-bearing ops by uid (routing table).
        self.ops_by_uid: dict[int, "RmaOp"] | MappingProxyType = NOTHING
        #: Live flush requests.
        self.flushes: list["FlushRequest"] | tuple[()] = ()

    # -- small helpers ---------------------------------------------------
    def next_age(self) -> int:
        """Allocate the next RMA-call age."""
        self.age_counter += 1
        return self.age_counter

    def expect_reply(self, op: "RmaOp") -> None:
        """Route what comes back for ``op`` (a CTS, a result) to it."""
        if self.ops_by_uid:
            self.ops_by_uid[op.uid] = op
        else:
            self.ops_by_uid = {op.uid: op}

    def live_epochs(self) -> list["Epoch"]:
        """Epochs whose internal lifetime has not ended."""
        return [ep for ep in self.epochs if not ep.completed]

    def retire_closed(self) -> None:
        """Pop epochs that are both completed and application-closed off
        the head in open order.  Epochs behind a
        still-live head stay queued — every scan already skips completed
        epochs — and are reclaimed once the head retires."""
        eps = self.epochs
        while eps and eps[0].completed and eps[0].app_closed:
            del eps[0]

    def leak_report(self) -> dict[str, Any]:
        """Middleware state that should be empty when the window is
        freed.  Non-empty entries mean either application misuse (epochs
        whose completion was never detected) or engine accounting bugs
        (dangling flushes, orphaned response routing entries, hosted
        locks never released).  The semantics checker turns a non-empty
        report into an ``EPOCH_LEAK`` violation at ``MPI_WIN_FREE``."""
        leaks: dict[str, Any] = {}
        live = self.live_epochs()
        if live:
            leaks["epochs"] = [ep.uid for ep in live]
        dangling = [fr.name for fr in self.flushes if not fr.done]
        if dangling:
            leaks["flushes"] = dangling
        if self.ops_by_uid:
            leaks["ops_in_flight"] = sorted(self.ops_by_uid)
        holders = self.lock_mgr.holders
        if holders:
            leaks["hosted_locks"] = holders
        queued = self.lock_mgr.queued
        if queued:
            leaks["queued_lock_requests"] = [w.origin for w in queued]
        if self.lock_backlog:
            leaks["lock_backlog"] = len(self.lock_backlog)
        waiting = [req.name for _src, _val, req in self.signal_waits if not req.done]
        if waiting:
            leaks["signal_waits"] = waiting
        return leaks

    def notify_flushes(self, op: "RmaOp", local: bool) -> None:
        """Propagate one op completion event to live flush requests and
        retire finished ones.

        ``local`` distinguishes origin-buffer-reusable events (feeding
        ``flush_local`` requests) from remote-completion events (feeding
        plain ``flush`` requests).
        """
        if not self.flushes:
            return
        live: list["FlushRequest"] = []
        for fr in self.flushes:
            if fr.local == local:
                fr.op_completed(op)
            if not fr.done:
                live.append(fr)
        self.flushes = live or ()
