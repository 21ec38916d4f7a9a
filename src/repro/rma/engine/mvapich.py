"""The MVAPICH 2-1.9-style baseline engine.

A subclass of :class:`~repro.rma.engine.nonblocking.NonblockingEngine`:
the redesign's 7-step loop over the same ready sets.  What makes it the
baseline is three timing rules (§VIII-B, [12]), each a predicate:

- *Lazy lock acquisition* — "The locking attempt, and consequently the
  whole epoch, is not internally fulfilled until MPI_WIN_UNLOCK is
  invoked at the application level."  No deferred-activation scan runs:
  a lock epoch activates at the unlock, a flush or a request-based op
  (:meth:`_activate_lock`), GATS and fence epochs at the opening call.
- *Issue at close, gated in two phases* — "After it reaches its
  epoch-closing routine, MVAPICH waits for all internode targets to be
  ready before issuing communication to any internode target; then all
  intranode targets must be ready before any intranode communication is
  issued."  A GATS access or fence epoch issues from its closing
  examination (:meth:`_advance_epoch`) what its gates let out; each
  gate is an arrival count moved by :meth:`_count_ready`.
- *Completion at drain* — a GATS access epoch sends its dones together
  once drained, so only the drain wakes it (:meth:`_wake_advance`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...obs.metrics import Histogram
from ..epoch import Epoch, EpochKind
from ..notify import SignalChannel
from ..requests import ClosingRequest
from ..state import WindowState
from .nonblocking import NonblockingEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...mpi.runtime import MPIRuntime
    from ..window import Window

__all__ = ["MvapichEngine"]

_GATS_ACCESS = EpochKind.GATS_ACCESS
_FENCE = EpochKind.FENCE
_LOCK_KINDS = (EpochKind.LOCK, EpochKind.LOCK_ALL)
_FENCE_OPEN = SignalChannel.FENCE_OPEN
#: Board channel -> the gated epoch kind whose arrival count it moves.
_GATED = {SignalChannel.GRANT: _GATS_ACCESS, _FENCE_OPEN: _FENCE}


class MvapichEngine(NonblockingEngine):
    """Lazy, blocking-only baseline RMA engine."""

    __slots__ = ("scan_cost", "_scan_busy_until", "_scan_pending")

    supports_nonblocking = False
    activation_scan = False

    def __init__(self, runtime: "MPIRuntime", rank: int):
        super().__init__(runtime, rank)
        #: Every rank's grant scan costs in one job-wide histogram, added
        #: in grant order (a float sum depends on the order).
        self.scan_cost = (runtime.engines[0].scan_cost if runtime.engines
                          else Histogram("baseline.scan_cost_us"))
        #: The serial scan server: busy until this time, this many grants queued.
        self._scan_busy_until = 0.0
        self._scan_pending = 0

    def _try_activate(self, ws: WindowState) -> int:
        """No deferred-activation scan: every epoch activates at a call."""
        return 0

    def _open_epoch(self, ws: WindowState, ep: Epoch) -> Epoch:
        """GATS and fence epochs activate at the opening call; locks wait."""
        if ep.kind not in _LOCK_KINDS:
            ep.active = True
            ep.activate_time = self.sim.now
            if ep.kind is EpochKind.GATS_EXPOSURE:
                self._enroll_exposure(ws, ep)
            else:
                if ep.kind is _GATS_ACCESS:
                    self._enroll_access(ws, ep)
                    lo, hi = self._node_lo, self._node_hi
                    ep.internode_waiting = sum(1 for t in ep.targets if not lo <= t < hi)
                for target in ep.targets:
                    self._count_ready(ws, ep, target)
        return super()._open_epoch(ws, ep)

    def _activate_lock(self, ws: WindowState, ep: Epoch) -> None:
        """Acquire a lazy lock now: issue the deferred lock request(s)."""
        if ep.active or ep.kind not in _LOCK_KINDS:
            return
        ep.active = True
        ep.activate_time = self.sim.now
        if self.causal is not None:
            self.causal.instant("epoch_activate", rank=self.rank, win=ws.gid,
                                epoch=ep.uid, meta={"lazy": True})
        self._enroll_access(ws, ep)
        pairs = [(ep, t) for t in ep.unissued_targets() if t in ep.lock_stage]
        if ws.post_ready:
            ws.post_ready.update(pairs)
        elif pairs:
            ws.post_ready = set(pairs)
        self._mark_if_due(ws)

    def close_epoch(self, win: "Window", ep: Epoch) -> ClosingRequest:
        """Fence arrival is announced, and a lazy lock acquired, here."""
        ws = self.state_of(win)
        if ep.kind is _FENCE:
            self._broadcast_fence_open(ws, ep.fence_round)
        self._activate_lock(ws, ep)
        return self._close_epoch(ws, ep)

    def _wake_post(self, ws: WindowState, ep: Epoch, target: int) -> None:
        if ep.kind in _LOCK_KINDS:  # a gated epoch issues at its close
            super()._wake_post(ws, ep, target)

    def _target_ready(self, ws: WindowState, ep: Epoch, target: int) -> bool:
        """Steps 2/4 post lock epochs only; gated ones issue at close."""
        return ep.kind in _LOCK_KINDS and super()._target_ready(ws, ep, target)

    def _wake_peer(self, ws: WindowState, channel: SignalChannel, peer: int) -> None:
        kind = _GATED.get(channel)
        if kind is None:
            return super()._wake_peer(ws, channel, peer)
        for ep in ws.epochs:
            if ep.active and ep.kind is kind and (kind is _FENCE or peer in ep.peers):
                self._count_ready(ws, ep, peer)

    def _count_ready(self, ws: WindowState, ep: Epoch, peer: int) -> None:
        """Count ``peer`` once it granted, or announced the fence round;
        a gate that opens on a closed epoch makes it due."""
        ready = (self._access_granted(ws, ep, peer) if ep.kind is _GATS_ACCESS else
                 peer == self.rank or ws.board.reached(_FENCE_OPEN, peer, ep.fence_round))
        if not ready or peer in ep.ready_from:
            return
        ep.ready_from.add(peer)
        opened = len(ep.ready_from) == len(ep.targets)
        if ep.internode_waiting and not self._node_lo <= peer < self._node_hi:
            ep.internode_waiting -= 1
            opened = opened or not ep.internode_waiting
        if opened and ep.app_closed:
            self._wake_advance(ws, ep)

    def _wake_advance(self, ws: WindowState, ep: Epoch, target: int | None = None) -> None:
        # A GATS access epoch's dones wait for the drain: only it wakes one.
        if target is None or ep.kind is not _GATS_ACCESS or not (
                ep.unissued_count or ep.undelivered):
            super()._wake_advance(ws, ep, target)

    def _advance_epoch(self, ws: WindowState, ep: Epoch) -> bool:
        """A closed gated epoch issues internode targets in group order once
        they all granted, then the rest in recorded order once every target
        is ready; a GATS access epoch's dones then wait for the drain."""
        kind = ep.kind
        if ep.app_closed and (kind is _GATS_ACCESS or kind is _FENCE):
            if kind is _GATS_ACCESS and (ep.nocheck or not ep.internode_waiting):
                lo, hi = self._node_lo, self._node_hi
                for target in ep.targets:
                    if not lo <= target < hi:
                        self._issue_to(ws, ep, target)
            gate_open = ep.nocheck or len(ep.ready_from) == len(ep.targets)
            if gate_open:
                for target in ep.unissued_targets():
                    self._issue_to(ws, ep, target)
            if not gate_open or (kind is _GATS_ACCESS and (ep.unissued_count or ep.undelivered)):
                self.epochs_examined += 1
                return False
        return super()._advance_epoch(ws, ep)

    # -- lock hosting: the legacy O(pending-state) grant service --------------
    def _grant_lock(self, ws: WindowState, waiter) -> None:
        """Grant a lock after walking the pending state (queued grants and
        waiters, live epochs, the lock backlog) at ``baseline_scan_cost_us``
        per item — the O(pending) cost §VII-B's ω matching removes.  Under
        fan-in the backlog this builds makes grant latency diverge
        (Fig. 12).  At the default cost of 0.0 this is the base grant."""
        kappa = self.model.baseline_scan_cost_us
        if kappa <= 0.0:
            super()._grant_lock(ws, waiter)
            return
        pending = (1 + self._scan_pending + ws.lock_mgr.queue_depth + len(ws.epochs)
                   + len(ws.lock_backlog))
        now = self.sim.now
        self._scan_busy_until = done = max(self._scan_busy_until, now) + kappa * pending
        self._scan_pending += 1
        self.scan_cost.observe(done - now)
        self.sim.schedule(done - now, self._scanned_grant, ws, waiter)

    def _scanned_grant(self, ws: WindowState, waiter) -> None:
        """Deferred tail of :meth:`_grant_lock`: the scan has finished."""
        self._scan_pending -= 1
        super()._grant_lock(ws, waiter)
