"""The MVAPICH 2-1.9-style baseline engine.

This engine reproduces the documented behaviours the paper measures
against (§VIII and [12]):

Lazy lock acquisition
    "The locking attempt, and consequently the whole epoch, is not
    internally fulfilled until MPI_WIN_UNLOCK is invoked at the
    application level."  A lock epoch stays deferred through
    ``MPI_WIN_LOCK`` and all its communication calls; everything —
    lock request, transfers, unlock — happens at the unlock call.
    Consequence: no communication/computation overlap in lock epochs,
    but immunity to Late Unlock (the whole epoch degenerates to the
    single unlock call).  A flush forces early acquisition, as in real
    MVAPICH.

All-targets-ready gating (§VIII-B)
    "After it reaches its epoch-closing routine, MVAPICH waits for all
    internode targets to be ready before issuing communication to any
    internode target; then all intranode targets must be ready before
    any intranode communication is issued."  GATS and fence epochs defer
    every transfer to the closing routine and gate it in those two
    phases.

Blocking-only synchronization
    The proposed ``MPI_WIN_I*`` API is absent
    (``supports_nonblocking = False``); the Window facade raises
    :class:`~repro.mpi.errors.UnsupportedOperation` for it.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from ...network.packets import ServiceKind
from ..epoch import Epoch, EpochKind, EpochState
from ..notify import SignalChannel
from ..packets import UnlockPacket
from ..requests import ClosingRequest
from ..state import WindowState
from .base import RmaEngineBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..window import Window

__all__ = ["MvapichEngine"]

# Stages of the epoch-closing state machine.
_WAIT_INTERNODE = 0
_WAIT_INTRANODE = 1
_DRAINING = 2
_NOTIFIED = 3


class MvapichEngine(RmaEngineBase):
    """Lazy, blocking-only baseline RMA engine."""

    supports_nonblocking = False

    # =====================================================================
    # Progress
    # =====================================================================
    def _sweep(self) -> None:
        # With the §VII-D profiler attached each step also reports its
        # work count and wall time; steps 6 and 7 interleave per window,
        # so theirs accumulate across the loop into one record per sweep.
        prof = self.profiler
        t = prof.begin_sweep() if prof is not None else 0.0
        # Notifications first (they may dirty exposure windows that were
        # clean at entry); the worklist snapshot then covers them.
        drained = self._consume_notifications()             # step 5
        if prof is not None:
            t = prof.lap(5, drained, t)
        backlog_work = advance_work = 0
        backlog_s = advance_s = 0.0
        for ws in self._take_dirty():
            backlog_work += self._process_lock_backlog(ws)  # step 6
            if prof is not None:
                mid = perf_counter()
            advance_work += self._advance_all(ws)           # step 7
            if prof is not None:
                backlog_s += mid - t
                t = perf_counter()
                advance_s += t - mid
        if prof is not None:
            prof.record(6, backlog_work, backlog_s)
            prof.record(7, advance_work, advance_s)
        self._check_blocking_flushes()

    def _advance_all(self, ws: WindowState) -> int:
        """Advance every live epoch to quiescence; returns the number of
        epochs that made completion progress."""
        changed = True
        progressed = 0
        while changed:
            changed = False
            for ep in ws.epochs:
                if ep.completed:
                    continue
                if self._advance(ws, ep):
                    changed = True
                    progressed += 1
        ws.retire_closed()
        return progressed

    def _advance(self, ws: WindowState, ep: Epoch) -> bool:
        if ep.kind is EpochKind.GATS_EXPOSURE:
            return ep.active and self._advance_exposure(ws, ep)
        if ep.kind is EpochKind.GATS_ACCESS:
            return self._advance_gats_access(ws, ep)
        if ep.kind in (EpochKind.LOCK, EpochKind.LOCK_ALL):
            return self._advance_lock(ws, ep)
        if ep.kind is EpochKind.FENCE:
            return self._advance_fence(ws, ep)
        raise AssertionError(f"unhandled kind {ep.kind}")

    def _advance_exposure(self, ws: WindowState, ep: Epoch) -> bool:
        """Exposure completion test: every origin's done packet arrived."""
        if all(self._done_arrived(ws, ep, origin) for origin in ep.origin_group):
            self._complete_epoch(ws, ep)
            return True
        return False

    # -- GATS access: issue-at-close with two-phase gating -----------------
    def _split_targets(self, ep: Epoch) -> tuple[list[int], list[int]]:
        """Internode/intranode partition of the epoch's target group,
        computed once per epoch (targets are immutable) via the O(1)
        node-span test instead of per-target topology calls per sweep."""
        split = getattr(ep, "mv_split", None)
        if split is None:
            lo, hi = self._node_lo, self._node_hi
            inter = [t for t in ep.targets if not lo <= t < hi]
            intra = [t for t in ep.targets if lo <= t < hi]
            ep.mv_split = split = (inter, intra)
        return split

    def _all_granted(self, ws: WindowState, ep: Epoch, targets: list[int]) -> bool:
        """The all-targets-ready gate (§VIII-B)."""
        return all(self._access_granted(ws, ep, t) for t in targets)

    def _advance_gats_access(self, ws: WindowState, ep: Epoch) -> bool:
        if not ep.app_closed:
            return False
        inter, intra = self._split_targets(ep)
        stage = getattr(ep, "mv_stage", _WAIT_INTERNODE)
        if stage == _WAIT_INTERNODE:
            if not ep.nocheck and not self._all_granted(ws, ep, inter):
                return False
            for target in inter:
                for op in self._take_unissued(ws, ep, target):
                    self._issue_op(ws, op)
            ep.mv_stage = stage = _WAIT_INTRANODE
        if stage == _WAIT_INTRANODE:
            if not ep.nocheck and not self._all_granted(ws, ep, intra):
                return False
            for target in ep.unissued_targets():
                for op in self._take_unissued(ws, ep, target):
                    self._issue_op(ws, op)
            ep.mv_stage = stage = _DRAINING
        if stage == _DRAINING:
            if ep.unissued_count or ep.undelivered:
                return False
            for target in ep.targets:
                if target not in ep.done_sent:
                    self._send_done(ws, ep, target)
            self._complete_epoch(ws, ep)
            return True
        return False

    # -- lock epochs: fully lazy ---------------------------------------------
    def _activate_lock(self, ws: WindowState, ep: Epoch) -> None:
        """Issue the deferred lock request(s) (unlock time, or first
        flush)."""
        if ep.active:
            return
        ep.state = EpochState.ACTIVE
        ep.activate_time = self.sim.now
        self.mark_dirty(ws)
        if self._tracer is not None:
            self._trace("epoch_activate", ws, ep)
        if self.causal is not None:
            self.causal.instant("epoch_activate", rank=self.rank, win=ws.gid,
                                epoch=ep.uid, meta={"lazy": True})
        self._enroll_access(ws, ep)

    def _advance_lock(self, ws: WindowState, ep: Epoch) -> bool:
        if not ep.active:
            return False
        # Issue every recorded op whose target lock is held.
        for target in ep.unissued_targets():
            if ep.lock_held.get(target, False):
                for op in self._take_unissued(ws, ep, target):
                    self._issue_op(ws, op)
        if not ep.app_closed:
            return False
        if ep.nocheck:
            if ep.unissued_count == 0 and ep.undelivered == 0:
                self._complete_epoch(ws, ep)
                return True
            return False
        done = True
        for target in ep.targets:
            if target in ep.unlock_sent:
                continue
            if (
                ep.lock_held.get(target, False)
                and ep.all_issued_to(target)
                and ep.undelivered_to(target) == 0
            ):
                self._send(
                    target,
                    self.model.control_bytes,
                    UnlockPacket(ws.gid, origin=self.rank, access_id=ep.access_ids[target]),
                    ServiceKind.CONTROL,
                    needs_attention=True,
                )
                ep.unlock_sent.add(target)
            else:
                done = False
        if done and len(ep.unlock_acked) == len(ep.targets):
            self._complete_epoch(ws, ep)
            return True
        return False

    # -- fence: arrival gating at the closing call ------------------------
    def _advance_fence(self, ws: WindowState, ep: Epoch) -> bool:
        if not ep.app_closed:
            return False
        stage = getattr(ep, "mv_stage", _WAIT_INTERNODE)
        if stage == _WAIT_INTERNODE:
            # Wait for every peer to reach its closing fence (arrival).
            if not self._all_reached(ws, SignalChannel.FENCE_OPEN, ep.fence_round):
                return False
            for target in ep.unissued_targets():
                for op in self._take_unissued(ws, ep, target):
                    self._issue_op(ws, op)
            ep.mv_stage = stage = _DRAINING
        if stage == _DRAINING:
            if ep.unissued_count or ep.undelivered:
                return False
            self._broadcast_fence_done(ws, ep)
            ep.mv_stage = stage = _NOTIFIED
        if stage == _NOTIFIED:
            if self._all_reached(ws, SignalChannel.FENCE_DONE, ep.fence_round):
                self._complete_epoch(ws, ep)
                return True
        return False

    # =====================================================================
    # Epoch lifecycle timing (the API itself is the base class's)
    # =====================================================================
    def _open_epoch(self, ws: WindowState, ep: Epoch) -> Epoch:
        """Fence and GATS epochs are active from the opening call, and a
        GATS epoch enrols there (an exposure's grants leave before the
        epoch is recorded as open).  Lock epochs stay lazy: nothing hits
        the wire until the unlock or a flush."""
        kind = ep.kind
        if kind is not EpochKind.LOCK and kind is not EpochKind.LOCK_ALL:
            ep.state = EpochState.ACTIVE
            ep.activate_time = self.sim.now
            if kind is EpochKind.GATS_ACCESS:
                self._enroll_access(ws, ep)
            elif kind is EpochKind.GATS_EXPOSURE:
                self._enroll_exposure(ws, ep)
        return super()._open_epoch(ws, ep)

    def close_epoch(self, win: "Window", ep: Epoch) -> ClosingRequest:
        """MVAPICH announces fence arrival, and acquires a lazy lock, at
        the closing call."""
        ws = self.state_of(win)
        if ep.kind is EpochKind.FENCE:
            self._broadcast_fence_open(ws, ep.fence_round)
        elif ep.kind is EpochKind.LOCK or ep.kind is EpochKind.LOCK_ALL:
            self._activate_lock(ws, ep)
        return self._close_epoch(ws, ep)

    # =====================================================================
    # Communication calls
    # =====================================================================
    def add_op(self, win: "Window", ep: Epoch, op: RmaOp) -> RmaOp:
        """Like the base, but request-based ops force early lock
        acquisition — the application may legally wait on the op request
        before unlocking, which the fully-lazy path could never satisfy."""
        super().add_op(win, ep, op)
        if (
            op.request is not None
            and ep.kind in (EpochKind.LOCK, EpochKind.LOCK_ALL)
            and not ep.active
        ):
            self._activate_lock(self.state_of(win), ep)
            self.poke()
        return op

    # =====================================================================
    # Flushes (blocking only; forces lazy-lock acquisition)
    # =====================================================================
    def make_flush(self, win: "Window", ep: Epoch, target: int | None, local: bool):
        from ...mpi.errors import UnsupportedOperation

        raise UnsupportedOperation("the baseline engine has no nonblocking flush")

    def _flush_activate(self, ws: WindowState, ep: Epoch) -> None:
        """A flush forces early lock acquisition, as in real MVAPICH."""
        if ep.kind in (EpochKind.LOCK, EpochKind.LOCK_ALL) and not ep.active:
            self._activate_lock(ws, ep)

    # =====================================================================
    # Lock hosting (target side): legacy O(pending-state) grant service
    # =====================================================================
    #: Virtual time until which the host progress engine is busy scanning
    #: pending state, and the number of grants queued behind that scan
    #: (serial server; see ``_grant_lock``).
    _scan_busy_until = 0.0
    _scan_pending = 0

    def _grant_lock(self, ws: WindowState, waiter) -> None:
        """Grant a lock after the legacy pending-state scan.

        The baseline services passive-target grants from a progress
        engine that walks its outstanding-state lists before acting on
        each one (grants already queued behind the scan, queued lock
        waiters, live epochs, the deferred lock backlog), so each grant
        costs ``baseline_scan_cost_us`` per pending item — the
        O(pending) progress cost that §VII-B's constant-time ω matching
        removes.  The scan occupies the host serially, and every queued
        grant is itself pending state the next scan must walk: under
        fan-in the service time grows with the backlog it creates, and
        past a critical arrival rate the queue — and with it grant
        latency — diverges, collapsing throughput (Fig. 12).  At the
        default cost of 0.0 this is exactly the base grant.
        """
        kappa = self.model.baseline_scan_cost_us
        if kappa <= 0.0:
            super()._grant_lock(ws, waiter)
            return
        pending = (
            1
            + self._scan_pending
            + ws.lock_mgr.queue_depth
            + len(ws.epochs)
            + len(ws.lock_backlog)
        )
        now = self.sim.now
        start = self._scan_busy_until if self._scan_busy_until > now else now
        done = start + kappa * pending
        self._scan_busy_until = done
        self._scan_pending += 1
        m = self.metrics
        if m is not None:
            m.observe("baseline.scan_cost_us", done - now)
        self.sim.schedule(done - now, self._scanned_grant, ws, waiter)

    def _scanned_grant(self, ws: WindowState, waiter) -> None:
        """Deferred tail of :meth:`_grant_lock`: the scan has finished."""
        self._scan_pending -= 1
        super()._grant_lock(ws, waiter)
