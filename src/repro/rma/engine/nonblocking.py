"""The paper's redesigned RMA engine (§VI–§VII).

This engine serves both the "New" (blocking synchronization calls) and
"New nonblocking" (``MPI_WIN_I*``) test series: blocking routines are
the nonblocking ones plus an internal wait (§VII-C), so the engine only
ever sees the nonblocking shape.

Key mechanisms
--------------
Deferred epochs (§VII-A)
    Epoch objects are created inactive.  The activation predicate
    (:meth:`_may_activate`) encodes the §VI rules: serial activation in
    open order, no skipping, ``E_{k+1}`` activates only after ``E_k``
    completes unless a §VI-B reorder flag allows concurrency (never
    across fence / lock_all epochs).  Deferred epochs record their
    communication calls and replay them on activation.

Epoch matching (§VII-B)
    The counter board in :class:`~repro.rma.state.WindowState`, through
    the shared protocol of :mod:`~repro.rma.engine.base`; a target that
    grants access to an origin several epochs late leaves a persistent
    trace in the monotonically increasing inbound grant counter.

Eager per-target issue (§VIII-B)
    Transfers to any granted target are issued right away (internode
    before intranode within a sweep, per the step ordering), unlike the
    baseline's all-targets-ready gating.

The 7-step progress loop (§VII-D)
    :meth:`_sweep` runs the documented step sequence.  In this
    event-driven simulation, steps 1 (completion verification) is
    subsumed by completion callbacks, but the structural order —
    completions before posts, batch completion both before and after
    intranode work, notification consumption feeding the lock backlog —
    is preserved.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from ...network.packets import ServiceKind
from ..epoch import Epoch, EpochKind, EpochState
from ..notify import SignalChannel
from ..packets import UnlockPacket
from ..requests import FlushRequest
from ..state import WindowState
from .base import RmaEngineBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..window import Window

__all__ = ["NonblockingEngine"]

#: Sort key of the ready sets: application open order within a window.
_uid = attrgetter("uid")

#: Board channel -> (epoch kind whose predicates read its inbound row,
#: whether an arrival moves a completion condition too or only target
#: readiness): the arrival rows of the wake-up table.
_WOKEN = {
    SignalChannel.GRANT: (EpochKind.GATS_ACCESS, True),
    SignalChannel.DONE: (EpochKind.GATS_EXPOSURE, True),
    SignalChannel.FENCE_OPEN: (EpochKind.FENCE, False),
    SignalChannel.FENCE_DONE: (EpochKind.FENCE, True),
}


class NonblockingEngine(RmaEngineBase):
    """Deferred-epoch, fully nonblocking RMA progress engine."""

    #: §VII-A activation gate: the deferred-epoch scan stops at the first
    #: epoch that fails its activation conditions, so E_{k+1} can never
    #: activate before E_k unless a reorder flag allows it.  Test-only
    #: mutation switch — :func:`repro.explore.mutation.activation_gate_disabled`
    #: flips it to let the schedule explorer prove it can catch the
    #: resulting ordering bug.  Never clear this in production code.
    _activation_gate = True

    # =====================================================================
    # §VII-D — the progress loop
    # =====================================================================
    def _sweep(self) -> None:
        # With the §VII-D profiler attached (``metrics=True``) each step
        # also reports its work count and wall-clock delta.
        prof = self.profiler
        dirty = self._take_dirty()
        t = prof.begin_sweep() if prof is not None else 0.0
        work = 0
        for ws in dirty:
            # Step 1 (completion verification) is event-driven here:
            # op completion callbacks have already updated the state.
            if ws.post_ready:
                work += self._post_ready_ops(ws, intranode=False)  # step 2
        if prof is not None:
            t = prof.lap(2, work, t)
        work = 0
        for ws in dirty:
            work += self._complete_and_activate(ws)            # step 3
        if prof is not None:
            t = prof.lap(3, work, t)
        late = 0
        for ws in dirty:
            if ws.post_ready:
                late += self._post_ready_ops(ws, intranode=True)   # step 4
        if prof is not None:
            t = prof.lap(4, late, t)
        work = self._consume_notifications() if self.fifo._incoming else 0  # step 5
        late += work
        if prof is not None:
            t = prof.lap(5, work, t)
        # Step 5 may have dirtied windows that were clean at sweep start
        # (FIFO done notifications); the historical full scan reached
        # them in steps 6/7 of the same sweep, so fold them in here.
        merged = self._merge_marked(dirty) if self._dirty else dirty
        work = 0
        for ws in merged:
            if ws.lock_backlog:
                work += self._process_lock_backlog(ws)  # step 6
        late += work
        if prof is not None:
            t = prof.lap(6, work, t)
        # Step 3 already ran each window to the _complete_and_activate
        # fixpoint, so step 7 can only progress if steps 4-6 changed
        # something (posted ops, drained notifications, lock traffic) or
        # pulled extra windows in; otherwise it is a structural no-op.
        work = 0
        if late or merged is not dirty:
            for ws in merged:
                work += self._complete_and_activate(ws)        # step 7
        if prof is not None:
            prof.lap(7, work, t)
        if self._blocking_flushes:
            self._check_blocking_flushes()

    # =====================================================================
    # Activation (§VI rules)
    # =====================================================================
    def _reorder_allows(self, ws: WindowState, new: Epoch, prev: Epoch) -> bool:
        """Whether ``new`` may activate while ``prev`` is still active."""
        if new.reorder_excluded or prev.reorder_excluded:
            return False
        return ws.win.group.flags.allows(new.is_access, prev.is_access)

    def _try_activate(self, ws: WindowState) -> int:
        """Activate deferred epochs in order; §VII-A: "the scan stops when
        the first deferred epoch is encountered that fails activation
        conditions".  Returns the number of epochs activated."""
        activated = 0
        active_preceding: list[Epoch] = []
        for ep in ws.epochs:
            if ep.completed:
                continue
            if ep.active:
                active_preceding.append(ep)
                continue
            if active_preceding:
                allowed = True
                for prev in active_preceding:
                    if not self._reorder_allows(ws, ep, prev):
                        allowed = False
                        break
                if not allowed:
                    if self._activation_gate:
                        break
                    # Mutated (test-only): skip the blocked epoch but
                    # keep scanning — later epochs may now activate out
                    # of order.
                    continue
            self._activate(ws, ep, tuple(active_preceding))
            active_preceding.append(ep)
            activated += 1
        return activated

    def _activate(
        self, ws: WindowState, ep: Epoch, active_preceding: tuple[Epoch, ...] = ()
    ) -> None:
        ep.state = EpochState.ACTIVE
        ep.activate_time = self.sim.now
        ep.activated_past = tuple(p.uid for p in active_preceding)
        # Due on activation, every target of it (``due_targets`` is still
        # None): it may have been closed while deferred (an exposure's
        # dones may even be in already), and every op recorded while
        # deferred is now postable.
        ws.advance_ready.add(ep)
        ws.post_ready.update((ep, target) for target in ep.unissued_targets())
        checker = ws.checker
        if checker is not None:
            checker.on_epoch_activate(ws, ep, active_preceding)
        if self.causal is not None:
            self.causal.instant("epoch_activate", rank=self.rank, win=ws.gid,
                                epoch=ep.uid, meta={"deferred": len(active_preceding)})
        if ep.kind is EpochKind.GATS_EXPOSURE:
            self._enroll_exposure(ws, ep)
        elif ep.kind is EpochKind.FENCE:
            self._announce_fence(ws, ep)
        else:
            self._enroll_access(ws, ep)

    # -- fence rounds over the board (enrolment, grants and dones are in
    # the base class: the baseline engine shares them) -------------------
    def _announce_fence(self, ws: WindowState, ep: Epoch) -> None:
        """Announce an activating fence round to every peer, and count
        the peers already through it: one can finish a round before this
        rank enters it."""
        self._broadcast_fence_open(ws, ep.fence_round)
        for peer in ws.win.group.ranks:
            if peer != self.rank:
                self._fence_done_landed(ws, ep, peer)

    def _fence_done_landed(self, ws: WindowState, ep: Epoch, peer: int) -> None:
        """Count ``peer`` toward ``ep``'s barrier if it completed the round."""
        if ws.board.reached(SignalChannel.FENCE_DONE, peer, ep.fence_round):
            ep.done_from.add(peer)

    def _fence_done_reached(self, ws: WindowState, ep: Epoch) -> bool:
        """Barrier test for a closing fence: every peer completed the
        round — counted as each landed, so one compare, no O(nranks)
        peer set per examination."""
        if len(ep.done_from) != len(ws.win.group.ranks) - 1:
            return False
        if ws.checker is not None:
            assert all(ws.board.reached(SignalChannel.FENCE_DONE, p, ep.fence_round)
                       for p in ws.win.group.ranks if p != self.rank), ep
        return True

    # =====================================================================
    # Ready-set wake-ups (the base-class hooks, filled in)
    # =====================================================================
    def _wake_post(self, ws: WindowState, ep: Epoch, target: int) -> None:
        ws.post_ready.add((ep, target))

    def _wake_advance(self, ws: WindowState, ep: Epoch, target: int | None = None) -> None:
        if not ep.active:  # activation wakes a deferred epoch itself
            return
        if target is None:
            ep.due_targets = None
        elif not ep.app_closed:
            # Dones and unlocks wait for the close call, which makes
            # every target due: until then the examination is a no-op.
            return
        elif ep.due_targets is not None:
            ep.due_targets.add(target)
        ws.advance_ready.add(ep)

    def _wake_peer(self, ws: WindowState, channel: SignalChannel, peer: int) -> None:
        kind, advance = _WOKEN[channel]
        for ep in ws.epochs:
            if not ep.active or ep.kind is not kind:
                continue
            if kind is EpochKind.GATS_EXPOSURE:
                if (
                    peer in ep.peers
                    and peer not in ep.done_from
                    and self._done_arrived(ws, ep, peer)
                ):
                    ep.done_from.add(peer)
                    ws.advance_ready.add(ep)
            elif kind is EpochKind.FENCE:  # involves every peer
                if not ep.all_issued_to(peer):
                    self._wake_post(ws, ep, peer)
                if advance:
                    self._fence_done_landed(ws, ep, peer)
                    ws.advance_ready.add(ep)
            elif peer in ep.peers and peer not in ep.done_sent:
                self._wake_target(ws, ep, peer)

    # =====================================================================
    # Op readiness and posting
    # =====================================================================
    def _target_ready(self, ws: WindowState, ep: Epoch, target: int) -> bool:
        if not ep.active:
            return False
        if ep.kind is EpochKind.GATS_ACCESS:
            # NOCHECK: the application guarantees the matching post has
            # already happened; skip the grant wait.
            return ep.nocheck or self._access_granted(ws, ep, target)
        if ep.kind in (EpochKind.LOCK, EpochKind.LOCK_ALL):
            return ep.lock_held.get(target, False)
        if ep.kind is EpochKind.FENCE:
            if target == self.rank:
                return True
            # Has ``target`` announced entering this fence round?
            return ws.board.reached(SignalChannel.FENCE_OPEN, target, ep.fence_round)
        raise AssertionError(f"ops not allowed in {ep.kind}")

    def _post_ready_ops(self, ws: WindowState, intranode: bool) -> int:
        """Steps 2/4: test the due (epoch, target) pairs on this step's
        side of the node boundary and issue the recorded ops of the ready
        ones; returns the number of ops posted.  Order is part of the
        virtual-time contract: epochs in open order, an epoch's targets
        in first-recorded order."""
        due = ws.post_ready
        if not due:
            return 0
        node_lo, node_hi = self._node_lo, self._node_hi
        pairs = [p for p in due if (node_lo <= p[1] < node_hi) == intranode]
        if not pairs:
            return 0
        due.difference_update(pairs)
        if len(pairs) > 1:
            # Ordering only — one pair or many, none is dropped: ops leave
            # an epoch through this examination alone, so every due pair
            # still has unissued ops and appears in the walk below.
            wanted = set(pairs)
            pairs = [
                (ep, target)
                for ep in sorted({p[0] for p in pairs}, key=_uid)
                for target in ep.unissued_targets()
                if (ep, target) in wanted
            ]
            assert len(pairs) == len(wanted), wanted.difference(pairs)
        m = self.metrics
        posted = 0
        for ep, target in pairs:
            self.epochs_examined += 1
            ready = self._target_ready(ws, ep, target)
            if m is not None:
                # ω matching outcome (§VII-B): one O(1) test per due pair.
                m.inc("omega.matches" if ready else "omega.wait_for_grant")
            if ready:
                posted += self._issue_to(ws, ep, target)
        return posted

    # =====================================================================
    # Completion (step 3 / step 7)
    # =====================================================================
    def _complete_and_activate(self, ws: WindowState) -> int:
        """Steps 3/7: examine the due epochs (in open order) and rerun
        the activation scan while either has work; returns the number of
        epochs progressed (completed or activated)."""
        due = ws.advance_ready
        if not due and not ws.activation_pending:
            return 0
        progressed = 0
        while due or ws.activation_pending:
            if due:
                batch = sorted(due, key=_uid) if len(due) > 1 else list(due)
                due.clear()
                for ep in batch:
                    if ep.active and self._advance_epoch(ws, ep):
                        progressed += 1
            if ws.activation_pending:
                ws.activation_pending = False
                progressed += self._try_activate(ws)
        if progressed and ws.unissued_total:
            # Newly activated epochs may have ready ops; re-mark the
            # window and rerun the step sequence so steps 2/4 post them.
            # With nothing postable the re-sweep would find the window
            # already at this loop's fixpoint (grants/dones sent here
            # only land via future deliveries, which re-mark on arrival),
            # so it is skipped as a structural no-op.
            self.mark_dirty(ws)
            self._resweep = True
        ws.retire_closed()
        return progressed

    def _advance_epoch(self, ws: WindowState, ep: Epoch) -> bool:
        """Move one active epoch toward completion; True if it completed.
        A closed access epoch tests only its due targets: the others
        were found not ready last time and nothing of theirs moved."""
        self.epochs_examined += 1
        if ep.kind is EpochKind.GATS_ACCESS:
            if ep.app_closed:
                done_sent = ep.done_sent
                for target in ep.take_due_targets():
                    self.targets_examined += 1
                    if (
                        target not in done_sent
                        and (ep.nocheck or self._access_granted(ws, ep, target))
                        and not ep.pending_to(target)
                    ):
                        self._send_done(ws, ep, target)
                if len(done_sent) == len(ep.targets):
                    self._complete_epoch(ws, ep)
                    return True
            return False

        if ep.kind in (EpochKind.LOCK, EpochKind.LOCK_ALL):
            if ep.app_closed:
                if ep.nocheck:
                    # No lock was taken: the epoch completes when its
                    # transfers do; there is nothing to release.
                    if ep.unissued_count == 0 and ep.undelivered == 0:
                        self._complete_epoch(ws, ep)
                        return True
                    return False
                for target in ep.take_due_targets():
                    self.targets_examined += 1
                    if (
                        target not in ep.unlock_sent
                        and ep.lock_held.get(target, False)
                        and not ep.pending_to(target)
                    ):
                        self._send(
                            target,
                            self.model.control_bytes,
                            UnlockPacket(
                                ws.gid, origin=self.rank, access_id=ep.access_ids[target]
                            ),
                            ServiceKind.CONTROL,
                            needs_attention=True,
                        )
                        ep.unlock_sent.add(target)
                if len(ep.unlock_acked) == len(ep.targets):
                    self._complete_epoch(ws, ep)
                    return True
            return False

        if ep.kind is EpochKind.GATS_EXPOSURE:
            return self._advance_exposure(ws, ep)

        if ep.kind is EpochKind.FENCE:
            if ep.app_closed and ep.unissued_count == 0 and ep.undelivered == 0:
                if not ep.fence_done_sent:
                    self._broadcast_fence_done(ws, ep)
                self.targets_examined += 1
                if self._fence_done_reached(ws, ep):
                    self._complete_epoch(ws, ep)
                    return True
            return False

        raise AssertionError(f"unhandled epoch kind {ep.kind}")

    def _advance_exposure(self, ws: WindowState, ep: Epoch) -> bool:
        """Exposure completion test: every origin's done is in — counted
        as each landed, so one compare with the group size."""
        self.targets_examined += 1
        if len(ep.done_from) != len(ep.peers):
            return False
        if ws.checker is not None:
            assert all(self._done_arrived(ws, ep, o) for o in ep.peers), ep
        self._complete_epoch(ws, ep)
        return True

    # =====================================================================
    # Flushes
    # =====================================================================
    def make_flush(
        self, win: "Window", ep: Epoch, target: int | None, local: bool
    ) -> FlushRequest:
        """The nonblocking flush of §V/§VII-C: age-stamped counter."""
        ws = self.state_of(win)
        checker = ws.checker
        if checker is not None:
            checker.on_flush(ws, ep)
        stamp = ws.age_counter
        pending = sum(
            1
            for op in ep.undelivered_ops(target)
            if op.age <= stamp and not (local and op.local_done)
        )
        req = FlushRequest(self.sim, ep, stamp, target, local, pending)
        if not req.done:
            ws.flushes.append(req)
            self.mark_dirty(ws)
        self.poke()
        return req
