"""The paper's redesigned RMA engine (§VI–§VII): the one progress class
every registered engine is.

It serves both the "New" (blocking synchronization calls) and "New
nonblocking" (``MPI_WIN_I*``) test series: blocking routines are the
nonblocking ones plus an internal wait (§VII-C), so the engine only ever
sees the nonblocking shape.  The other engines subclass it and differ
only in *policy*: the MVAPICH-style baseline
(:mod:`~repro.rma.engine.mvapich`) is three timing rules, the
counter-signal engine (:mod:`~repro.rma.engine.signal`) a wire encoding.
Everything mechanical — packet reception, data application at targets,
lock hosting, the notification FIFO and op completion fan-out — is here
once, so measured differences between engines are purely
synchronization design.

Deferred epochs (§VII-A)
    Epoch objects are created inactive.  The activation scan
    (:meth:`~NonblockingEngine._try_activate`) encodes the §VI rules:
    serial activation in open order, no skipping, ``E_{k+1}`` activates
    only after ``E_k`` completes unless a §VI-B reorder flag allows
    concurrency (never across fence / lock_all epochs).  Deferred epochs
    record their communication calls and replay them on activation.

Epoch matching (§VII-B)
    Written once over the window's counter board
    (:mod:`repro.rma.notify`): every announcement goes through
    :meth:`~NonblockingEngine._notify`.  A target that grants access to
    an origin several epochs late leaves a persistent trace in the
    monotonically increasing inbound grant counter.  What a subclass may
    change is the *wire encoding* — ``_transmit`` (which packet carries a
    counter value), the receive handlers that turn it back into
    ``(channel, peer, value)`` — and two numbering rules,
    ``lock_channel`` / ``done_by_id``.  This class carries ω's:
    ``GrantUpdate`` / done / fence packets.

Eager per-target issue (§VIII-B)
    Transfers to any granted target are issued right away (internode
    before intranode within a sweep, per the step ordering), unlike the
    baseline's all-targets-ready gating.

The 7-step progress loop (§VII-D)
    :meth:`~NonblockingEngine._sweep` runs the documented step sequence
    over the dirty windows and their ready sets (the wake-up table is in
    docs/PERFORMANCE.md).  Step 1 (completion verification) is subsumed
    by completion callbacks, but the structural order — completions
    before posts, batch completion both before and after intranode work,
    notification consumption feeding the lock backlog — is preserved.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ...mpi.errors import RmaInternalError, RmaUsageError
from ...network.packets import ServiceKind
from ...network.shmem import NotifyKind, decode_checked
from ..epoch import LOCK_HELD, UNLOCK_ACKED, UNLOCK_SENT, Epoch, EpochKind
from ..notify import SignalChannel
from ..ops import OpKind, RmaOp
from ..packets import (
    AccRendezvousCts,
    AccRendezvousRts,
    AccumulateData,
    AtomicRequest,
    DonePacket,
    FenceDone,
    FenceOpen,
    GetRequest,
    GetResponse,
    GrantUpdate,
    LockRequestPacket,
    PutData,
    RmaPayload,
    UnlockAck,
    UnlockPacket,
)
from ..requests import ClosingRequest, FlushRequest
from ..state import NO_WAKEUPS, NOTHING, WindowState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...mpi.runtime import MPIRuntime
    from ..locks import LockWaiter
    from ..window import Window

__all__ = ["NonblockingEngine", "pack_win_value", "unpack_win_value"]

# 64-bit notification value packing: [6-bit window gid | 30-bit id].
_WIN_BITS = 6
_ID_MASK = (1 << 30) - 1

_GRANT = SignalChannel.GRANT
_DONE = SignalChannel.DONE
_FENCE_OPEN = SignalChannel.FENCE_OPEN
_FENCE_DONE = SignalChannel.FENCE_DONE
_RDMA = ServiceKind.RDMA
_CONTROL = ServiceKind.CONTROL

#: Sort key of the ready sets: application open order within a window.
_uid = attrgetter("uid")

#: Board channel -> the epoch kind whose predicates read its inbound
#: row: the arrival rows of the wake-up table.
_WOKEN = {
    _GRANT: EpochKind.GATS_ACCESS,
    _DONE: EpochKind.GATS_EXPOSURE,
    _FENCE_OPEN: EpochKind.FENCE,
    _FENCE_DONE: EpochKind.FENCE,
}


def pack_win_value(gid: int, ident: int) -> int:
    """Pack (window gid, id) into a 36-bit notification value."""
    if gid >= (1 << _WIN_BITS):
        raise ValueError(f"window gid {gid} does not fit in {_WIN_BITS} bits")
    if ident > _ID_MASK:
        raise ValueError(f"id {ident} does not fit in 30 bits")
    return (gid << 30) | ident


def unpack_win_value(value: int) -> tuple[int, int]:
    """Inverse of :func:`pack_win_value`."""
    return value >> 30, value & _ID_MASK


class NonblockingEngine:
    """Per-rank deferred-epoch, fully nonblocking RMA progress engine."""

    __slots__ = (
        "runtime", "rank", "sim", "fabric", "model", "states", "_sweeping", "_dirty",
        "sweep_count", "epochs_examined", "targets_examined", "pairs_ready",
        "pairs_waiting", "profiler", "causal", "_explore", "fifo", "_node_lo", "_node_hi",
    )

    #: Whether the proposed MPI_WIN_I* API is available.
    supports_nonblocking: bool = True

    #: Whether the foMPI-style notified-access surface is available
    #: (``Window.signal``/``notify_wait``/``put_notify``/``get_notify``
    #: and request-based ops inside active-target epochs) — only the
    #: counter-signal engine provides it.
    supports_notified_access: bool = False

    # The two numbering rules of a wire encoding (class constants: an
    # engine *is* its encoding; not settable per run or per window).
    #: Channel a lock grant advances and a lock epoch reserves on.  ω
    #: folds it into GRANT — "the host process of a lock still updates
    #: e_l locally and g_r remotely" (§VII-B) — so a lock grant moves the
    #: counter GATS accesses toward that host match on (the hazard
    #: ``test_shared_grant_counter_hazard_seed`` pins).
    lock_channel: SignalChannel = _GRANT
    #: Whether a done carries its epoch's access id and an exposure
    #: expects the id of the grant it issued (ω), or DONE is a count of
    #: its own.  They differ once a reorder flag lets a later epoch's
    #: done overtake an earlier one's: an id floor covers both exposures.
    done_by_id: bool = True

    #: Whether opening or completing an epoch requests the §VII-A
    #: activation scan (the baseline activates at calls and has none).
    activation_scan: bool = True

    #: §VII-A activation gate: the deferred-epoch scan stops at the first
    #: epoch that fails its activation conditions, so E_{k+1} can never
    #: activate before E_k unless a reorder flag allows it.  Test-only
    #: mutation switch — :func:`repro.explore.mutation.activation_gate_disabled`
    #: flips it to let the schedule explorer prove it can catch the
    #: resulting ordering bug.  Never clear this in production code.
    _activation_gate = True

    def __init__(self, runtime: "MPIRuntime", rank: int):
        self.runtime = runtime
        self.rank = rank
        self.sim = runtime.sim
        self.fabric = runtime.fabric
        self.model = runtime.fabric.model
        #: WindowState per window gid.
        self.states: dict[int, WindowState] = {}
        self._sweeping = False
        #: Dirty-window worklist, gid -> WindowState; empty outside
        #: :meth:`poke`.  A window is on it only while one of its ready
        #: sets holds something (:meth:`_mark_if_due`): one with none is
        #: at a fixed point, so skipping it cannot alter the virtual-time
        #: schedule.  Drained in gid order, the relative order the
        #: historical full scan visited the same (effectful) windows in.
        self._dirty: dict[int, WindowState] = {}
        #: Sweeps (an exact count; window visits are ``windows_visited``).
        self.sweep_count = 0
        #: Epoch examinations: one per ``_advance_epoch`` call and one per
        #: (epoch, target) readiness test (exact and machine-independent).
        self.epochs_examined = 0
        #: Completion tests inside those examinations: one per (epoch,
        #: target) done / unlock test and one per group-predicate
        #: evaluation (exposure, fence).  Exact like the above.
        self.targets_examined = 0
        #: Steps 2/4 readiness tests of due (epoch, target) pairs, by
        #: outcome (§VII-B ω matching: one O(1) test per pair).
        self.pairs_ready = 0
        self.pairs_waiting = 0
        #: Opt-in step profiler (None unless ``MPIRuntime(metrics=True)``;
        #: every hook below is then one attribute check).
        self.profiler = getattr(runtime, "profiler", None)
        #: Causal span recorder (None unless ``causal`` or ``metrics``).
        self.causal = getattr(runtime, "causal", None)
        #: Schedule-exploration context (None outside repro.explore runs);
        #: feeds the delivered-notification multiset of the outcome digest.
        self._explore = getattr(runtime, "exploration", None)
        #: Hot-path caches, resolved once: this rank's 64-bit
        #: notification FIFO endpoint, and this rank's node span (block
        #: placement makes the same-node test ``lo <= peer < hi`` — O(1)
        #: per peer, no O(nranks) table).
        self.fifo = runtime.middlewares[rank].fifo
        topo = runtime.fabric.topology
        self._node_lo, self._node_hi = topo.node_span(rank)

    @property
    def windows_visited(self) -> int:
        """Per-sweep window visits: the sum of the windows' own counts."""
        return sum(ws.visits for ws in self.states.values())

    # -- wiring ---------------------------------------------------------------
    def register_window(self, win: "Window") -> None:
        """Create middleware state for a newly allocated window."""
        ws = WindowState(win, self._grant_lock)
        self.states[win.group.gid] = ws
        win._state = ws

    def state_of(self, win: "Window") -> WindowState:
        """State for a window owned by this rank."""
        return self.states[win.group.gid]

    # =====================================================================
    # §VII-D — the progress loop
    # =====================================================================
    def poke(self) -> None:
        """Sweep while a window is dirty or a notification is queued
        (re-entrant safe: a poke inside a sweep is answered by the loop)."""
        if self._sweeping:
            return
        self._sweeping = True
        try:
            while self._dirty or self.fifo._incoming:
                self._sweep()
        finally:
            self._sweeping = False

    def _sweep(self) -> None:
        """One progress pass over this rank's dirty windows."""
        # With the §VII-D profiler attached (``metrics=True``) each step
        # also reports its work count and wall-clock delta.
        prof = self.profiler
        dirty = self._take_dirty()
        t = perf_counter() if prof is not None else 0.0
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
        # Done with these: a window stays dirty only if it left work (the
        # internode pairs steps 3/7 made due wait for the next step 2),
        # not for a mid-sweep mark of work this sweep already did.
        for ws in merged:
            self._dirty.pop(ws.gid, None)
            self._mark_if_due(ws)

    # -- dirty-window worklist --------------------------------------------
    def _mark_if_due(self, ws: WindowState) -> None:
        """Put ``ws`` on the worklist if one of its ready sets holds
        something (every point that can fill one calls this after it)."""
        if ws.post_ready or ws.advance_ready or ws.activation_pending or ws.lock_backlog:
            self._dirty[ws.gid] = ws

    def _take_dirty(self) -> list[WindowState]:
        """Drain the worklist for one sweep, in gid order (the relative
        visit order of the historical every-window scan)."""
        self.sweep_count += 1
        dirty = self._dirty
        out = list(dirty.values()) if len(dirty) < 2 else [ws for _, ws in sorted(dirty.items())]
        dirty.clear()
        for ws in out:
            ws.visits += 1
        return out

    def _merge_marked(self, dirty: list[WindowState]) -> list[WindowState]:
        """Fold windows marked *during* this sweep (loopback deliveries,
        step-5 FIFO notifications) into the visit list for the remaining
        steps, preserving gid order.  The worklist itself is left intact:
        the end of the sweep keeps each window on it that still has work."""
        have = {w.gid for w in dirty}
        extra = [ws for gid, ws in sorted(self._dirty.items()) if gid not in have]
        if not extra:
            return dirty
        merged = dirty + extra
        merged.sort(key=lambda w: w.gid)
        for ws in extra:
            ws.visits += 1
        return merged

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
            self._activate(ws, ep, active_preceding)
            active_preceding.append(ep)
            activated += 1
        return activated

    def _activate(
        self, ws: WindowState, ep: Epoch, active_preceding: Sequence[Epoch] = ()
    ) -> None:
        ep.active = True
        ep.activate_time = self.sim.now
        # Due on activation, every target of it (``due_targets`` is still
        # None): it may have been closed while deferred (an exposure's
        # dones may even be in already), and every op recorded while
        # deferred is now postable.
        self._wake_advance(ws, ep)
        pairs = [(ep, target) for target in ep.unissued_targets()]
        if ws.post_ready:
            ws.post_ready.update(pairs)
        elif pairs:
            ws.post_ready = set(pairs)
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

    # =====================================================================
    # Ready-set wake-ups: every point where an epoch's predicate input
    # moves puts the epoch, or the (epoch, target) pair, into a ready set.
    # =====================================================================
    def _wake_post(self, ws: WindowState, ep: Epoch, target: int) -> None:
        """``ep``'s readiness toward ``target`` may have flipped: due if it
        did.  A pair still waiting is examined here (steps 2/4 would find
        it waiting) and re-woken by the arrival that readies it."""
        if not self._target_ready(ws, ep, target):
            self.epochs_examined += 1
            self.pairs_waiting += 1
        elif ws.post_ready:
            ws.post_ready.add((ep, target))
        else:
            ws.post_ready = {(ep, target)}

    def _wake_advance(self, ws: WindowState, ep: Epoch, target: int | None = None) -> None:
        """One of ``ep``'s completion conditions may have moved: the one
        toward ``target``, or (None) any of them."""
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
        if ws.advance_ready:
            ws.advance_ready.add(ep)
        else:
            ws.advance_ready = {ep}

    def _wake_peer(self, ws: WindowState, channel: SignalChannel, peer: int) -> None:
        """``peer`` moved this rank's inbound counter on ``channel`` (a
        grant / done / fence announcement landed): the active epochs
        whose predicates read it are due, toward ``peer`` only."""
        kind = _WOKEN[channel]
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
                    self._wake_advance(ws, ep)
            elif kind is EpochKind.FENCE:  # involves every peer
                if not ep.all_issued_to(peer):
                    self._wake_post(ws, ep, peer)
                # ``==``: a counter-signal update carries its channel as
                # a plain int.
                if channel == _FENCE_DONE:
                    self._fence_done_landed(ws, ep, peer)
                    self._wake_advance(ws, ep)
            elif peer in ep.peers and peer not in ep.done_sent:
                self._wake_target(ws, ep, peer)

    def _wake_target(self, ws: WindowState, ep: Epoch, target: int) -> None:
        """``target`` granted ``ep`` access: ops recorded toward it may
        post, and a closed epoch may send it its done / unlock."""
        if not ep.all_issued_to(target):
            self._wake_post(ws, ep, target)
        self._wake_advance(ws, ep, target)

    # =====================================================================
    # Op readiness and posting (steps 2/4)
    # =====================================================================
    def _target_ready(self, ws: WindowState, ep: Epoch, target: int) -> bool:
        if not ep.active:
            return False
        if ep.kind is EpochKind.GATS_ACCESS:
            # NOCHECK: the application guarantees the matching post has
            # already happened; skip the grant wait.
            return ep.nocheck or self._access_granted(ws, ep, target)
        if ep.kind in (EpochKind.LOCK, EpochKind.LOCK_ALL):
            return target in ep.lock_stage
        if ep.kind is EpochKind.FENCE:
            if target == self.rank:
                return True
            # Has ``target`` announced entering this fence round?
            return ws.board.reached(_FENCE_OPEN, target, ep.fence_round)
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
        if len(pairs) == len(due):
            ws.post_ready = NO_WAKEUPS
        else:
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
        posted = 0
        for ep, target in pairs:
            self.epochs_examined += 1
            if self._target_ready(ws, ep, target):
                self.pairs_ready += 1
                posted += self._issue_to(ws, ep, target)
            else:
                self.pairs_waiting += 1
        return posted

    def _issue_to(self, ws: WindowState, ep: Epoch, target: int) -> int:
        """Issue ``ep``'s unissued ops toward ``target``; returns the
        number issued."""
        ops = ep.take_unissued(target)
        for op in ops:
            self._issue_op(ws, op)
        return len(ops)

    # =====================================================================
    # Completion (steps 3/7)
    # =====================================================================
    def _complete_and_activate(self, ws: WindowState) -> int:
        """Steps 3/7: examine the due epochs (in open order) and rerun
        the activation scan while either has work; returns the number of
        epochs progressed (completed or activated)."""
        if not ws.advance_ready and not ws.activation_pending:
            return 0
        progressed = 0
        while ws.advance_ready or ws.activation_pending:
            due = ws.advance_ready
            if due:
                ws.advance_ready = NO_WAKEUPS
                for ep in sorted(due, key=_uid) if len(due) > 1 else due:
                    if ep.active and self._advance_epoch(ws, ep):
                        progressed += 1
            if ws.activation_pending:
                ws.activation_pending = False
                progressed += self._try_activate(ws)
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
                stage = ep.lock_stage
                for target in ep.take_due_targets():
                    self.targets_examined += 1
                    if stage.get(target) == LOCK_HELD and not ep.pending_to(target):
                        self.fabric.send(
                            self.rank, target, self.model.control_bytes,
                            UnlockPacket(ws.gid, origin=self.rank,
                                         access_id=ep.access_ids[target]),
                            _CONTROL, needs_attention=True,
                        )
                        stage[target] = UNLOCK_SENT
                if ep.unlocks_acked == len(ep.targets):
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
    # Packet reception
    # =====================================================================
    def on_packet(self, payload: Any, src: int) -> bool:
        """Route one fabric delivery; True when consumed."""
        if not isinstance(payload, RmaPayload):
            return False
        ws = self.states.get(payload.win)
        if ws is None:
            raise RuntimeError(f"rank {self.rank}: RMA packet for unknown window {payload.win}")
        self._PACKET_HANDLERS[type(payload)](self, ws, payload, src)
        self._mark_if_due(ws)
        return True

    # -- individual packet handlers ----------------------------------------
    def _on_put(self, ws: WindowState, p: PutData, src: int) -> None:
        if p.data is not None:
            ws.win.memory.write(p.target_disp, p.data)

    def _on_get_request(self, ws: WindowState, p: GetRequest, src: int) -> None:
        data = ws.win.memory.read(p.target_disp, p.nbytes)
        self.fabric.send(self.rank, src, p.nbytes,
                         GetResponse(ws.gid, p.op_uid, p.nbytes, data), _RDMA)

    def _on_get_response(self, ws: WindowState, p: GetResponse, src: int) -> None:
        op = ws.ops_by_uid.pop(p.op_uid)
        if not ws.ops_by_uid:
            ws.ops_by_uid = NOTHING
        if op.result_buf is not None and p.data is not None:
            dest = op.result_buf.view(np.uint8).reshape(-1)
            dest[: p.data.nbytes] = p.data.view(np.uint8).reshape(-1)
        self._op_delivered(ws, op)

    def _on_accumulate(self, ws: WindowState, p: AccumulateData, src: int) -> None:
        old: np.ndarray | None = None
        if p.data is not None:
            count = p.nbytes // p.dtype.size
            target_view = ws.win.memory.view(p.dtype, p.target_disp, count)
            if p.fetch:
                old = target_view.copy()
            p.reduce_op.apply(target_view, p.data.view(p.dtype.np_dtype))
        elif p.fetch:
            old = ws.win.memory.read(p.target_disp, p.nbytes)
        if p.fetch:
            self.fabric.send(self.rank, p.origin, p.nbytes,
                             GetResponse(ws.gid, p.op_uid, p.nbytes, old), _RDMA)

    def _on_acc_rts(self, ws: WindowState, p: AccRendezvousRts, src: int) -> None:
        # Host provides the intermediate buffer, then clears the sender.
        self.fabric.send(self.rank, p.origin, self.model.control_bytes,
                         AccRendezvousCts(ws.gid, p.op_uid), _CONTROL)

    def _on_acc_cts(self, ws: WindowState, p: AccRendezvousCts, src: int) -> None:
        op = ws.ops_by_uid[p.op_uid]
        if op.kind is OpKind.ACCUMULATE:
            del ws.ops_by_uid[p.op_uid]  # nothing else comes back for it
            if not ws.ops_by_uid:
                ws.ops_by_uid = NOTHING
        self._send_accumulate_payload(ws, op)

    def _on_atomic(self, ws: WindowState, p: AtomicRequest, src: int) -> None:
        view = ws.win.memory.view(p.dtype, p.target_disp, 1)
        old = view.copy()
        if p.data is not None:
            value = p.data.view(p.dtype.np_dtype)
            if p.compare is None:
                p.reduce_op.apply(view, value)
            elif old.reshape(-1)[0] == p.compare.view(p.dtype.np_dtype).reshape(-1)[0]:
                view.reshape(-1)[0] = value.reshape(-1)[0]
        self.sim.schedule(
            self.model.cas_processing, self.fabric.send, self.rank, p.origin,
            p.dtype.size + self.model.control_bytes,
            GetResponse(ws.gid, p.op_uid, p.dtype.size, old), _RDMA,
        )

    def _on_grant(self, ws: WindowState, p: GrantUpdate, src: int) -> None:
        board = ws.board
        granter = p.granter
        # Idempotent form: the packet carries its position in the
        # granter's grant stream, so replays cannot over-increment g.
        if not board.apply(_GRANT, granter, p.grant_seq):
            return
        if self.causal is not None:
            self.causal.instant("grant", rank=self.rank, win=ws.gid, meta={"granter": granter})
        if self._explore is not None:
            self._explore.record_notification(
                self.rank, "grant", granter, pack_win_value(ws.gid, p.grant_seq)
            )
        if p.lock_access_id is not None:
            ep = ws.lock_epochs.get((granter, p.lock_access_id))
            if ep is not None and granter not in ep.lock_stage:
                self._lock_held(ws, ep, granter)
        # g[granter] is shared: a lock grant advances the counter GATS
        # access epochs toward the same host compare against (A_i <= g_r).
        self._wake_peer(ws, _GRANT, granter)

    def _lock_held(self, ws: WindowState, ep: Epoch, target: int) -> None:
        """``ep``'s lock at ``target`` was granted."""
        ep.lock_stage[target] = LOCK_HELD
        start = ep.activate_time if ep.activate_time is not None else ep.open_time
        if start is not None and self.causal is not None:
            self.causal.wait(ep.uid, "lock_wait", start, self.sim.now)
        self._wake_target(ws, ep, target)

    def _on_done(self, ws: WindowState, p: DonePacket, src: int) -> None:
        self._done_landed(ws, p.origin, p.access_id)

    def _done_landed(self, ws: WindowState, origin: int, access_id: int) -> None:
        """An ω done (control packet or FIFO word) arrived.  A floor, not
        ``apply``: under the reorder flags dones land out of id order."""
        ws.board.floor_inbound(_DONE, origin, access_id)
        self._wake_peer(ws, _DONE, origin)
        if self._explore is not None:
            # One canonical form for both transports: the digest
            # multiset is transport-agnostic.
            self._explore.record_notification(
                self.rank, "done", origin, pack_win_value(ws.gid, access_id)
            )

    def _on_lock_traffic(self, ws: WindowState, p: LockRequestPacket | UnlockPacket,
                         src: int) -> None:
        if not ws.lock_backlog:
            ws.lock_backlog = deque()
        ws.lock_backlog.append(p)

    def _on_unlock_ack(self, ws: WindowState, p: UnlockAck, src: int) -> None:
        # A stale or replayed ack finds no entry: the first one popped it.
        ep = ws.lock_epochs.pop((src, p.access_id), None) if ws.lock_epochs else None
        if ep is not None:
            if not ws.lock_epochs:
                ws.lock_epochs = NOTHING
            ep.lock_stage[src] = UNLOCK_ACKED
            ep.unlocks_acked += 1
            self._wake_advance(ws, ep, src)

    def _on_fence_open(self, ws: WindowState, p: FenceOpen, src: int) -> None:
        ws.board.floor_inbound(_FENCE_OPEN, p.origin, p.round_no)
        self._wake_peer(ws, _FENCE_OPEN, p.origin)

    def _on_fence_done(self, ws: WindowState, p: FenceDone, src: int) -> None:
        ws.board.floor_inbound(_FENCE_DONE, p.origin, p.round_no)
        self._wake_peer(ws, _FENCE_DONE, p.origin)

    _PACKET_HANDLERS = {
        PutData: _on_put,
        GetRequest: _on_get_request,
        GetResponse: _on_get_response,
        AccumulateData: _on_accumulate,
        AccRendezvousRts: _on_acc_rts,
        AccRendezvousCts: _on_acc_cts,
        AtomicRequest: _on_atomic,
        GrantUpdate: _on_grant,
        DonePacket: _on_done,
        LockRequestPacket: _on_lock_traffic,
        UnlockPacket: _on_lock_traffic,
        UnlockAck: _on_unlock_ack,
        FenceOpen: _on_fence_open,
        FenceDone: _on_fence_done,
    }

    # =====================================================================
    # Notification FIFO (intranode epoch-completion packets, step 5)
    # =====================================================================
    def _consume_notifications(self) -> int:
        """Step 5: drain this rank's 64-bit FIFO; returns packets drained.

        Every packet is an epoch completion, authenticated by
        :func:`~repro.network.shmem.decode_checked`.  Each one is popped
        and consumed before the next is decoded, so honest packets queued
        ahead of a forged one take effect even when the forged one then
        raises.
        """
        fifo = self.fifo
        states = self.states
        count = 0
        while fifo._incoming:
            packet, src = fifo._incoming.popleft()
            _kind, sender, value = decode_checked(packet, src)
            count += 1
            gid, ident = unpack_win_value(value)
            ws = states[gid]
            self._done_landed(ws, sender, ident)
            self._mark_if_due(ws)
        fifo._incoming = ()
        return count

    # =====================================================================
    # The matching protocol (one copy, over ``ws.board``)
    # =====================================================================
    def _notify(self, ws: WindowState, channel: SignalChannel, peer: int,
                value: int | None = None, **wire: Any) -> int:
        """Advance this rank's outbound counter toward ``peer`` — by one,
        or up to ``value`` on the id- and round-valued channels — and put
        the new value on the wire.  ``wire`` is context only an encoding
        may need (the epoch of a done, the access id of a lock grant)."""
        board = ws.board
        if value is None:
            value = board.bump_outbound(channel, peer)
        else:
            board.raise_outbound(channel, peer, value)
        self._transmit(ws, channel, peer, value, **wire)
        return value

    def _transmit(self, ws: WindowState, channel: SignalChannel, peer: int, value: int,
                  epoch: Epoch | None = None, lock_access_id: int | None = None) -> None:
        """The ω wire encoding: which packet carries ``value``."""
        if channel is _GRANT:
            # ``e++`` locally (done by the caller), ``g++`` remotely: one
            # 8-byte RDMA write; a lock grant names the epoch it is for.
            self.fabric.send(
                self.rank, peer, 8,
                GrantUpdate(ws.gid, granter=self.rank, lock_access_id=lock_access_id,
                            grant_seq=value),
                _RDMA,
            )
        elif channel is _DONE:
            # Intranode dones ride the 64-bit FIFO (§VII-D); internode
            # dones are control packets.
            if self._node_lo <= peer < self._node_hi:
                self.fifo.send(peer, NotifyKind.EPOCH_COMPLETE, pack_win_value(ws.gid, value))
                if self.causal is not None:
                    # FIFO dones never cross the fabric, so they get their
                    # own (zero-duration) span here.
                    self.causal.instant(
                        "done.fifo", rank=self.rank, win=ws.gid, epoch=epoch.uid,
                        meta={"target": peer},
                    )
            else:
                self.fabric.send(self.rank, peer, self.model.control_bytes,
                                 DonePacket(ws.gid, origin=self.rank, access_id=value), _CONTROL)
        elif channel is _FENCE_OPEN or channel is _FENCE_DONE:
            packet = FenceOpen if channel is _FENCE_OPEN else FenceDone
            self.fabric.send(self.rank, peer, self.model.control_bytes,
                             packet(ws.gid, origin=self.rank, round_no=value), _CONTROL)
        else:
            raise RmaInternalError(
                f"the ω encoding has no packet for channel {SignalChannel(channel).name}"
            )

    def _enroll_access(self, ws: WindowState, ep: Epoch) -> None:
        """Enter an activating access-side epoch into the matching
        protocol: reserve the next value per target (``A_i = ++a_l``,
        §VII-B) — under a NOCHECK start too: the exposure side grants
        unconditionally, so a non-consuming epoch would misalign every
        later one.  Passive-target kinds reserve on ``lock_channel`` and
        ship their lock request, which echoes the reservation — unless
        NOCHECK: then there is no acquisition protocol at all, the epoch
        neither enters the counter stream nor touches the target's lock
        manager."""
        passive = ep.kind is not EpochKind.GATS_ACCESS
        if passive and ep.nocheck:
            for target in ep.targets:
                ep.lock_stage[target] = LOCK_HELD
            return
        board = ws.board
        channel = self.lock_channel if passive else _GRANT
        for target in ep.targets:
            ep.access_ids[target] = access_id = board.bump_expected(channel, target)
            if passive:
                if ws.lock_epochs:
                    ws.lock_epochs[target, access_id] = ep
                else:
                    ws.lock_epochs = {(target, access_id): ep}
                self.fabric.send(
                    self.rank, target, self.model.control_bytes,
                    LockRequestPacket(
                        ws.gid, origin=self.rank, exclusive=ep.exclusive, access_id=access_id
                    ),
                    _CONTROL, needs_attention=True,
                )

    def _enroll_exposure(self, ws: WindowState, ep: Epoch) -> None:
        """Enter an activating exposure epoch: grant every origin
        (``e++`` locally, ``g++`` remotely) and fix the DONE value that
        completes the exposure toward it.  A done can be in already (a
        NOCHECK origin, or this epoch deferred behind another): count
        those now, later ones are counted as they land."""
        board = ws.board
        by_id = self.done_by_id
        for origin in ep.origin_group:
            grant = self._notify(ws, _GRANT, origin)
            ep.exposure_ids[origin] = grant if by_id else board.bump_expected(_DONE, origin)
        ep.done_from.update(o for o in ep.peers if self._done_arrived(ws, ep, o))

    def _access_granted(self, ws: WindowState, ep: Epoch, target: int) -> bool:
        """The O(1) matching test ``A_i <= g_r``."""
        return ws.board.reached(_GRANT, target, ep.access_ids[target])

    def _done_arrived(self, ws: WindowState, ep: Epoch, origin: int) -> bool:
        """Whether ``origin``'s done for this exposure epoch is in."""
        return ws.board.reached(_DONE, origin, ep.exposure_ids[origin])

    def _send_done(self, ws: WindowState, epoch: Epoch, target: int) -> None:
        """Access-epoch completion notification to one target."""
        access_id = epoch.access_ids[target] if self.done_by_id else None
        self._notify(ws, _DONE, target, access_id, epoch=epoch)
        epoch.done_sent.add(target)

    # -- fence rounds over the board ------------------------------------------
    def _broadcast_fence_open(self, ws: WindowState, round_no: int) -> None:
        # Fence channels carry the round number itself (a floor, not a
        # count): re-announcements of the same round are idempotent.
        for peer in ws.win.group.ranks:
            if peer != self.rank:
                self._notify(ws, _FENCE_OPEN, peer, round_no)

    def _broadcast_fence_done(self, ws: WindowState, epoch: Epoch) -> None:
        for peer in ws.win.group.ranks:
            if peer != self.rank:
                self._notify(ws, _FENCE_DONE, peer, epoch.fence_round)
        epoch.fence_done_sent = True

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
        if ws.board.reached(_FENCE_DONE, peer, ep.fence_round):
            ep.done_from.add(peer)

    def _fence_done_reached(self, ws: WindowState, ep: Epoch) -> bool:
        """Barrier test for a closing fence: every peer completed the
        round — counted as each landed, so one compare, no O(nranks)
        peer set per examination."""
        if len(ep.done_from) != len(ws.win.group.ranks) - 1:
            return False
        if ws.checker is not None:
            assert all(ws.board.reached(_FENCE_DONE, p, ep.fence_round)
                       for p in ws.win.group.ranks if p != self.rank), ep
        return True

    # =====================================================================
    # Lock hosting (target side)
    # =====================================================================
    def _grant_lock(self, ws: WindowState, waiter: "LockWaiter") -> None:
        """Lock-manager grant callback: one ``lock_channel`` update.  The
        lock manager is FIFO and an origin's requests arrive in program
        order, so the host's k-th update toward an origin answers that
        origin's k-th reservation on the channel (the ω packet names it
        too: ``lock_access_id``)."""
        checker = ws.checker
        if checker is not None:
            checker.on_lock_grant(ws, waiter)
        self._notify(ws, self.lock_channel, waiter.origin, lock_access_id=waiter.access_id)

    def _process_lock_backlog(self, ws: WindowState) -> int:
        """Step 6: batch-process queued lock/unlock requests; returns the
        number of backlog entries consumed."""
        checker = ws.checker
        processed = 0
        while ws.lock_backlog:
            packet = ws.lock_backlog.popleft()
            processed += 1
            if type(packet) is LockRequestPacket:
                ws.lock_mgr.request(packet.origin, packet.exclusive, packet.access_id)
            else:
                if not ws.lock_mgr.holds(packet.origin):
                    # Unlock without lock: with the checker this is a
                    # structured LOCK_MISUSE violation (report mode skips
                    # the release and still acks so the origin does not
                    # hang); without it, the lock manager's own error
                    # propagates as before.
                    if checker is not None:
                        checker.on_unlock_without_hold(ws, packet.origin)
                    else:
                        ws.lock_mgr.release(packet.origin)
                else:
                    # Quiescence must be judged *before* release(): the
                    # FIFO manager grants the next waiter inside it.  The
                    # origin holds, so quiesced is "the only holder".
                    quiesced = checker is not None and ws.lock_mgr.holder_count == 1
                    ws.lock_mgr.release(packet.origin)
                    if checker is not None:
                        checker.on_lock_release(ws, packet.origin, quiesced=quiesced)
                self.fabric.send(self.rank, packet.origin, self.model.control_bytes,
                                 UnlockAck(ws.gid, access_id=packet.access_id), _CONTROL)
        ws.lock_backlog = ()
        return processed

    # =====================================================================
    # Op issuing and completion
    # =====================================================================
    def _issue_op(self, ws: WindowState, op: RmaOp) -> None:
        """Put one recorded op on the wire."""
        assert op.issue_time is None, f"double issue of {op}"
        checker = ws.checker
        if checker is not None:
            checker.on_op_issue(ws, op.epoch, op)
        op.issue_time = self.sim.now
        causal = self.causal
        if causal is not None:
            # The op span is the causal parent of every message the op
            # puts on the wire: enter it for the issue body, restore the
            # caller's context at the end of this method.
            op.causal_sid = causal.begin(
                "op", rank=self.rank, win=ws.gid, epoch=op.epoch.uid,
                meta={"op": op.kind.value, "target": op.target,
                      "nbytes": op.nbytes},
            )
            _prev_ctx = causal.current
            causal.current = op.causal_sid

        if op.kind is OpKind.PUT:
            payload = PutData(ws.gid, op.uid, op.target_disp, op.nbytes, op.data)
            ticket = self.fabric.send(self.rank, op.target, op.nbytes, payload, _RDMA,
                                      pin_region=(op.target_disp, op.nbytes))
            ticket.on_local_complete(self._op_local, ws, op)
            ticket.on_delivered(self._op_delivered, ws, op)
        elif op.kind in (OpKind.ACCUMULATE, OpKind.GET_ACCUMULATE):
            rendezvous = self.model.accumulate_needs_rendezvous(op.nbytes)
            if rendezvous or op.kind is OpKind.GET_ACCUMULATE:
                ws.expect_reply(op)  # a CTS or the result comes back
            if rendezvous:
                self.fabric.send(
                    self.rank, op.target, self.model.control_bytes,
                    AccRendezvousRts(ws.gid, op.uid, self.rank, op.nbytes), _CONTROL,
                    needs_attention=True,
                )
            else:
                self._send_accumulate_payload(ws, op)
        else:
            # GET, FETCH_AND_OP, COMPARE_AND_SWAP: a request the target
            # answers with a GetResponse; no separate local phase.
            ws.expect_reply(op)
            if op.kind is OpKind.GET:
                nbytes = self.model.control_bytes
                payload = GetRequest(ws.gid, op.uid, self.rank, op.target_disp, op.nbytes)
            else:
                nbytes = self.model.control_bytes + (1 if op.compare is None else 2) * op.dtype.size
                payload = AtomicRequest(ws.gid, op.uid, self.rank, op.target_disp, op.dtype,
                                        op.reduce_op, op.data, op.compare)
            self.fabric.send(self.rank, op.target, nbytes, payload, _CONTROL)
            self.sim.schedule(0.0, self._op_local, ws, op)
        if causal is not None:
            causal.current = _prev_ctx

    def _send_accumulate_payload(self, ws: WindowState, op: RmaOp) -> None:
        fetch = op.kind is OpKind.GET_ACCUMULATE
        payload = AccumulateData(
            ws.gid, op.uid, op.target_disp, op.nbytes, op.dtype, op.reduce_op, op.data,
            fetch=fetch, origin=self.rank,
        )
        ticket = self.fabric.send(self.rank, op.target, op.nbytes, payload, _RDMA,
                                  pin_region=(op.target_disp, op.nbytes))
        ticket.on_local_complete(self._op_local, ws, op)
        if not fetch:
            ticket.on_delivered(self._op_delivered, ws, op)

    def _op_local(self, ws: WindowState, op: RmaOp) -> None:
        """Origin-buffer-reusable event (step-1 completion verification).
        It is MPI local completion only for ops that bear no result: a
        get-like op's result buffer is reusable once the result lands
        (MPI-3.1 §11.5.4), which :meth:`_op_delivered` reports.  No
        ready set moves, so no sweep is due."""
        if op.local_time is not None:
            return
        op.local_time = self.sim.now
        prof = self.profiler
        if prof is not None:
            prof.tally(1)
        if op.result_buf is None:
            ws.notify_flushes(op, local=True)
            if op.request is not None and not op.request.done:
                op.request.complete()

    def _op_delivered(self, ws: WindowState, op: RmaOp) -> None:
        """Remote-completion event (applied at target / result at origin)."""
        if op.deliver_time is not None:
            return
        op.deliver_time = self.sim.now
        if op.epoch.mark_delivered(op):
            self._wake_advance(ws, op.epoch, op.target)
            self._mark_if_due(ws)
        prof = self.profiler
        if prof is not None:
            prof.tally(1)
        if self.causal is not None:
            self.causal.op_delivered(op)
        if op.local_time is None:
            # Remote completion implies local.
            op.local_time = self.sim.now
            ws.notify_flushes(op, local=True)
        elif op.result_buf is not None:
            # The result landed: the op is locally complete only now.
            ws.notify_flushes(op, local=True)
        ws.notify_flushes(op, local=False)
        if op.request is not None and not op.request.done:
            op.request.complete()
        self.poke()

    # =====================================================================
    # Epoch lifecycle API (called by the Window facade).  Every epoch is
    # created inactive and opened the same way (§VII-A, §VII-C); when it
    # activates is the engine's policy.
    # =====================================================================
    def open_fence(self, win: "Window") -> Epoch:
        ws = self.state_of(win)
        ws.fence_round += 1
        ep = Epoch(
            EpochKind.FENCE, ws.gid, self.rank, targets=tuple(win.group.ranks),
            fence_round=ws.fence_round,
        )
        return self._open_epoch(ws, ep)

    def open_gats_access(
        self, win: "Window", group: tuple[int, ...], nocheck: bool = False
    ) -> Epoch:
        ws = self.state_of(win)
        ep = Epoch(EpochKind.GATS_ACCESS, ws.gid, self.rank, targets=group, nocheck=nocheck)
        return self._open_epoch(ws, ep)

    def open_exposure(self, win: "Window", group: tuple[int, ...]) -> Epoch:
        ws = self.state_of(win)
        ep = Epoch(EpochKind.GATS_EXPOSURE, ws.gid, self.rank, origin_group=group)
        return self._open_epoch(ws, ep)

    def open_lock(
        self, win: "Window", target: int, exclusive: bool, nocheck: bool = False
    ) -> Epoch:
        ws = self.state_of(win)
        ep = Epoch(
            EpochKind.LOCK, ws.gid, self.rank, targets=(target,), exclusive=exclusive,
            nocheck=nocheck,
        )
        return self._open_epoch(ws, ep)

    def open_lock_all(self, win: "Window", nocheck: bool = False) -> Epoch:
        ws = self.state_of(win)
        ep = Epoch(
            EpochKind.LOCK_ALL, ws.gid, self.rank, targets=tuple(win.group.ranks),
            exclusive=False, nocheck=nocheck,
        )
        return self._open_epoch(ws, ep)

    def close_epoch(self, win: "Window", ep: Epoch) -> ClosingRequest:
        """The closing routine of every epoch kind."""
        return self._close_epoch(self.state_of(win), ep)

    def _open_epoch(self, ws: WindowState, ep: Epoch) -> Epoch:
        ep.open_time = self.sim.now
        ws.epochs.append(ep)
        if self.activation_scan:
            ws.activation_pending = True
        if self.causal is not None:
            self.causal.epoch_open(self.rank, ws.gid, ep)
        self._mark_if_due(ws)
        self.poke()
        return ep

    def _close_epoch(self, ws: WindowState, ep: Epoch) -> ClosingRequest:
        if ep.app_closed:
            raise RmaUsageError(f"epoch {ep} closed twice")
        ep.app_closed = True
        ep.close_call_time = self.sim.now
        req = ClosingRequest(self.sim, ep)
        if ep.completed:
            req.complete()
            ws.retire_closed()
        else:
            ep.closing_request = req  # until completion: no lasting cycle
            self._wake_advance(ws, ep)
            self._mark_if_due(ws)
            self.poke()
        return req

    def _complete_epoch(self, ws: WindowState, ep: Epoch) -> None:
        ep.active, ep.completed = False, True
        ep.complete_time = self.sim.now
        if self.activation_scan:
            ws.activation_pending = True
        if self.causal is not None:
            self.causal.epoch_complete(self.rank, ws.gid, ep)
        checker = ws.checker
        if checker is not None:
            checker.on_epoch_complete(ws, ep)
        req = ep.closing_request
        if req is not None:
            ep.closing_request = None
            req.complete()

    def test_exposure(self, win: "Window", ep: Epoch) -> bool:
        """MPI_WIN_TEST: nonblocking completion probe of an exposure."""
        self.poke()
        return ep.completed

    def add_op(self, win: "Window", ep: Epoch, op: RmaOp) -> RmaOp:
        """Record one RMA call in its epoch; engine policy decides when
        it is issued."""
        ws = self.state_of(win)
        ep.last_call_time = self.sim.now
        ep.record_op(op)
        if ep.active:
            self._wake_post(ws, ep, op.target)
        if op.request is not None:
            self._activate_lock(ws, ep)
        if not self._issue_direct(ws, ep, op.target):
            self._mark_if_due(ws)
            self.poke()
        return op

    def _issue_direct(self, ws: WindowState, ep: Epoch, target: int) -> bool:
        """Issue a just-recorded op at once if its pair is this rank's only
        due entry and its target remote (no loopback re-entry): a sweep
        would post it in step 2 or 4 and find every other step empty."""
        due = ws.post_ready
        if (len(due) != 1 or self._dirty or self.fifo._incoming or self._sweeping
                or target == self.rank or ws.advance_ready or ws.activation_pending
                or ws.lock_backlog or (ep, target) not in due):
            return False
        ws.post_ready = NO_WAKEUPS
        self.epochs_examined += 1
        self.pairs_ready += 1
        posted = self._issue_to(ws, ep, target)
        prof = self.profiler
        if prof is not None:
            prof.tally(4 if self._node_lo <= target < self._node_hi else 2, posted)
        return True

    def next_age(self, win: "Window") -> int:
        """Allocate an RMA-call age (§VII-C flush stamping)."""
        return self.state_of(win).next_age()

    def discard_fence(self, win: "Window", ep: Epoch) -> None:
        """Drop an empty fence epoch under MODE_NOPRECEDE: no barrier,
        no notifications — the epoch simply never existed internally."""
        ws = self.state_of(win)
        ep.app_closed = True
        self._complete_epoch(ws, ep)
        ws.retire_closed()
        self._mark_if_due(ws)
        self.poke()

    # =====================================================================
    # Flushes (§V/§VII-C).  Every flush is the age-stamped request; a
    # blocking one is that request plus a wait in the Window facade.
    # =====================================================================
    def _activate_lock(self, ws: WindowState, ep: Epoch) -> None:
        """Hook: the application may wait on ``ep``'s ops before closing it
        (a flush, or an op that carries a request).  The lazy baseline
        acquires its lock here (as real MVAPICH does); the redesigned
        engine needs nothing."""

    def make_flush(
        self, win: "Window", ep: Epoch, target: int | None, local: bool
    ) -> FlushRequest:
        """The flush: a counter of the ops stamped at or before the call
        that are not yet complete (locally, for ``local``: an op bearing
        a result counts until it is delivered)."""
        ws = self.state_of(win)
        checker = ws.checker
        if checker is not None:
            checker.on_flush(ws, ep)
        self._activate_lock(ws, ep)
        stamp = ws.age_counter
        pending = sum(
            1
            for op in ep.undelivered_ops(target)
            if op.age <= stamp and not (local and op.local_time is not None
                                        and op.result_buf is None)
        )
        req = FlushRequest(self.sim, ep, stamp, target, local, pending)
        if not req.done:
            if ws.flushes:
                ws.flushes.append(req)
            else:
                ws.flushes = [req]
        self.poke()
        return req
