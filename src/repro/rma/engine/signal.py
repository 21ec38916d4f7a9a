"""The counter-signal engine: mscclpp-style epoch ids + notified access.

Same deferred-epoch activation policy, 7-step progress loop, eager
per-target issue and dirty-window worklists as
:class:`~repro.rma.engine.nonblocking.NonblockingEngine` — only the
epoch *matching protocol* differs.  Where the ω engines track accesses
requested / exposures opened / accesses granted and exchange
GrantUpdate / DonePacket / FenceOpen / FenceDone control traffic, this
engine keeps one :class:`~repro.rma.notify.SignalBoard` of per-(channel,
peer) monotonic 64-bit counters per window and delivers every
synchronization event as a single one-sided 8-byte
:class:`~repro.rma.packets.SignalUpdate` write — ``signal()`` /
``wait(expected)`` in the style of mscclpp's ``epoch.hpp``.

Soundness hinges on two properties the rest of the stack already
provides:

- **Per-pair FIFO lanes.**  Same-pair, same-service packets arrive in
  send order, so within one (channel, pair) the k-th signal sent is the
  k-th applied; counter values are schedule-independent.
- **Program-order enrollment.**  Epochs activate serially (§VII-A), so
  the k-th access epoch toward a peer reserves expected value k — which
  MPI's matched synchronization guarantees is the peer's k-th signal.

On top of the epoch channels, the engine exposes the foMPI-style
notified-access surface (``Window.signal``/``notify_wait``,
``put_notify``/``get_notify``): application-level signals ride the
NOTIFY channel, and a ``put_notify`` whose notification targets the
put's own target sends data + signal back-to-back on the same RDMA lane
— the one-shot ordering trick that makes notified access cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...network.packets import ServiceKind
from ..epoch import Epoch, EpochKind
from ..notify import SignalBoard, SignalChannel
from ..ops import OpKind, RmaOp
from ..packets import LockRequestPacket, SignalUpdate
from ..state import WindowState
from .nonblocking import NonblockingEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...mpi.requests import Request
    from ..locks import LockWaiter
    from ..window import Window

__all__ = ["SignalEngine"]


#: Channel -> (epoch kind whose predicates read it, whether it moves a
#: completion condition too or only target readiness).
_WOKEN = {
    SignalChannel.GRANT: (EpochKind.GATS_ACCESS, True),
    SignalChannel.DONE: (EpochKind.GATS_EXPOSURE, True),
    SignalChannel.FENCE_OPEN: (EpochKind.FENCE, False),
    SignalChannel.FENCE_DONE: (EpochKind.FENCE, True),
}


class SignalEngine(NonblockingEngine):
    """Counter-signal epoch matching over the nonblocking policy core."""

    supports_notified_access = True

    # -- wiring -------------------------------------------------------------
    def register_window(self, win: "Window") -> None:
        super().register_window(win)
        ws = self.states[win.group.gid]
        ws.signal_board = SignalBoard(win.group.runtime.nranks)

    # =====================================================================
    # The signal primitive
    # =====================================================================
    def _signal(
        self, ws: WindowState, channel: SignalChannel, peer: int, value: int | None = None
    ) -> int:
        """Send one counter signal to ``peer``: bump (or floor, for
        round-valued channels) the outbound counter and write the new
        value one-sidedly into the peer's inbound replica."""
        board = ws.signal_board
        if value is None:
            value = board.bump_outbound(channel, peer)
        else:
            value = board.raise_outbound(channel, peer, value)
        m = self.metrics
        if m is not None:
            m.inc("signal.sent")
        if self._trace_enabled():
            self._trace("signal_sent", ws, peer=peer, channel=channel.name.lower(),
                        value=value)
        if self.causal is not None:
            self.causal.instant(
                "signal", rank=self.rank, win=ws.gid,
                meta={"channel": channel.name.lower(), "peer": peer, "value": value},
            )
        self._send(
            peer,
            8,
            SignalUpdate(ws.gid, channel=int(channel), signaler=self.rank, value=value),
            ServiceKind.RDMA,
        )
        return value

    def _on_signal(self, ws: WindowState, p: SignalUpdate, src: int) -> None:
        board = ws.signal_board
        m = self.metrics
        if not board.apply(p.channel, p.signaler, p.value):
            # Replay/retransmit: the max() application already holds a
            # value at least this high (same contract as grant_seq).
            if m is not None:
                m.inc("signal.dup_ignored")
            return
        if m is not None:
            m.inc("signal.recv")
        if self._trace_enabled():
            self._trace("signal_recv", ws, signaler=p.signaler,
                        channel=SignalChannel(p.channel).name.lower(), value=p.value)
        if self._explore is not None:
            # Raw counter value, not pack_win_value: counters are not
            # bounded by the 30-bit notification id space.
            self._explore.record_notification(
                self.rank, f"signal.{SignalChannel(p.channel).name.lower()}.w{ws.gid}",
                p.signaler, p.value,
            )
        if p.channel == SignalChannel.LOCK:
            self._lock_signal(ws, p.signaler, p.value)
        elif p.channel == SignalChannel.NOTIFY:
            self._resolve_notify_waits(ws, p.signaler)
        else:
            kind, advance = _WOKEN[p.channel]
            self._wake_peer(ws, kind, p.signaler, advance)

    _PACKET_HANDLERS = {
        **NonblockingEngine._PACKET_HANDLERS,
        SignalUpdate: _on_signal,
    }

    # =====================================================================
    # Matching-protocol hooks (the ω replacements)
    # =====================================================================
    def _enroll_access(self, ws: WindowState, ep: Epoch) -> None:
        board = ws.signal_board
        if ep.kind is EpochKind.GATS_ACCESS:
            # Reserve the next GRANT signal per target — also under
            # NOCHECK: the exposure side signals unconditionally, so a
            # non-consuming epoch would misalign every later one.
            for target in ep.targets:
                ep.signal_expected[target] = board.bump_expected(
                    SignalChannel.GRANT, target
                )
            return
        # Passive target: reserve the next LOCK-channel signal and ship
        # the lock request.  The reservation value doubles as the
        # epoch's access id so the unlock/ack echo machinery (which
        # matches on access_id) keeps working unchanged.
        for target in ep.targets:
            expected = board.bump_expected(SignalChannel.LOCK, target)
            ep.signal_expected[target] = expected
            ep.access_ids[target] = expected
            ws.lock_epochs[target, expected] = ep
            self._send(
                target,
                self.model.control_bytes,
                LockRequestPacket(
                    ws.gid, origin=self.rank, exclusive=ep.exclusive, access_id=expected
                ),
                ServiceKind.CONTROL,
                needs_attention=True,
            )

    def _enroll_exposure(self, ws: WindowState, ep: Epoch) -> None:
        board = ws.signal_board
        for origin in ep.origin_group:
            self._signal(ws, SignalChannel.GRANT, origin)
            # ...and reserve the matching access epoch's DONE signal.
            ep.signal_expected[origin] = board.bump_expected(SignalChannel.DONE, origin)

    def _announce_fence(self, ws: WindowState, ep: Epoch) -> None:
        # Fence channels carry the round number itself (a floor, not a
        # count): re-announcements of the same round are idempotent.
        for peer in ws.win.group.ranks:
            if peer != self.rank:
                self._signal(ws, SignalChannel.FENCE_OPEN, peer, value=ep.fence_round)
                # A peer can finish the round before this rank enters it.
                self._fence_done_landed(ws, ep, peer)

    def _access_granted(self, ws: WindowState, ep: Epoch, target: int) -> bool:
        return ws.signal_board.reached(
            SignalChannel.GRANT, target, ep.signal_expected[target]
        )

    def _fence_open_seen(self, ws: WindowState, target: int, round_no: int) -> bool:
        return ws.signal_board.reached(SignalChannel.FENCE_OPEN, target, round_no)

    def _broadcast_fence_done(self, ws: WindowState, epoch: Epoch) -> None:
        for peer in ws.win.group.ranks:
            if peer != self.rank:
                self._signal(ws, SignalChannel.FENCE_DONE, peer, value=epoch.fence_round)
        epoch.fence_done_sent = True

    def _fence_done_landed(self, ws: WindowState, ep: Epoch, peer: int) -> None:
        if ws.signal_board.reached(SignalChannel.FENCE_DONE, peer, ep.fence_round):
            ep.done_from.add(peer)

    def _fence_done_reached(self, ws: WindowState, ep: Epoch) -> bool:
        ranks = ws.win.group.ranks
        if len(ep.done_from) != len(ranks) - 1:
            return False
        if self._checker_of(ws) is not None:
            board = ws.signal_board
            assert all(
                board.reached(SignalChannel.FENCE_DONE, peer, ep.fence_round)
                for peer in ranks
                if peer != self.rank
            ), ep
        return True

    def _send_done(self, ws: WindowState, epoch: Epoch, target: int) -> None:
        # Access-epoch completion is one DONE-channel signal; the plain
        # counter replaces the ω access id (intranode and internode
        # alike — signals are already single 8-byte writes).
        value = self._signal(ws, SignalChannel.DONE, target)
        epoch.done_sent.add(target)
        if self._trace_enabled():
            self._trace("done_sent", ws, epoch, target=target, access_id=value)

    def _done_arrived(self, ws: WindowState, ep: Epoch, origin: int) -> bool:
        return ws.signal_board.reached(
            SignalChannel.DONE, origin, ep.signal_expected[origin]
        )

    # -- lock hosting (target side) ------------------------------------------
    def _grant_lock(self, ws: WindowState, waiter: "LockWaiter") -> None:
        """Lock-manager grant callback: one LOCK-channel signal, no ω
        updates.  The lock manager is FIFO and the origin's requests
        arrive in program order, so the host's k-th LOCK signal toward
        an origin is exactly the origin's k-th lock-epoch reservation."""
        checker = self._checker_of(ws)
        if checker is not None:
            checker.on_lock_grant(ws, waiter)
        self._signal(ws, SignalChannel.LOCK, waiter.origin)
        if self._trace_enabled():
            self._trace("lock_grant", ws, origin=waiter.origin, access_id=waiter.access_id)

    def _lock_signal(self, ws: WindowState, granter: int, value: int) -> None:
        """Origin side of a LOCK-channel signal: the inbound counter now
        covers every reservation up to ``value``.  Reservations toward
        one host are consecutive, so walk the index down from ``value``
        until an epoch that already holds its lock (or a reservation
        already acked and dropped) ends the newly covered run."""
        while True:
            ep = ws.lock_epochs.get((granter, value))
            if ep is None or ep.lock_held.get(granter, False):
                return
            self._lock_held(ws, ep, granter, "signal.lock_grant_wait_us")
            value -= 1

    # =====================================================================
    # Notified access (foMPI-style; NOTIFY channel)
    # =====================================================================
    def signal_peer(self, win: "Window", target: int) -> None:
        """``Window.signal``: one application-level signal to ``target``
        (self-signals ride the synchronous fabric loopback)."""
        ws = self.state_of(win)
        self._signal(ws, SignalChannel.NOTIFY, target)
        self.poke()

    def make_notify_wait(self, win: "Window", source: int, count: int = 1) -> "Request":
        """Request-first ``notify_wait``: reserve the next ``count``
        NOTIFY signals from ``source``; the request completes when the
        inbound replica catches up (possibly immediately)."""
        from ...mpi.requests import Request

        ws = self.state_of(win)
        board = ws.signal_board
        target_value = board.bump_expected(SignalChannel.NOTIFY, source, count)
        req = Request(self.sim, f"notify-wait(src={source},v={target_value})")
        if board.reached(SignalChannel.NOTIFY, source, target_value):
            self._notify_consumed(ws, source)
            req.complete()
        else:
            ws.signal_waits.append((source, target_value, req))
        return req

    def test_notify(self, win: "Window", source: int, count: int = 1) -> bool:
        """Nonblocking probe: consume ``count`` notifications from
        ``source`` if that many have arrived unconsumed."""
        self.poke()
        ws = self.state_of(win)
        board = ws.signal_board
        if board.unconsumed(SignalChannel.NOTIFY, source) >= count:
            board.bump_expected(SignalChannel.NOTIFY, source, count)
            self._notify_consumed(ws, source)
            return True
        return False

    def _notify_consumed(self, ws: WindowState, source: int) -> None:
        """A NOTIFY consumption completed: a checker-visible foMPI
        synchronization edge (see ``RmaChecker.on_notify_consumed``)."""
        checker = self._checker_of(ws)
        if checker is not None:
            checker.on_notify_consumed(ws, source)

    def _resolve_notify_waits(self, ws: WindowState, source: int) -> None:
        if not ws.signal_waits:
            return
        board = ws.signal_board
        live: list[tuple[int, int, "Request"]] = []
        for src, value, req in ws.signal_waits:
            if src == source and board.reached(SignalChannel.NOTIFY, src, value):
                if not req.done:
                    self._notify_consumed(ws, src)
                    req.complete()
            else:
                live.append((src, value, req))
        ws.signal_waits = live

    # -- notified transfers (put_notify / get_notify) -------------------------
    @staticmethod
    def _notify_at_issue(op: RmaOp) -> bool:
        """Whether the op's notification can ride the same RDMA lane as
        its data (the mscclpp one-shot): puts whose notification goes to
        the put's own target — the per-pair FIFO lane then delivers the
        signal after the data applies.  Everything else (result-bearing
        ops, cross-rank notifications, rendezvous accumulates) signals
        at remote completion instead."""
        return op.kind is OpKind.PUT and op.notify_target == op.target

    def _issue_op(self, ws: WindowState, op: RmaOp) -> None:
        super()._issue_op(ws, op)
        if op.notify_target is not None and self._notify_at_issue(op):
            self._signal(ws, SignalChannel.NOTIFY, op.notify_target)

    def _op_delivered(self, ws: WindowState, op: RmaOp) -> None:
        already = op.delivered
        super()._op_delivered(ws, op)
        if (
            not already
            and op.delivered
            and op.notify_target is not None
            and not self._notify_at_issue(op)
        ):
            self._signal(ws, SignalChannel.NOTIFY, op.notify_target)
