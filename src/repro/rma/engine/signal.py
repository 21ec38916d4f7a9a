"""The counter-signal engine: mscclpp-style epoch ids + notified access.

A subclass of :class:`~repro.rma.engine.nonblocking.NonblockingEngine`:
same deferred-epoch activation, 7-step progress loop, eager per-target
issue, ready sets *and matching protocol* — both match on the window's
:class:`~repro.rma.notify.SignalBoard`.  Only the *wire encoding*
differs: where the ω engines ship a counter value as a
GrantUpdate / DonePacket / FIFO done / FenceOpen / FenceDone, this
engine writes every channel as a single one-sided 8-byte
:class:`~repro.rma.packets.SignalUpdate` — ``signal()`` /
``wait(expected)`` in the style of mscclpp's ``epoch.hpp`` — and numbers
two streams differently: lock grants have a channel of their own
(``lock_channel``: a lock grant must never satisfy a GATS grant wait)
and DONE is a plain count (``done_by_id``).

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
from ..notify import SignalChannel
from ..ops import OpKind, RmaOp
from ..packets import SignalUpdate
from ..state import WindowState
from .nonblocking import NonblockingEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...mpi.requests import Request
    from ..window import Window

__all__ = ["SignalEngine"]

#: The channels whose updates grant access: GATS grants and lock grants.
_GRANTS = (SignalChannel.GRANT, SignalChannel.LOCK)


class SignalEngine(NonblockingEngine):
    """Counter-signal wire encoding of the one progress engine."""

    __slots__ = ()

    supports_notified_access = True

    lock_channel = SignalChannel.LOCK
    done_by_id = False

    # =====================================================================
    # The wire encoding: every channel is one 8-byte counter write
    # =====================================================================
    def _transmit(self, ws: WindowState, channel: SignalChannel, peer: int, value: int,
                  **_wire) -> None:
        """Write ``value`` one-sidedly into ``peer``'s inbound replica."""
        if self.causal is not None:
            self.causal.instant(
                "signal", rank=self.rank, win=ws.gid,
                meta={"channel": channel.name.lower(), "peer": peer, "value": value},
            )
        self.fabric.send(
            self.rank, peer, 8,
            SignalUpdate(ws.gid, channel=int(channel), signaler=self.rank, value=value),
            ServiceKind.RDMA,
        )

    def _on_signal(self, ws: WindowState, p: SignalUpdate, src: int) -> None:
        if not ws.board.apply(p.channel, p.signaler, p.value):
            # Replay/retransmit: the max() application already holds a
            # value at least this high (same contract as grant_seq).
            return
        if self.causal is not None and p.channel in _GRANTS:
            self.causal.instant("grant", rank=self.rank, win=ws.gid,
                                meta={"granter": p.signaler})
        if self._explore is not None:
            # The window rides in the kind and the value is the raw
            # counter (the ω engines key theirs as ``gid << 30 | id``).
            self._explore.record_notification(
                self.rank, f"signal.{SignalChannel(p.channel).name.lower()}.w{ws.gid}",
                p.signaler, p.value,
            )
        if p.channel == SignalChannel.LOCK:
            self._lock_signal(ws, p.signaler, p.value)
        elif p.channel == SignalChannel.NOTIFY:
            self._resolve_notify_waits(ws, p.signaler)
        else:
            self._wake_peer(ws, p.channel, p.signaler)

    _PACKET_HANDLERS = {
        **NonblockingEngine._PACKET_HANDLERS,
        SignalUpdate: _on_signal,
    }

    def _lock_signal(self, ws: WindowState, granter: int, value: int) -> None:
        """Origin side of a LOCK-channel signal: the inbound counter now
        covers every reservation up to ``value``.  Reservations toward
        one host are consecutive, so walk the index down from ``value``
        until an epoch that already holds its lock (or a reservation
        already acked and dropped) ends the newly covered run."""
        while True:
            ep = ws.lock_epochs.get((granter, value))
            if ep is None or granter in ep.lock_stage:
                return
            self._lock_held(ws, ep, granter)
            value -= 1

    # =====================================================================
    # Notified access (foMPI-style; NOTIFY channel)
    # =====================================================================
    def signal_peer(self, win: "Window", target: int) -> None:
        """``Window.signal``: one application-level signal to ``target``
        (self-signals ride the synchronous fabric loopback)."""
        ws = self.state_of(win)
        self._notify(ws, SignalChannel.NOTIFY, target)
        self.poke()

    def make_notify_wait(self, win: "Window", source: int, count: int = 1) -> "Request":
        """Request-first ``notify_wait``: reserve the next ``count``
        NOTIFY signals from ``source``; the request completes when the
        inbound replica catches up (possibly immediately)."""
        from ...mpi.requests import Request

        ws = self.state_of(win)
        board = ws.board
        target_value = board.bump_expected(SignalChannel.NOTIFY, source, count)
        req = Request(self.sim, ("notify-wait(src=%d,v=%d)", source, target_value))
        if board.reached(SignalChannel.NOTIFY, source, target_value):
            self._notify_consumed(ws, source)
            req.complete()
        elif ws.signal_waits:
            ws.signal_waits.append((source, target_value, req))
        else:
            ws.signal_waits = [(source, target_value, req)]
        return req

    def test_notify(self, win: "Window", source: int, count: int = 1) -> bool:
        """Nonblocking probe: consume ``count`` notifications from
        ``source`` if that many have arrived unconsumed."""
        self.poke()
        ws = self.state_of(win)
        board = ws.board
        if board.unconsumed(SignalChannel.NOTIFY, source) >= count:
            board.bump_expected(SignalChannel.NOTIFY, source, count)
            self._notify_consumed(ws, source)
            return True
        return False

    def _notify_consumed(self, ws: WindowState, source: int) -> None:
        """A NOTIFY consumption completed: a checker-visible foMPI
        synchronization edge (see ``RmaChecker.on_notify_consumed``)."""
        checker = ws.checker
        if checker is not None:
            checker.on_notify_consumed(ws, source)

    def _resolve_notify_waits(self, ws: WindowState, source: int) -> None:
        if not ws.signal_waits:
            return
        board = ws.board
        live: list[tuple[int, int, "Request"]] = []
        for src, value, req in ws.signal_waits:
            if src == source and board.reached(SignalChannel.NOTIFY, src, value):
                if not req.done:
                    self._notify_consumed(ws, src)
                    req.complete()
            else:
                live.append((src, value, req))
        ws.signal_waits = live or ()

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
            self._notify(ws, SignalChannel.NOTIFY, op.notify_target)

    def _op_delivered(self, ws: WindowState, op: RmaOp) -> None:
        already = op.deliver_time is not None
        super()._op_delivered(ws, op)
        if (
            not already
            and op.deliver_time is not None
            and op.notify_target is not None
            and not self._notify_at_issue(op)
        ):
            self._notify(ws, SignalChannel.NOTIFY, op.notify_target)
