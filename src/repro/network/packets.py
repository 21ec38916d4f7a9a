"""Fabric-level messages.

The fabric moves opaque payloads; what it needs to know is captured by
:class:`SendTicket`, the one object a send builds: size, class of
service, and whether handling at the destination requires the host
CPU's attention (as opposed to autonomous NIC/RDMA handling) — plus the
handle the sender listens on for completion.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Position, Simulator

__all__ = ["ServiceKind", "SendTicket"]

_msg_ids = itertools.count()


class ServiceKind(enum.Enum):
    """Class of service for a fabric message.

    RDMA
        One-sided data movement (put/get payloads, remote counter
        updates).  Delivered and applied autonomously by the simulated
        NIC — the destination process does not need to be in an MPI call.
    CONTROL
        Middleware control traffic (rendezvous handshakes, lock requests,
        done packets).  May or may not require host attention; see
        :attr:`SendTicket.needs_attention`.
    NOTIFY
        64-bit completion notification packets (the intranode wait-free
        FIFO traffic of §VII-D).
    """

    RDMA = "rdma"
    CONTROL = "control"
    NOTIFY = "notify"


class SendTicket:
    """One message handed to the fabric, returned by
    :meth:`~repro.network.fabric.Fabric.send` as its handle.

    Attributes
    ----------
    src, dst:
        Endpoint ranks.
    nbytes:
        Wire size used for serialization-time accounting.
    kind:
        Class of service (:class:`ServiceKind`).
    payload:
        Opaque object handed to the destination's delivery handler.
    needs_attention:
        If true, delivery is deferred until the destination host is
        *attentive* (inside an MPI call or idle); models control work
        that a real NIC cannot perform alone.
    pin_region:
        ``(address, size)`` the source registers before an internode
        transfer, or ``None``.
    uid:
        Process-global monotonic id, for deterministic ordering; the
        fault injector's stateless draws key on it.
    attempt:
        Transmission attempts since the last delivery (the injector's
        other draw input); maintained only under fault injection.
    rel_seq:
        Per-(src, dst) sequence number assigned by the reliability layer
        (``None`` when absent or for loopback).
    delivered_time:
        When the payload was first handled at the destination, or
        ``None``.

    Completion is flat callbacks (:meth:`on_local_complete`,
    :meth:`on_delivered`): ``fn(*args)`` runs at the completion instant
    via one zero-delay schedule — no event object, no closure.

    *Local complete* fires when the source buffer is reusable (out-port
    done serializing) — the MPI "local completion" notion used by
    ``flush_local``.  Until somebody listens it is only a position
    reserved in the kernel's event order; the first listener claims it,
    or finds the clock beyond it and takes the after-the-fact path.
    *Delivered* fires when the payload has been handled at the
    destination (after the attention gate, for attention-requiring
    messages).  Under the reliability layer that is the *first
    successful* delivery; retransmissions and ghost duplicates never
    refire.
    """

    __slots__ = (
        "sim", "src", "dst", "nbytes", "kind", "payload", "needs_attention", "pin_region",
        "uid", "attempt", "rel_seq", "causal_sid",
        "_local_pos", "_local_time", "_local_cbs", "delivered_time", "_delivered_cbs",
    )

    def __init__(self, sim: "Simulator", src: int, dst: int, nbytes: int, kind: ServiceKind,
                 payload: Any, needs_attention: bool = False,
                 pin_region: tuple[int, int] | None = None):
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.kind = kind
        self.payload = payload
        self.needs_attention = needs_attention
        self.pin_region = pin_region
        self.uid = next(_msg_ids)
        self.attempt = 0
        self.rel_seq: int | None = None
        #: The message's span id when causal recording is on (else None).
        self.causal_sid: int | None = None
        #: ``False`` until the first attempt or listener; the reserved
        #: position of local completion while nobody listens; ``None``
        #: once ``_fire_local`` has its own heap entry (or has run).
        self._local_pos: "Position | None | bool" = False
        self._local_time: float | None = None
        self._local_cbs: list[tuple[Callable[..., None], tuple]] | None = None
        self.delivered_time: float | None = None
        self._delivered_cbs: list[tuple[Callable[..., None], tuple]] | None = None

    @property
    def local_time(self) -> float | None:
        """When the source buffer became reusable, or ``None`` (yet)."""
        pos = self._local_pos
        if pos and self.sim.passed(pos):
            return pos[0]
        return self._local_time

    def on_local_complete(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` when the source buffer becomes reusable
        (immediately-but-asynchronously if it already is)."""
        if self._local_pos is not None:
            self._listen_local()
        if self._local_time is not None:
            self.sim.schedule(0.0, fn, *args)
        elif self._local_cbs is None:
            self._local_cbs = [(fn, args)]
        else:
            self._local_cbs.append((fn, args))

    def on_delivered(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` when the payload is handled at the
        destination (immediately-but-asynchronously if it already was)."""
        if self.delivered_time is not None:
            self.sim.schedule(0.0, fn, *args)
        elif self._delivered_cbs is None:
            self._delivered_cbs = [(fn, args)]
        else:
            self._delivered_cbs.append((fn, args))

    def _listen_local(self) -> None:
        """The first listener arrives: from here on local completion is
        a callback — unless it was reserved and the clock is beyond it,
        in which case it happened at the reserved time."""
        pos, self._local_pos = self._local_pos, None
        if pos:
            sim = self.sim
            if pos[0] > sim._now or not sim.passed(pos):
                sim.claim(pos, self._fire_local)
            else:
                self._local_time = pos[0]

    def _fire_local(self) -> None:
        if self._local_time is not None or self._local_pos:
            # Retransmissions re-serialize the same buffer; "buffer
            # reusable" fired (or is reserved) at the first serialization.
            return
        sim = self.sim
        self._local_time = sim._now
        cbs, self._local_cbs = self._local_cbs, None
        if cbs is not None:
            for fn, args in cbs:
                sim.schedule(0.0, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SendTicket #{self.uid} {self.src}->{self.dst} {self.kind.value} "
            f"{self.nbytes}B{' (attn)' if self.needs_attention else ''}>"
        )
