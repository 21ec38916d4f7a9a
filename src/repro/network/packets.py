"""Fabric-level message envelopes.

The fabric moves opaque payloads; what it needs to know is captured by
:class:`Message`: size, class of service, and whether handling at the
destination requires the host CPU's attention (as opposed to autonomous
NIC/RDMA handling).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

__all__ = ["ServiceKind", "Message"]

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
        :attr:`Message.needs_attention`.
    NOTIFY
        64-bit completion/lock notification packets (the intranode
        wait-free FIFO traffic of §VII-D, and their internode analogues).
    """

    RDMA = "rdma"
    CONTROL = "control"
    NOTIFY = "notify"


class Message:
    """A unit of traffic handed to the fabric.

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
        Monotonic id, for deterministic ordering and tracing.
    """

    __slots__ = ("src", "dst", "nbytes", "kind", "payload", "needs_attention", "pin_region",
                 "uid")

    def __init__(self, src: int, dst: int, nbytes: int, kind: ServiceKind, payload: Any,
                 needs_attention: bool = False, pin_region: tuple[int, int] | None = None):
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.kind = kind
        self.payload = payload
        self.needs_attention = needs_attention
        self.pin_region = pin_region
        self.uid = next(_msg_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message #{self.uid} {self.src}->{self.dst} {self.kind.value} "
            f"{self.nbytes}B{' (attn)' if self.needs_attention else ''}>"
        )
