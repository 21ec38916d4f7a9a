"""Intranode wait-free notification FIFOs of 64-bit packets.

§VII-D: "There is one two-way shared-memory wait-free FIFO between any
two RMA windows.  That notification channel deals only with 64-bit
packets that are used to encode and send intranode lock/unlock requests
as well as epoch completion packets."

Here the channel carries epoch completions only: lock and unlock
requests travel as control packets on every path.  This module provides
the packet codec plus the channel object.  The channel rides the
fabric's intranode path (a NOTIFY message of 8 bytes), so it inherits
the intranode latency model; the progress engine pops it in step 5.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING

from .packets import ServiceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fabric import Fabric

__all__ = [
    "NotifyKind",
    "NotificationError",
    "NotificationDecodeError",
    "NotificationAuthError",
    "encode_notification",
    "decode_notification",
    "decode_checked",
    "NotificationFifo",
    "NotificationPacket",
]


class NotificationError(RuntimeError):
    """Base class for malformed or misattributed notification packets."""


class NotificationDecodeError(NotificationError):
    """A 64-bit packet carried an unknown opcode or an out-of-range
    field; the packet value is named so corruption can be diagnosed."""


class NotificationAuthError(NotificationError):
    """The rank encoded inside a packet disagrees with the rank the
    fabric delivered it from (forged or corrupted sender field)."""


class NotifyKind(enum.IntEnum):
    """Notification opcodes carried in the top byte of a 64-bit packet."""

    EPOCH_COMPLETE = 1


_KIND_SHIFT = 56
_RANK_SHIFT = 36
_RANK_MASK = (1 << 20) - 1
_VALUE_MASK = (1 << 36) - 1


def encode_notification(kind: NotifyKind, rank: int, value: int) -> int:
    """Pack (kind, rank, value) into one 64-bit integer.

    Layout: ``[8-bit kind | 20-bit rank | 36-bit value]``.  36 bits of
    value comfortably hold epoch ids for any realistic run length; rank
    supports jobs up to a million processes.
    """
    if not 0 <= rank <= _RANK_MASK:
        raise ValueError(f"rank {rank} does not fit in 20 bits")
    if not 0 <= value <= _VALUE_MASK:
        raise ValueError(f"value {value} does not fit in 36 bits")
    return (int(kind) << _KIND_SHIFT) | (rank << _RANK_SHIFT) | value


def decode_notification(packet: int) -> tuple[NotifyKind, int, int]:
    """Inverse of :func:`encode_notification`.

    Raises :class:`NotificationDecodeError` (naming the offending packet)
    rather than a bare enum ``ValueError`` when the kind byte is unknown,
    so a corrupted FIFO entry is diagnosable at the delivery site.
    """
    kind_byte = packet >> _KIND_SHIFT
    try:
        kind = NotifyKind(kind_byte)
    except ValueError:
        raise NotificationDecodeError(
            f"unknown notification kind byte 0x{kind_byte:02x} "
            f"in packet 0x{packet:016x}"
        ) from None
    rank = (packet >> _RANK_SHIFT) & _RANK_MASK
    value = packet & _VALUE_MASK
    return kind, rank, value


def decode_checked(packet: int, src: int) -> tuple[NotifyKind, int, int]:
    """Decode one packet and authenticate its sender field.

    The rank encoded inside the packet is cross-checked against the
    fabric-delivered source rank ``src``: a mismatch means the packet was
    forged or corrupted in transit, and trusting the in-packet rank would
    misattribute the notification (wrong ``done_id`` slot).  Such packets
    raise :class:`NotificationAuthError`; malformed ones raise
    :class:`NotificationDecodeError` first.  The progress engines' step 5
    decodes every packet through here.
    """
    kind, rank, value = decode_notification(packet)
    if rank != src:
        raise NotificationAuthError(
            f"packet 0x{packet:016x} claims sender rank {rank} but was "
            f"delivered by the fabric from rank {src}"
        )
    return kind, rank, value


class NotificationFifo:
    """One endpoint's receive side of the two-way 64-bit packet channel.

    The sending side is :meth:`send`: an 8-byte NOTIFY message on the
    fabric whose delivery appends to the peer's deque.  The progress
    engine drains the deque in step 5
    (:meth:`~repro.rma.engine.nonblocking.NonblockingEngine._consume_notifications`),
    which leaves ``()`` behind: the deque exists only while a packet waits.
    """

    __slots__ = ("fabric", "rank", "_incoming", "max_depth")

    def __init__(self, fabric: "Fabric", rank: int):
        self.fabric = fabric
        self.rank = rank
        self._incoming: "deque[tuple[int, int]] | tuple[()]" = ()  # (packet, from_rank)
        #: Deepest the queue has been (read at summary time).
        self.max_depth = 0

    def send(self, dst: int, kind: NotifyKind, value: int) -> None:
        """Send one 64-bit notification packet to ``dst``.

        The destination middleware's delivery handler recognizes the
        :class:`NotificationPacket` payload and pushes it into its own
        FIFO (see :meth:`push`).
        """
        packet = encode_notification(kind, self.rank, value)
        self.fabric.send(
            self.rank,
            dst,
            self.fabric.model.notification_bytes,
            NotificationPacket(packet),
            kind=ServiceKind.NOTIFY,
        )

    def push(self, packet: int, from_rank: int) -> None:
        """Called at delivery time by the middleware handler."""
        if not self._incoming:
            self._incoming = deque()
        self._incoming.append((packet, from_rank))
        depth = len(self._incoming)
        if depth > self.max_depth:
            self.max_depth = depth

    def pending(self) -> list[tuple[NotifyKind, int, int]]:
        """Decode the queued packets without consuming them (diagnostics;
        the semantics checker uses this to flag undrained notifications
        at ``MPI_WIN_FREE``)."""
        return [decode_notification(packet) for packet, _src in self._incoming]

    def __len__(self) -> int:
        return len(self._incoming)


class NotificationPacket:
    """Fabric payload carrying one encoded 64-bit notification."""

    __slots__ = ("packet",)

    def __init__(self, packet: int):
        self.packet = packet

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind, rank, value = decode_notification(self.packet)
        return f"<NotificationPacket {kind.name} from={rank} value={value}>"
