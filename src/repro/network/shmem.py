"""Intranode wait-free notification FIFOs of 64-bit packets.

§VII-D: "There is one two-way shared-memory wait-free FIFO between any
two RMA windows.  That notification channel deals only with 64-bit
packets that are used to encode and send intranode lock/unlock requests
as well as epoch completion packets."

Here the channel carries epoch completions only: lock and unlock
requests travel as control packets on every path.  One FIFO per rank
serves all of its windows: an entry is the done itself,
``(NotificationPacket(win, access_id), sender)``, with the sender taken
from the fabric delivery.  The channel rides the fabric's intranode path
(a NOTIFY message of 8 bytes), so it inherits the intranode latency
model; the progress engine pops it in step 5.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .packets import ServiceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fabric import Fabric

__all__ = ["NotificationFifo", "NotificationPacket"]


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
        self._incoming: "deque[tuple[NotificationPacket, int]] | tuple[()]" = ()
        #: Deepest the queue has been (read at summary time).
        self.max_depth = 0

    def send(self, dst: int, win: int, access_id: int) -> None:
        """Send the completion of access epoch ``access_id`` on window
        ``win`` to ``dst``.

        The destination middleware's delivery handler recognizes the
        :class:`NotificationPacket` payload and pushes it into its own
        FIFO (see :meth:`push`).
        """
        self.fabric.send(
            self.rank,
            dst,
            self.fabric.model.notification_bytes,
            NotificationPacket(win, access_id),
            kind=ServiceKind.NOTIFY,
        )

    def push(self, packet: "NotificationPacket", from_rank: int) -> None:
        """Called at delivery time by the middleware handler."""
        if not self._incoming:
            self._incoming = deque()
        self._incoming.append((packet, from_rank))
        depth = len(self._incoming)
        if depth > self.max_depth:
            self.max_depth = depth

    def pending(self) -> list[tuple["NotificationPacket", int]]:
        """The queued ``(packet, sender)`` entries, not consumed
        (diagnostics; the semantics checker uses this to flag undrained
        notifications at ``MPI_WIN_FREE``)."""
        return list(self._incoming)

    def __len__(self) -> int:
        return len(self._incoming)


class NotificationPacket:
    """Fabric payload of one epoch completion: window gid and access id."""

    __slots__ = ("win", "access_id")

    def __init__(self, win: int, access_id: int):
        self.win = win
        self.access_id = access_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NotificationPacket win={self.win} id={self.access_id}>"
