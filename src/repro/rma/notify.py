"""The matching store: one counter board per rank and window.

Every engine matches epochs on the same three monotonic 64-bit counters
per (channel, peer) — mscclpp's ``EpochIds{outbound, inboundReplica}`` +
``expectedInboundEpochId``, and §VII-B's ω-triple under other names:

``outbound[ch, peer]``
    What this rank has *sent* to ``peer`` on channel ``ch``.  On
    ``GRANT`` this is ω's ``e_l`` (exposures opened / locks granted).
``inbound[ch, peer]``
    The local replica of ``peer``'s outbound counter, updated one-sidedly
    by the peer.  On ``GRANT`` this is ω's ``g_r``; on ``DONE`` the
    ``done_id`` of the ω engines.  Applied with ``max()``, so a
    duplicated or retransmitted update is a no-op.
``expected[ch, peer]``
    What this rank has *reserved* of ``peer``'s stream: epoch enrolment
    and ``notify_wait`` both take the next expected value and then wait
    for ``inbound`` to reach it.  On ``GRANT`` this is ω's ``a_l``:
    ``A_i = ++a_l``, matched iff ``A_i <= g_r``.

What differs between engines is only how an increment *travels*
(``GrantUpdate`` / done / fence packets under ω, one 8-byte
``SignalUpdate`` under counter signals) and two numbering rules
(``lock_channel`` and ``done_by_id``, class constants of
:class:`~repro.rma.engine.nonblocking.NonblockingEngine`).

Channels keep independent streams apart; within one (channel, pair) the
counters align by *program order* on both sides — the per-pair FIFO
fabric lanes make the k-th update sent the k-th applied.

Each counter family is a ``dict`` keyed by ``(channel, peer)`` and read
with ``.get(key, 0)``: only a store adds an entry, so a window costs
O(peers it talked to), not O(nranks).

Counters saturate at :data:`SIGNAL_LIMIT` (2^62): far below int64
overflow, far above any real run.  Crossing it raises — wraparound
would silently break the monotonic ``max()`` application.
"""

from __future__ import annotations

import enum

from ..mpi.errors import RmaInternalError

__all__ = ["SignalChannel", "SignalBoard", "SIGNAL_LIMIT", "row_items"]

#: Counter ceiling (2^62): bumping past it raises instead of wrapping.
SIGNAL_LIMIT = 1 << 62


class SignalChannel(enum.IntEnum):
    """Independent per-pair signal streams."""

    #: Exposure/access matching: target signals "you may access me".
    GRANT = 0
    #: Access-epoch completion: origin signals "my epoch's ops landed"
    #: (value = the epoch's access id under ω, a plain count otherwise).
    DONE = 1
    #: Passive target: lock host signals "your lock request is granted"
    #: (unused by the ω engines, whose lock grants ride GRANT: §VII-B).
    LOCK = 2
    #: Fence entry announcements (value = fence round, not a count).
    FENCE_OPEN = 3
    #: Fence completion announcements (value = fence round).
    FENCE_DONE = 4
    #: Application-level notified access (``signal()``/``notify_wait``,
    #: ``put_notify``/``get_notify``).
    NOTIFY = 5


class SignalBoard:
    """Per-window (channel × peer) counter triple of one rank."""

    __slots__ = ("outbound", "inbound", "expected", "dup_signals_ignored", "applied")

    def __init__(self):
        self.outbound: dict[tuple[int, int], int] = {}
        self.inbound: dict[tuple[int, int], int] = {}
        self.expected: dict[tuple[int, int], int] = {}
        #: Replayed grant / signal updates discarded by the idempotent
        #: ``max()`` application (nonzero only if duplicate suppression
        #: is bypassed).
        self.dup_signals_ignored = 0
        #: Grant / signal updates :meth:`apply` took (the ω engines'
        #: grants received; every update the counter-signal engine took).
        self.applied = 0

    # -- sender side -------------------------------------------------------
    def bump_outbound(self, channel: int, peer: int) -> int:
        """Allocate the next outbound value toward ``peer`` (the value a
        ``signal()`` writes into the peer's inbound replica)."""
        value = self.outbound.get((channel, peer), 0) + 1
        if value >= SIGNAL_LIMIT:
            raise RmaInternalError(
                f"signal counter wraparound: channel {SignalChannel(channel).name} "
                f"toward peer {peer} reached {SIGNAL_LIMIT}"
            )
        self.outbound[channel, peer] = value
        return value

    def raise_outbound(self, channel: int, peer: int, value: int) -> int:
        """Outbound floor for id- and round-valued updates (fences
        announce the round number, ω dones the access id — not a count);
        monotonic like everything here."""
        if value >= SIGNAL_LIMIT:
            raise RmaInternalError(
                f"signal counter wraparound: channel {SignalChannel(channel).name} "
                f"toward peer {peer} reached {SIGNAL_LIMIT}"
            )
        if value > self.outbound.get((channel, peer), 0):
            self.outbound[channel, peer] = value
        return value

    # -- receiver side -------------------------------------------------------
    def apply(self, channel: int, peer: int, value: int) -> bool:
        """``inbound = max(inbound, value)``; False (and counted) when
        the update was a duplicate/replay."""
        if value <= self.inbound.get((channel, peer), 0):
            self.dup_signals_ignored += 1
            return False
        self.inbound[channel, peer] = value
        self.applied += 1
        return True

    def floor_inbound(self, channel: int, peer: int, value: int) -> None:
        """``inbound = max(inbound, value)`` with no duplicate accounting:
        for id- and round-valued updates, which may legally land out of
        value order (a later epoch's done overtaking an earlier one's)."""
        if value > self.inbound.get((channel, peer), 0):
            self.inbound[channel, peer] = value

    def bump_expected(self, channel: int, peer: int, count: int = 1) -> int:
        """Consume ``count`` future signals from ``peer``; returns the
        inbound value that satisfies the reservation."""
        value = self.expected.get((channel, peer), 0) + count
        if value >= SIGNAL_LIMIT:
            raise RmaInternalError(
                f"signal counter wraparound: expected {SignalChannel(channel).name} "
                f"from peer {peer} reached {SIGNAL_LIMIT}"
            )
        self.expected[channel, peer] = value
        return value

    def reached(self, channel: int, peer: int, value: int) -> bool:
        """``wait(expected)`` probe: has the inbound replica caught up?"""
        return self.inbound.get((channel, peer), 0) >= value

    def unconsumed(self, channel: int, peer: int) -> int:
        """Signals arrived but not yet reserved by any wait/test."""
        return self.inbound.get((channel, peer), 0) - self.expected.get((channel, peer), 0)

    # -- introspection -------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, dict[str, int]]]:
        """JSON-stable nonzero counters per channel (digest material)."""
        out: dict[str, dict[str, dict[str, int]]] = {}
        for ch in SignalChannel:
            entry = {}
            for name, arr in (
                ("out", self.outbound), ("in", self.inbound), ("exp", self.expected)
            ):
                row = {str(r): v for r, v in row_items(arr, ch)}
                if row:
                    entry[name] = row
            if entry:
                out[ch.name.lower()] = entry
        return out


def row_items(counters: dict[tuple[int, int], int], channel: int) -> list[tuple[int, int]]:
    """Nonzero ``(peer, value)`` pairs of one board row, ascending peer
    (digest material independent of touch order)."""
    return sorted((peer, v) for (ch, peer), v in counters.items() if ch == channel and v)
