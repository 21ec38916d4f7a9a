"""Two-sided point-to-point messaging (send/recv and friends).

The RMA paper needs a two-sided substrate both as a workload component
(Fig. 2 interleaves an RMA epoch with a 1 MB two-sided transfer) and to
build collectives.  The protocol is the classic eager/rendezvous split:

- messages at or below the fabric's eager threshold travel immediately
  and land in the receiver's unexpected queue until matched;
- larger messages send an RTS control packet; the receiver answers CTS
  once a matching receive is posted; the payload then flows.

Matching is MPI-conformant: per-(source, tag) FIFO with ``ANY_SOURCE`` /
``ANY_TAG`` wildcards, posted-receive order priority.  ``ANY_TAG``
matches tags >= 0 only: negative tags are the collectives' context.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

import numpy as np

from ..network.packets import ServiceKind
from ..simtime import SimEvent
from .errors import TruncationError
from .requests import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.fabric import Fabric
    from ..simtime import Simulator

__all__ = ["ANY_SOURCE", "ANY_TAG", "P2PEngine", "SendRequest", "RecvRequest"]

ANY_SOURCE = -1
ANY_TAG = -1
#: Barrier round ``k`` travels on tag ``TAG_BARRIER - k`` (-100 to -199).
TAG_BARRIER = -100

_send_ids = itertools.count()

#: An idle rank's rendezvous tables (shared, read-only): a rank pays
#: for a table only while a handshake is in it.
_NO_HANDSHAKES = MappingProxyType({})


# -- wire payloads ---------------------------------------------------------
@dataclass(slots=True)
class EagerData:
    """Payload of an eager send: data travels with the envelope."""

    tag: int
    nbytes: int
    data: np.ndarray | None
    send_id: int


@dataclass(slots=True)
class RtsPacket:
    """Rendezvous request-to-send."""

    tag: int
    nbytes: int
    send_id: int


@dataclass(slots=True)
class CtsPacket:
    """Rendezvous clear-to-send (receiver matched the RTS)."""

    send_id: int


@dataclass(slots=True)
class RndvData:
    """Rendezvous payload."""

    send_id: int
    nbytes: int
    data: np.ndarray | None


#: The payload classes this layer consumes (the middleware routes on it).
P2P_PAYLOADS = frozenset({EagerData, RtsPacket, CtsPacket, RndvData})


# -- requests ----------------------------------------------------------------
class SendRequest(Request):
    """Completes when the send buffer is reusable (local completion)."""

    __slots__ = ()


class RecvRequest(Request):
    """Completes when the message has fully arrived; value is the data."""

    __slots__ = ("source", "tag", "buffer", "matched_source", "matched_tag")

    def __init__(self, sim: "Simulator", source: int, tag: int, buffer: np.ndarray | None):
        super().__init__(sim, ("recv(src=%d,tag=%d)", source, tag))
        self.source = source
        self.tag = tag
        self.buffer = buffer
        #: Actual source/tag after matching (resolves wildcards).
        self.matched_source: int | None = None
        self.matched_tag: int | None = None


class P2PEngine:
    """Per-rank two-sided messaging state machine.

    Each queue and table is the shared empty (``()`` or
    ``_NO_HANDSHAKES``) until its first entry, and the code that takes
    the last entry out puts the shared empty back.
    """

    __slots__ = ("sim", "fabric", "rank", "_posted", "_unexpected", "_rndv_pending",
                 "_rndv_recv", "barrier")

    def __init__(self, sim: "Simulator", fabric: "Fabric", rank: int):
        self.sim = sim
        self.fabric = fabric
        self.rank = rank
        #: Posted receives, in post order (MPI matching priority).
        self._posted: list[RecvRequest] | tuple[()] = ()
        #: Unexpected arrivals in arrival order: (src, payload).
        self._unexpected: list[tuple[int, EagerData | RtsPacket]] | tuple[()] = ()
        #: Rendezvous sends awaiting CTS: send_id -> (dst, nbytes, data, request)
        self._rndv_pending: dict[int, tuple[int, int, np.ndarray | None, SendRequest]] | \
            MappingProxyType = _NO_HANDSHAKES
        #: Receives matched to an RTS, awaiting payload: send_id -> request.
        self._rndv_recv: dict[int, RecvRequest] | MappingProxyType = _NO_HANDSHAKES
        self.barrier = DisseminationBarrier(sim, fabric, rank)

    # -- sending ---------------------------------------------------------
    def isend(
        self, dst: int, nbytes: int, tag: int = 0, data: np.ndarray | None = None
    ) -> SendRequest:
        """Start a send of ``nbytes`` (optionally carrying real data)."""
        if data is not None:
            data = np.ascontiguousarray(data)
            nbytes = data.nbytes
        req = SendRequest(self.sim, ("send(to=%d,tag=%d,n=%d)", dst, tag, nbytes))
        send_id = next(_send_ids)
        if nbytes <= self.fabric.model.eager_threshold:
            payload = EagerData(tag, nbytes, data, send_id)
            ticket = self.fabric.send(
                self.rank, dst, nbytes + self.fabric.model.control_bytes, payload,
                kind=ServiceKind.CONTROL,
            )
            ticket.on_local_complete(req.complete)
        else:
            if self._rndv_pending:
                self._rndv_pending[send_id] = (dst, nbytes, data, req)
            else:
                self._rndv_pending = {send_id: (dst, nbytes, data, req)}
            rts = RtsPacket(tag, nbytes, send_id)
            self.fabric.send(
                self.rank, dst, self.fabric.model.control_bytes, rts,
                kind=ServiceKind.CONTROL,
            )
        return req

    # -- receiving ---------------------------------------------------------
    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, buffer: np.ndarray | None = None
    ) -> RecvRequest:
        """Post a receive; completes with the message data (or None for
        size-only transfers)."""
        req = RecvRequest(self.sim, source, tag, buffer)
        if self._match_unexpected(req) is None:
            if self._posted:
                self._posted.append(req)
            else:
                self._posted = [req]
        return req

    # -- delivery (called by middleware) ---------------------------------
    def on_delivery(self, payload: Any, src: int) -> bool:
        """Handle a fabric delivery if it belongs to this layer.

        Returns True when consumed.
        """
        kind = type(payload)
        if kind is EagerData:
            if TAG_BARRIER - 100 < payload.tag <= TAG_BARRIER:
                self.barrier.on_token(TAG_BARRIER - payload.tag)
                return True
            req = self._match_posted(src, payload.tag)
            if req is None:
                self._stash(src, payload)
            else:
                self._finish_recv(req, src, payload.tag, payload.nbytes, payload.data)
            return True
        if kind is RtsPacket:
            req = self._match_posted(src, payload.tag)
            if req is None:
                self._stash(src, payload)
            else:
                self._send_cts(req, src, payload)
            return True
        if kind is CtsPacket:
            dst, nbytes, data, sreq = self._rndv_pending.pop(payload.send_id)
            if not self._rndv_pending:
                self._rndv_pending = _NO_HANDSHAKES
            ticket = self.fabric.send(
                self.rank, dst, nbytes, RndvData(payload.send_id, nbytes, data),
                kind=ServiceKind.RDMA,
            )
            ticket.on_local_complete(sreq.complete)
            return True
        if kind is RndvData:
            req = self._rndv_recv.pop(payload.send_id)
            if not self._rndv_recv:
                self._rndv_recv = _NO_HANDSHAKES
            self._finish_recv(
                req, req.matched_source, req.matched_tag, payload.nbytes, payload.data
            )
            return True
        return False

    # -- matching internals ----------------------------------------------
    @staticmethod
    def _matches(req: RecvRequest, src: int, tag: int) -> bool:
        wild = req.tag == ANY_TAG and tag >= 0  # never a collective's negative tag
        return req.source in (ANY_SOURCE, src) and (req.tag == tag or wild)

    def _stash(self, src: int, payload: EagerData | RtsPacket) -> None:
        """Keep an arrival no posted receive matched."""
        if self._unexpected:
            self._unexpected.append((src, payload))
        else:
            self._unexpected = [(src, payload)]

    def _match_posted(self, src: int, tag: int) -> RecvRequest | None:
        posted = self._posted
        for i, req in enumerate(posted):
            if self._matches(req, src, tag):
                del posted[i]
                if not posted:
                    self._posted = ()
                return req
        return None

    def _match_unexpected(self, req: RecvRequest) -> bool | None:
        unexpected = self._unexpected
        for i, (src, payload) in enumerate(unexpected):
            if self._matches(req, src, payload.tag):
                del unexpected[i]
                if not unexpected:
                    self._unexpected = ()
                if isinstance(payload, EagerData):
                    self._finish_recv(req, src, payload.tag, payload.nbytes, payload.data)
                else:
                    self._send_cts(req, src, payload)
                return True
        return None

    def _send_cts(self, req: RecvRequest, src: int, rts: RtsPacket) -> None:
        req.matched_source = src
        req.matched_tag = rts.tag
        if self._rndv_recv:
            self._rndv_recv[rts.send_id] = req
        else:
            self._rndv_recv = {rts.send_id: req}
        self.fabric.send(
            self.rank, src, self.fabric.model.control_bytes, CtsPacket(rts.send_id),
            kind=ServiceKind.CONTROL,
        )

    def _finish_recv(
        self,
        req: RecvRequest,
        src: int | None,
        tag: int | None,
        nbytes: int,
        data: np.ndarray | None,
    ) -> None:
        req.matched_source = src
        req.matched_tag = tag
        if data is not None and req.buffer is not None:
            raw = data.view(np.uint8).reshape(-1)
            dest = req.buffer.view(np.uint8).reshape(-1)
            if raw.nbytes > dest.nbytes:
                raise TruncationError(
                    f"recv buffer of {dest.nbytes} B too small for {raw.nbytes} B message"
                )
            dest[: raw.nbytes] = raw
        req.complete(data)


class DisseminationBarrier:
    """One rank's dissemination barrier, progressed by its two-sided layer
    (§VII): round ``k`` sends a token on tag ``TAG_BARRIER - k`` to ``rank
    + 2**k`` and takes one from ``rank - 2**k``.  The generator barrier's
    kernel positions are kept, with no request and one caller resume:
    local completion schedules a hop (where ``SendRequest.complete`` ran)
    that schedules :meth:`_sent` (where the process resumed); the round
    advances there, or in the token's own zero-delay schedule if it comes
    later.  The last round resumes the caller in place."""

    __slots__ = ("sim", "fabric", "rank", "nranks", "rounds", "tokens", "_round", "_done")

    def __init__(self, sim: "Simulator", fabric: "Fabric", rank: int):
        self.sim, self.fabric, self.rank = sim, fabric, rank
        self.nranks = fabric.topology.nranks
        self.rounds = (self.nranks - 1).bit_length()
        #: Per round (one source each): tokens not yet taken, -1 = awaited.
        #: ``()`` while every count is 0: between barriers, unless a
        #: token of the next one came early.
        self.tokens: list[int] | tuple[()] = ()
        self._round = 0
        self._done: SimEvent | None = None

    def enter(self) -> SimEvent:
        """Start a barrier (``nranks`` > 1); wait on the event returned."""
        self._done = SimEvent(self.sim, "barrier")
        self._round = 0
        if not self.tokens:
            self.tokens = [0] * self.rounds
        self._send()
        return self._done

    def _send(self) -> None:
        k = self._round
        ticket = self.fabric.send(
            self.rank, (self.rank + (1 << k)) % self.nranks, 8 + self.fabric.model.control_bytes,
            EagerData(TAG_BARRIER - k, 8, None, next(_send_ids)), kind=ServiceKind.CONTROL,
        )
        ticket.on_local_complete(self.sim.schedule, 0.0, self._sent)

    def _sent(self) -> None:
        k = self._round
        self.tokens[k] -= 1
        if self.tokens[k] >= 0:
            self._advance()

    def on_token(self, k: int) -> None:
        """A round-``k`` token was delivered."""
        if not self.tokens:
            self.tokens = [0] * self.rounds
        self.tokens[k] += 1
        if not self.tokens[k]:
            self.sim.schedule(0.0, self._advance)

    def _advance(self) -> None:
        self._round += 1
        if self._round < self.rounds:
            self._send()
        else:
            if not any(self.tokens):
                self.tokens = ()
            done, self._done = self._done, None
            done.complete_now()
