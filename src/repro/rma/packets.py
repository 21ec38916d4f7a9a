"""RMA wire payloads exchanged between engines through the fabric.

These complement the 64-bit notification packets of
:mod:`repro.network.shmem` — notifications carry grant/done/lock events;
the payloads here carry data and multi-field control that does not fit
in 64 bits (the paper's design likewise mixes RDMA data, control packets
and the notification FIFOs).

Every payload identifies the window by group id; the receiving engine
routes it to the right per-window state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpi.datatypes import Datatype
from ..mpi.ops import ReduceOp

__all__ = [
    "RmaPayload",
    "PutData",
    "GetRequest",
    "GetResponse",
    "AccumulateData",
    "AccRendezvousRts",
    "AccRendezvousCts",
    "AtomicRequest",
    "GrantUpdate",
    "SignalUpdate",
    "DonePacket",
    "LockRequestPacket",
    "UnlockPacket",
    "UnlockAck",
    "FenceOpen",
    "FenceDone",
]


@dataclass(slots=True)
class RmaPayload:
    """Common header: which window group this traffic belongs to."""

    win: int


@dataclass(slots=True)
class PutData(RmaPayload):
    """A put's payload: applied to target window memory at delivery."""

    op_uid: int
    target_disp: int
    nbytes: int
    data: np.ndarray | None


@dataclass(slots=True)
class GetRequest(RmaPayload):
    """RDMA-read request; the target NIC answers autonomously."""

    op_uid: int
    origin: int
    target_disp: int
    nbytes: int


@dataclass(slots=True)
class GetResponse(RmaPayload):
    """The answer to every op that gets bytes back from its target (get,
    get_accumulate, fetch_and_op, compare_and_swap): the target bytes
    read before the op touched them."""

    op_uid: int
    nbytes: int
    data: np.ndarray | None


@dataclass(slots=True)
class AccumulateData(RmaPayload):
    """Accumulate operand; reduced into target memory at delivery."""

    op_uid: int
    target_disp: int
    nbytes: int
    dtype: Datatype
    reduce_op: ReduceOp
    data: np.ndarray | None
    #: For GET_ACCUMULATE: reply with the pre-reduction target contents.
    fetch: bool = False
    origin: int = -1


@dataclass(slots=True)
class AccRendezvousRts(RmaPayload):
    """Large-accumulate rendezvous request (needs host attention at the
    target: an intermediate buffer must be provided — §VIII-A)."""

    op_uid: int
    origin: int
    nbytes: int


@dataclass(slots=True)
class AccRendezvousCts(RmaPayload):
    """Target's clear-to-send for a large accumulate."""

    op_uid: int


@dataclass(slots=True)
class AtomicRequest(RmaPayload):
    """Single-element atomic read-modify-write, answered by a
    :class:`GetResponse` with the old value: MPI_FETCH_AND_OP when
    ``compare`` is None, else MPI_COMPARE_AND_SWAP with ``data`` the new
    value."""

    op_uid: int
    origin: int
    target_disp: int
    dtype: Datatype
    reduce_op: ReduceOp | None
    data: np.ndarray | None
    compare: np.ndarray | None = None


@dataclass(slots=True)
class GrantUpdate(RmaPayload):
    """One-sided increment of the origin's ω-triple ``g`` counter
    (§VII-B): the target granted one more access to the receiving rank.

    ``granter`` identifies whose counter stream this belongs to; the
    receiving engine does ``g[granter] += 1``.  When the grant stems
    from the lock manager rather than an exposure post,
    ``lock_access_id`` carries the access id of the lock epoch being
    granted so the origin can mark that specific epoch as holding the
    lock (GATS matching alone cannot distinguish grant provenance).

    ``grant_seq`` is the granter-side value of ``e[origin]`` *after*
    the increment that produced this grant — i.e. the grant's position
    in the granter→origin grant stream.  Because the receiver applies
    it as ``g[granter] = max(g[granter], grant_seq)``, replaying a
    GrantUpdate is a no-op: the counter update is idempotent, which is
    what makes the packet safe to retransmit under the reliability
    layer even if duplicate suppression were bypassed.
    """

    granter: int
    grant_seq: int
    lock_access_id: int | None = None


@dataclass(slots=True)
class SignalUpdate(RmaPayload):
    """One-sided 8-byte write of a counter-signal value (the counter
    protocol of :mod:`repro.rma.notify`; mscclpp's ``epoch.hpp``).

    ``value`` is the signaler's full outbound counter on ``channel``
    *after* the increment that produced this signal — never a delta.
    The receiver applies it as ``inbound = max(inbound, value)``, so a
    replayed or retransmitted SignalUpdate is a no-op: the same
    idempotence contract as :class:`GrantUpdate.grant_seq`.
    """

    channel: int
    signaler: int
    value: int


@dataclass(slots=True)
class DonePacket(RmaPayload):
    """Access-epoch completion notification carrying the access id
    ``A_i`` that matches the target-side exposure id (§VII-B)."""

    origin: int
    access_id: int


@dataclass(slots=True)
class LockRequestPacket(RmaPayload):
    """Passive-target lock request (processed by the target host)."""

    origin: int
    exclusive: bool
    access_id: int


@dataclass(slots=True)
class UnlockPacket(RmaPayload):
    """The 'different kind of done packet' closing a lock epoch."""

    origin: int
    access_id: int


@dataclass(slots=True)
class UnlockAck(RmaPayload):
    """Target's acknowledgment that the lock epoch is fully closed."""

    access_id: int


@dataclass(slots=True)
class FenceOpen(RmaPayload):
    """Rank entered fence round ``round_no`` (opening side)."""

    origin: int
    round_no: int


@dataclass(slots=True)
class FenceDone(RmaPayload):
    """Rank closed fence round ``round_no`` and its outbound transfers
    are complete (the barrier-semantics notification of rule 5)."""

    origin: int
    round_no: int
