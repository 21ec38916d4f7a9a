"""Epoch objects: the middleware-side state machine of §VI/§VII.

An epoch has two lifetimes (§VI):

- the **application-level lifetime**, bounded by *open* and *closed* —
  driven by the synchronization calls the application makes;
- the **internal lifetime**, bounded by *activated* and *completed* —
  driven by the progress engine.

An epoch opened at application level but not yet activated is a
*deferred epoch*: its communication calls are recorded and replayed on
activation (§VII-A).  An epoch can even be closed at application level
while still deferred (``app_closed`` with ``state == DEFERRED``).  An op
stays in its epoch only while it is owed: unissued, or issued and not
yet delivered.
"""

from __future__ import annotations

import enum
import itertools
from types import MappingProxyType
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ops import RmaOp
    from .requests import ClosingRequest

__all__ = ["EpochKind", "EpochState", "Epoch", "LOCK_HELD", "UNLOCK_SENT", "UNLOCK_ACKED"]

_epoch_uids = itertools.count()

#: The bookkeeping an epoch's kind never uses, shared by every epoch:
#: reads see an empty map or set, and a stray write raises.
_NO_IDS = MappingProxyType({})
_NO_PEERS = frozenset()

#: A lock epoch's stage toward one target (``Epoch.lock_stage``); each
#: implies the ones before it.
LOCK_HELD, UNLOCK_SENT, UNLOCK_ACKED = 1, 2, 3


class EpochKind(enum.Enum):
    """The five epoch shapes of MPI-3 RMA."""

    FENCE = "fence"
    GATS_ACCESS = "gats_access"
    GATS_EXPOSURE = "gats_exposure"
    LOCK = "lock"
    LOCK_ALL = "lock_all"

    @property
    def is_access(self) -> bool:
        """Origin-side epochs (fence counts as access for op hosting;
        the reorder flags never apply to fence anyway, §VI-B)."""
        return self is not EpochKind.GATS_EXPOSURE

    @property
    def reorder_excluded(self) -> bool:
        """Kinds next to which the §VI-B optimization flags do not apply."""
        return self in (EpochKind.FENCE, EpochKind.LOCK_ALL)


class EpochState(enum.Enum):
    """Internal-lifetime state."""

    DEFERRED = "deferred"
    ACTIVE = "active"
    COMPLETED = "completed"


class Epoch:
    """One epoch's full middleware record."""

    __slots__ = (
        "uid", "kind", "win", "owner", "targets", "origin_group", "peers", "exclusive",
        "fence_round", "nocheck", "is_access", "reorder_excluded", "active",
        "completed", "app_closed", "last_call_time", "_unissued_by_target",
        "_unissued_count", "_undelivered_by_target", "_undelivered_count", "access_ids",
        "exposure_ids", "lock_stage", "unlocks_acked", "done_sent", "done_from", "ready_from",
        "internode_waiting", "due_targets", "fence_done_sent",
        "closing_request", "open_time", "activate_time", "close_call_time", "complete_time",
    )

    def __init__(
        self,
        kind: EpochKind,
        win: int,
        owner: int,
        targets: tuple[int, ...] = (),
        origin_group: tuple[int, ...] = (),
        exclusive: bool = False,
        fence_round: int = -1,
        nocheck: bool = False,
    ):
        self.uid = next(_epoch_uids)
        self.kind = kind
        self.win = win
        self.owner = owner
        #: Access-side peer set (GATS group, lock target(s), fence: all).
        self.targets = tuple(targets)
        #: Exposure-side origin group (GATS post group).
        self.origin_group = tuple(origin_group)
        gats_access = kind is EpochKind.GATS_ACCESS
        exposure = kind is EpochKind.GATS_EXPOSURE
        lock = kind is EpochKind.LOCK or kind is EpochKind.LOCK_ALL
        fence = kind is EpochKind.FENCE
        #: A GATS group as a set: every grant and done asks each live
        #: epoch of the kind whether its sender belongs.  (Fence and
        #: lock_all involve every rank and are never asked.)
        self.peers = (frozenset(self.targets or self.origin_group)
                      if gats_access or exposure else _NO_PEERS)
        self.exclusive = exclusive
        self.fence_round = fence_round
        #: MPI_MODE_NOCHECK: the application guarantees the matching
        #: synchronization has already happened; skip grant waiting.
        self.nocheck = nocheck
        #: Kind-derived flags, flattened to plain attributes: the
        #: activation predicate reads them per epoch pair per sweep, and
        #: the enum-property forms cost a containment test per read.
        self.is_access = not exposure
        self.reorder_excluded = fence or kind is EpochKind.LOCK_ALL

        # The internal-lifetime state is these two bools, set by the
        # progress engines (``state`` is the enum view of them).
        self.active = False
        self.completed = False
        #: Application already invoked the closing routine.
        self.app_closed = False
        #: Virtual time of the last communication call (None: none yet).
        self.last_call_time: float | None = None
        # The ops still owed, per target (the progress engine polls these
        # on every sweep).  A delivered op leaves its epoch, and each map
        # is the shared empty while its count is 0.
        self._unissued_by_target: dict[int, list["RmaOp"]] | MappingProxyType = _NO_IDS
        self._unissued_count = 0
        #: Not-yet-delivered ops per target, by op uid (a target leaves
        #: with its last op).
        self._undelivered_by_target: dict[int, dict[int, "RmaOp"]] | MappingProxyType = _NO_IDS
        self._undelivered_count = 0
        #: Access ids per target: the value reserved on the board's
        #: grant (or lock) channel at activation — ``A_i = ++a_l``, §VII-B.
        self.access_ids = {} if gats_access or lock else _NO_IDS
        #: Exposure indices per origin: the DONE value that completes
        #: this exposure toward each origin (assigned at activation).
        self.exposure_ids = {} if exposure else _NO_IDS
        #: Lock / lock_all epochs: each target whose lock is held, at its
        #: stage (``LOCK_HELD`` < ``UNLOCK_SENT`` < ``UNLOCK_ACKED``), and
        #: how many targets acknowledged the unlock.
        self.lock_stage = {} if lock else _NO_IDS
        self.unlocks_acked = 0
        #: Done packet already sent per target (GATS access side).
        self.done_sent = set() if gats_access else _NO_PEERS
        #: Peers whose completion announcement for this epoch is in (an
        #: exposure's origins, a fence's peers): the group predicate is
        #: this set's size.
        self.done_from = set() if exposure or fence else _NO_PEERS
        #: Peers counted toward the baseline's all-targets-ready gate
        #: (§VIII-B): the targets of a GATS access epoch whose grant is
        #: in, the ranks that announced a fence round.  The gate is this
        #: set's size, and ``internode_waiting`` for its internode phase.
        self.ready_from = set() if gats_access or fence else _NO_PEERS
        #: Internode targets of a GATS access epoch not yet in ``ready_from``.
        self.internode_waiting = 0
        #: Targets whose done / unlock may have become sendable since the
        #: epoch was last examined closed; None: every target (an epoch is
        #: born that way, the close call restores it, and one with a
        #: single target has nothing to narrow and stays that way).
        self.due_targets: set[int] | None = None
        #: Fence-done broadcast emitted (fence epochs).
        self.fence_done_sent = False
        #: Closing request while it is pending (the engine drops it at completion).
        self.closing_request: "ClosingRequest | None" = None
        # Timeline (for the causal recorder).
        self.open_time: float | None = None
        self.activate_time: float | None = None
        self.close_call_time: float | None = None
        self.complete_time: float | None = None

    # -- state helpers -----------------------------------------------------
    @property
    def state(self) -> EpochState:
        """Internal-lifetime state, read off ``active`` / ``completed``."""
        if self.completed:
            return EpochState.COMPLETED
        return EpochState.ACTIVE if self.active else EpochState.DEFERRED

    @property
    def deferred(self) -> bool:
        """Not yet activated by the progress engine."""
        return not (self.active or self.completed)

    # -- op bookkeeping (engine-internal) --------------------------------
    def record_op(self, op: "RmaOp") -> None:
        """Register a communication call with this epoch."""
        target = op.target
        if self._unissued_count:
            self._unissued_by_target.setdefault(target, []).append(op)
        else:
            self._unissued_by_target = {target: [op]}
        self._unissued_count += 1
        if self._undelivered_count:
            self._undelivered_by_target.setdefault(target, {})[op.uid] = op
        else:
            self._undelivered_by_target = {target: {op.uid: op}}
        self._undelivered_count += 1

    def take_unissued(self, target: int) -> list["RmaOp"]:
        """Pop every not-yet-issued op directed at ``target`` (the
        engine issues them immediately after)."""
        if not self._unissued_count:
            return []
        ops = self._unissued_by_target.pop(target, [])
        self._unissued_count -= len(ops)
        if not self._unissued_count:
            self._unissued_by_target = _NO_IDS
        return ops

    def mark_delivered(self, op: "RmaOp") -> bool:
        """Account one op's remote completion; True when that moved a
        completion input (every closing condition that counts deliveries
        also requires the closing routine to have been called)."""
        by_target = self._undelivered_by_target
        ops = by_target[op.target]
        del ops[op.uid]
        self._undelivered_count -= 1
        if not self._undelivered_count:
            self._undelivered_by_target = _NO_IDS
        elif not ops:
            del by_target[op.target]
        return self.app_closed

    def take_due_targets(self) -> tuple[int, ...] | list[int]:
        """Pop the due targets, in ``targets`` order (the order dones and
        unlocks leave in is part of the virtual-time contract)."""
        due = self.due_targets
        if due is None:
            if len(self.targets) > 1:
                self.due_targets = set()
            return self.targets
        if len(due) > 1:
            out = [t for t in self.targets if t in due]
        else:
            out = tuple(due)
        due.clear()
        return out

    def undelivered_ops(self, target: int | None = None) -> list["RmaOp"]:
        """Ops not yet remotely complete, toward ``target`` (None: all)."""
        by_target = self._undelivered_by_target
        if target is not None:
            return list(by_target.get(target, {}).values())
        return [op for ops in by_target.values() for op in ops.values()]

    @property
    def undelivered(self) -> int:
        """Total ops not yet remotely complete."""
        return self._undelivered_count

    @property
    def unissued_count(self) -> int:
        """Recorded ops not yet on the wire."""
        return self._unissued_count

    def unissued_targets(self) -> list[int]:
        """Targets that still have unissued ops."""
        return [t for t, ops in self._unissued_by_target.items() if ops]

    def all_issued_to(self, target: int) -> bool:
        """Whether every recorded op to ``target`` has been issued."""
        return not self._unissued_by_target.get(target)

    def pending_to(self, target: int) -> bool:
        """Whether any op toward ``target`` is unissued or still in
        flight (the epoch-completion gate, fused into one lookup pair)."""
        u = self._unissued_by_target.get(target)
        if u:
            return True
        return bool(self._undelivered_by_target.get(target))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Epoch #{self.uid} {self.kind.value} owner={self.owner} win={self.win} "
            f"{self.state.value}{' app-closed' if self.app_closed else ''}>"
        )
