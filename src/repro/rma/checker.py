"""Opt-in RMA semantics validator and byte-range race detector.

The paper's deferred epochs are only safe when the middleware can tell a
*legal* reordering from an erroneous program: the ω-matching of §VII-B
grants access but never checks misuse, and the §VI-B flags explicitly
shift the disjoint-memory burden onto the application (§VI-C).  This
module observes every op issue, epoch transition, lock event and flush
at simulation time and validates them against the MPI-3 RMA memory
model plus the paper's §VI activation rules.

Detected violation classes (:class:`ViolationKind`):

``OVERLAP_RACE``
    Conflicting PUT/PUT or PUT/GET byte-range overlaps on the same
    target within one *exposure interval* — the maximal span at a target
    with no intervening synchronization quiesce point (exposure-epoch
    completion, fence-round completion, or the hosted lock falling
    idle).  Tracked via per-window shadow intervals.
``OMEGA_VIOLATION``
    An op put on the wire with ``A_i > g_r`` — the engine let an access
    through that its own ω-counters say was never granted (reachable by
    lying with ``MPI_MODE_NOCHECK``, or by an engine bug).
``ILLEGAL_REORDER``
    §VI-B misuse: an epoch activated past a fence/``lock_all`` neighbor
    or past a side-pair the window's flags do not allow; and any data
    race *introduced* by flag-enabled concurrency that would not exist
    under serial activation.
``LOCK_MISUSE``
    Unlock without a matching hold, conflicting exclusive grants at one
    host, or a ``MODE_NOCHECK`` lock epoch issuing ops while a
    conflicting lock is genuinely held at the target.
``FLUSH_MISUSE``
    A flush created outside a live passive-target epoch.
``EPOCH_LEAK``
    Leaked middleware state at ``MPI_WIN_FREE``: non-retired epochs,
    live flush requests, orphaned response-routing entries, hosted locks
    never released, or undrained notification-FIFO packets.

Enable with the window info key ``repro.semantics_check=1``.  The
default mode raises a structured :class:`RmaSemanticsError` at the
violating event; ``repro.semantics_check_mode=report`` accumulates
:class:`Violation` records instead, queryable per window via
:meth:`RmaChecker.report`.  Without the info key no checker object
exists and the hot path pays a single ``is None`` test per hook.

Interaction with fault injection
--------------------------------
The checker's invariants assume each protocol packet is observed
exactly once, in per-pair FIFO order — the guarantee the fabric gives
natively and the :mod:`repro.faults` reliability layer restores under
an active :class:`~repro.faults.FaultPlan` (retransmission, duplicate
suppression, in-order admission below the middleware).  The checker
therefore needs no fault-awareness: a faulty-but-reliable run must
produce *zero* violations, and the chaos acceptance tests run it in
``raise`` mode to prove it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..mpi.errors import RmaUsageError
from .epoch import EpochKind
from .notify import SignalChannel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.info import Info
    from .epoch import Epoch
    from .locks import LockWaiter
    from .ops import RmaOp
    from .state import WindowState
    from .window import Window

__all__ = [
    "SEMANTICS_CHECK_INFO_KEY",
    "SEMANTICS_MODE_INFO_KEY",
    "ViolationKind",
    "Violation",
    "RmaSemanticsError",
    "RmaChecker",
]

#: Info key that enables the checker for a window.
SEMANTICS_CHECK_INFO_KEY = "repro.semantics_check"
#: Info key selecting ``raise`` (default) or ``report`` mode.
SEMANTICS_MODE_INFO_KEY = "repro.semantics_check_mode"

_PASSIVE_KINDS = (EpochKind.LOCK, EpochKind.LOCK_ALL)


class ViolationKind(enum.Enum):
    """The violation classes the checker detects."""

    OVERLAP_RACE = "overlap_race"
    OMEGA_VIOLATION = "omega_violation"
    ILLEGAL_REORDER = "illegal_reorder"
    LOCK_MISUSE = "lock_misuse"
    FLUSH_MISUSE = "flush_misuse"
    EPOCH_LEAK = "epoch_leak"


@dataclass(frozen=True)
class Violation:
    """One detected semantics violation."""

    kind: ViolationKind
    rank: int
    win: int
    time: float
    message: str
    epoch_uid: int | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.kind.value}] rank {self.rank} win {self.win}: {self.message}"


class RmaSemanticsError(RmaUsageError):
    """Structured error raised by the checker in ``raise`` mode."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(str(violation))


class RmaChecker:
    """Per-window-group semantics validator (one per :class:`WindowGroup`,
    shared by every rank's engine so cross-rank races are visible)."""

    def __init__(self, mode: str = "raise"):
        if mode not in ("raise", "report"):
            raise ValueError(f"unknown checker mode {mode!r}")
        self.mode = mode
        #: All violations, in detection order (both modes record).
        self.violations: list[Violation] = []
        #: Exposure-interval counter per (win gid, target rank).
        self._interval: dict[tuple[int, int], int] = {}
        #: Ops issued toward (win gid, target rank) in the *current*
        #: interval only — the shadow ranges conflicting ops are checked
        #: against.  Bumping the interval drops the list, which bounds
        #: memory over long runs.
        self._shadow: dict[tuple[int, int], list["RmaOp"]] = {}
        #: ``(epoch uid, uid of an epoch still active when it activated)``
        #: (§VI-B reorder provenance: only a reorder flag lets an
        #: activation jump ahead; it tells races *introduced* by
        #: reordering from plain overlap races).
        self._jumped: set[tuple[int, int]] = set()

    # -- construction ------------------------------------------------------
    @classmethod
    def from_info(cls, info: "Info | None") -> "RmaChecker | None":
        """Build a checker if the window info asks for one."""
        if info is None or not info.get_bool(SEMANTICS_CHECK_INFO_KEY):
            return None
        return cls(mode=info.get(SEMANTICS_MODE_INFO_KEY, "raise"))

    # -- reporting ---------------------------------------------------------
    def report(self, kind: ViolationKind | None = None) -> list[Violation]:
        """Violations recorded so far, optionally filtered by kind."""
        if kind is None:
            return list(self.violations)
        return [v for v in self.violations if v.kind is kind]

    def _flag(
        self,
        kind: ViolationKind,
        ws: "WindowState",
        message: str,
        epoch: "Epoch | None" = None,
        **detail: Any,
    ) -> None:
        v = Violation(
            kind=kind,
            rank=ws.rank,
            win=ws.gid,
            time=ws.win.sim.now,
            message=message,
            epoch_uid=epoch.uid if epoch is not None else None,
            detail=detail,
        )
        self.violations.append(v)
        if self.mode == "raise":
            raise RmaSemanticsError(v)

    # =====================================================================
    # Shadow interval machinery (violation class a)
    # =====================================================================
    def interval_of(self, gid: int, target: int) -> int:
        """Current exposure-interval number at ``(window, target)``."""
        return self._interval.get((gid, target), 0)

    def bump_interval(self, gid: int, target: int) -> None:
        """A synchronization quiesce point occurred at ``target``: start
        a fresh interval and drop the previous shadow ranges."""
        key = (gid, target)
        self._interval[key] = self._interval.get(key, 0) + 1
        self._shadow.pop(key, None)

    def _check_shadow(self, ws: "WindowState", ep: "Epoch", op: "RmaOp") -> None:
        key = (ws.gid, op.target)
        ranges = self._shadow.setdefault(key, [])
        for other in ranges:
            if not op.conflicts_with(other):
                continue
            oep = other.epoch
            jumped = self._jumped
            if (ep.uid, oep.uid) in jumped or (oep.uid, ep.uid) in jumped:
                self._flag(
                    ViolationKind.ILLEGAL_REORDER,
                    ws,
                    f"reorder flags let epochs {oep.uid} and {ep.uid} progress "
                    f"concurrently and their ops conflict on rank {op.target} "
                    f"bytes [{max(op.target_range[0], other.target_range[0])}, "
                    f"{min(op.target_range[1], other.target_range[1])}): "
                    f"{other.kind.value} op {other.uid} vs {op.kind.value} op "
                    f"{op.uid} — a race introduced by reordering",
                    epoch=ep,
                    other_epoch=oep.uid,
                    ops=(other.uid, op.uid),
                )
            else:
                self._flag(
                    ViolationKind.OVERLAP_RACE,
                    ws,
                    f"conflicting {other.kind.value}/{op.kind.value} overlap on "
                    f"rank {op.target} bytes "
                    f"[{max(op.target_range[0], other.target_range[0])}, "
                    f"{min(op.target_range[1], other.target_range[1])}) within "
                    f"one exposure interval "
                    f"(origins {other.origin} and {op.origin})",
                    epoch=ep,
                    other_epoch=oep.uid,
                    ops=(other.uid, op.uid),
                    interval=self.interval_of(ws.gid, op.target),
                )
        ranges.append(op)

    # =====================================================================
    # Engine hooks
    # =====================================================================
    def on_op_issue(self, ws: "WindowState", ep: "Epoch", op: "RmaOp") -> None:
        """Called by the engines immediately before an op hits the wire."""
        # (b) matching violation: the O(1) test ``A_i <= g_r`` says this
        # access was never granted, yet the op is being issued.
        # Deliberately not skipped under NOCHECK: it catches false
        # NOCHECK assertions.
        if ep.kind is EpochKind.GATS_ACCESS and op.target in ep.access_ids:
            access_id = ep.access_ids[op.target]
            if not ws.board.reached(SignalChannel.GRANT, op.target, access_id):
                granted = ws.board.inbound.get((SignalChannel.GRANT, op.target), 0)
                self._flag(
                    ViolationKind.OMEGA_VIOLATION,
                    ws,
                    f"op {op.uid} ({op.kind.value}) issued to rank {op.target} with "
                    f"access id {access_id} > g_r={granted} "
                    f"(no matching exposure granted"
                    f"{'; MPI_MODE_NOCHECK asserted falsely' if ep.nocheck else ''})",
                    epoch=ep,
                    access_id=access_id,
                    g=granted,
                )
        # (d) NOCHECK lock epochs: the application asserted no
        # conflicting lock exists; verify against the target's hosted
        # lock manager.
        if ep.kind in _PASSIVE_KINDS and ep.nocheck:
            self._check_nocheck_lock(ws, ep, op)
        # (a)/(c) shadow-interval race detection.
        self._check_shadow(ws, ep, op)

    def _check_nocheck_lock(self, ws: "WindowState", ep: "Epoch", op: "RmaOp") -> None:
        host = ws.win.group.windows.get(op.target)
        if host is None or host._state is None:
            return
        holders = host._state.lock_mgr.holders
        conflicting = {
            origin: excl
            for origin, excl in holders.items()
            if origin != ws.rank and (excl or ep.exclusive)
        }
        if conflicting:
            self._flag(
                ViolationKind.LOCK_MISUSE,
                ws,
                f"MODE_NOCHECK {'exclusive' if ep.exclusive else 'shared'} lock "
                f"epoch {ep.uid} issued op {op.uid} to rank {op.target} while a "
                f"conflicting lock is held there by rank(s) "
                f"{sorted(conflicting)} — the NOCHECK assertion was false",
                epoch=ep,
                holders=holders,
            )

    def on_epoch_activate(
        self, ws: "WindowState", ep: "Epoch", active_preceding: Sequence["Epoch"]
    ) -> None:
        """Validate one deferred-epoch activation against the §VI rules
        (an oracle over the engine's own predicate: catches engine bugs
        and direct misuse alike)."""
        flags = ws.win.group.flags
        for prev in active_preceding:
            self._jumped.add((ep.uid, prev.uid))
            if ep.kind.reorder_excluded or prev.kind.reorder_excluded:
                self._flag(
                    ViolationKind.ILLEGAL_REORDER,
                    ws,
                    f"epoch {ep.uid} ({ep.kind.value}) activated past still-active "
                    f"{prev.kind.value} epoch {prev.uid}; §VI-B flags never apply "
                    f"next to fence or lock_all epochs",
                    epoch=ep,
                    past=prev.uid,
                )
            elif not flags.allows(ep.is_access, prev.is_access):
                self._flag(
                    ViolationKind.ILLEGAL_REORDER,
                    ws,
                    f"epoch {ep.uid} activated past active epoch {prev.uid} but "
                    f"the window's reorder flags do not allow the "
                    f"{'access' if ep.is_access else 'exposure'}-after-"
                    f"{'access' if prev.is_access else 'exposure'} pair",
                    epoch=ep,
                    past=prev.uid,
                )

    def on_epoch_complete(self, ws: "WindowState", ep: "Epoch") -> None:
        """Exposure-side completions are synchronization quiesce points
        at this rank: start a fresh shadow interval."""
        if ep.kind in (EpochKind.GATS_EXPOSURE, EpochKind.FENCE):
            self.bump_interval(ws.gid, ws.rank)

    def on_notify_consumed(self, ws: "WindowState", source: int) -> None:
        """Notified-access synchronization edge (foMPI): signals ride
        the same per-pair FIFO lane as data, so a notification this rank
        consumes is ordered after every op ``source`` already delivered
        here.  Retire those shadow ranges: a later conflicting access is
        ordered after them through the notification chain (data notify →
        copy-out → credit → reuse), not racing with them."""
        key = (ws.gid, ws.rank)
        ops = self._shadow.get(key)
        if ops:
            self._shadow[key] = [
                op for op in ops if not (op.origin == source and op.deliver_time is not None)
            ]

    # -- lock hosting ------------------------------------------------------
    def on_lock_grant(self, ws: "WindowState", waiter: "LockWaiter") -> None:
        """Invariant check at every grant: exclusive holds never coexist
        with any other hold at one host."""
        holders = ws.lock_mgr.holders
        if len(holders) > 1 and any(holders.values()):
            self._flag(
                ViolationKind.LOCK_MISUSE,
                ws,
                f"conflicting exclusive grant at host {ws.rank}: holders "
                f"{holders} after granting origin {waiter.origin}",
                holders=holders,
            )

    def on_lock_release(self, ws: "WindowState", origin: int, quiesced: bool) -> None:
        """Host-side release processed.  ``quiesced`` is True when no
        *other* holder remained at release time: the FIFO manager hands
        the lock straight to the next waiter inside ``release()``, so
        inspecting ``holders`` here would miss the idle instant — yet the
        handoff is a synchronization edge, and ops under the successor's
        epoch are ordered after the releaser's.  Racing shared holders
        (``quiesced`` False) stay in the same interval."""
        if quiesced:
            self.bump_interval(ws.gid, ws.rank)

    def on_unlock_without_hold(self, ws: "WindowState", origin: int) -> None:
        self._flag(
            ViolationKind.LOCK_MISUSE,
            ws,
            f"rank {origin} sent unlock to host {ws.rank} without holding the "
            f"lock (unlock without lock, or double unlock)",
            origin=origin,
        )

    # -- flushes -----------------------------------------------------------
    def on_flush(self, ws: "WindowState", ep: "Epoch") -> None:
        """A flush must land inside a live passive-target epoch."""
        if ep.kind not in _PASSIVE_KINDS:
            self._flag(
                ViolationKind.FLUSH_MISUSE,
                ws,
                f"flush on a {ep.kind.value} epoch {ep.uid}; flushes require a "
                f"passive-target epoch",
                epoch=ep,
            )
        elif ep.app_closed or ep.completed:
            self._flag(
                ViolationKind.FLUSH_MISUSE,
                ws,
                f"flush outside its epoch: epoch {ep.uid} is already "
                f"{'completed' if ep.completed else 'closed'}",
                epoch=ep,
            )

    # -- window teardown ---------------------------------------------------
    def on_win_free(self, win: "Window") -> None:
        """Validate that no middleware state leaks at ``MPI_WIN_FREE``."""
        ws = win._state
        if ws is None:
            return
        leaks = ws.leak_report()
        fifo_pending = self._pending_fifo_for(win)
        if fifo_pending:
            leaks["fifo_notifications"] = fifo_pending
        if leaks:
            self._flag(
                ViolationKind.EPOCH_LEAK,
                ws,
                f"MPI_WIN_FREE with leaked middleware state: "
                f"{', '.join(sorted(leaks))} "
                f"(detect epoch completion and drain notifications first)",
                **leaks,
            )

    @staticmethod
    def _pending_fifo_for(win: "Window") -> list[str]:
        """Undrained notification-FIFO packets addressed to this window."""
        gid = win.group.gid
        return [
            f"EPOCH_COMPLETE(from={sender}, id={packet.access_id})"
            for packet, sender in win.engine.fifo.pending() if packet.win == gid
        ]
